"""Run one benchmark workload for a fixed time, check its outputs, print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {train,infer-long,eval-batch,stream} \
        --seed N --seconds S --trace {0,1}

With --trace 0 the library is left untouched and the run reports the
end-to-end metrics. With --trace 1 the first half of the run is untraced and
the second half records spans (see tracing.py); the run reports the per-layer
metrics and the tracing overhead. Human-readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. Spans of a traced run are written to bench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 3
# A workload with a minimum operation count may run past --seconds to reach
# it, but never past this multiple of --seconds.
MAX_STRETCH = 3.0


def bootstrap():
    """Cap BLAS threads at the CPUs this process may use and put src/ on the path.

    Must run before numpy is imported. Returns False when the checkout holds
    no ms4 sources.
    """
    if not (SRC / "ms4" / "__init__.py").is_file():
        return False
    cpus = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= cpus):
            os.environ[var] = str(cpus)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


@dataclass
class Measured:
    latencies_ns: list = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0

    def p(self, q):
        """q-th percentile latency in ms, interpolated as numpy.percentile does."""
        if len(self.latencies_ns) == 1:
            return self.latencies_ns[0] / 1e6
        return statistics.quantiles(self.latencies_ns, n=100, method="inclusive")[q - 1] / 1e6


def measure(job, seconds, min_ops, tracer=None, first_request=0):
    """Closed loop, one client: run operations back to back for `seconds`
    (and until `min_ops` were attempted, within MAX_STRETCH * seconds).

    An operation that raises or fails its check counts as failed and adds
    nothing to the latencies or the item count.
    """
    out = Measured()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (out.attempted >= min_ops or elapsed >= MAX_STRETCH * seconds):
            break
        request = first_request + out.attempted
        out.attempted += 1
        try:
            t0 = time.perf_counter_ns()
            if tracer is None:
                items, output = job.op(request)
            else:
                tracer.current_request = request
                try:
                    items, output = tracer.call(job.op_span, job.op, request)
                finally:
                    tracer.current_request = -1
            t1 = time.perf_counter_ns()
        except Exception:  # the loop must go on: record the failure and its traceback
            out.failed += 1
            print(f"operation {request} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        problem = job.check(request, output)
        if problem is not None:
            out.failed += 1
            print(f"operation {request} failed its check: {problem}", file=sys.stderr)
            continue
        out.latencies_ns.append(t1 - t0)
        out.items += items
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded, or None."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload, seed):
    """Machine and environment record printed with every result."""
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


def set_up(cls, seed, workdir):
    """Build the workload SETUP_REPEATS times; keep the last, report the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        job = cls(seed, workdir)
        times.append(time.perf_counter() - t0)
    return job, statistics.median(times)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (summary lines, environment, result dict)."""
    import metrics
    import workloads
    from tracing import Tracer

    from ms4 import autodiff, data, model, ssm, training

    env = environment(workload, seed)
    cls = workloads.WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        job, setup_s = set_up(cls, seed, workdir)
        job.prepare_checks()
        if not trace:
            main = measure(job, seconds, job.min_ops)
            phases = [main]
        else:
            base = measure(job, seconds / 2, 0)
            tracer = Tracer()
            tracer.install({"ssm": ssm, "model": model, "autodiff": autodiff,
                            "training": training, "data": data})
            try:
                main = measure(job, seconds / 2, 0, tracer, first_request=base.attempted)
            finally:
                tracer.uninstall()
            phases = [base, main]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    if any(not p.latencies_ns for p in phases):
        raise RuntimeError(f"no {workload} operation succeeded ({failed} of {attempted} failed)")

    lines = []
    if not trace:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": _peak_rss_mb(),
            "throughput_per_s": main.items / (sum(main.latencies_ns) / 1e9),
            "latency_ms_p50": main.p(50),
        }
        units = {name: unit for name, (unit, _) in metrics.END_TO_END.items()}
        lines += _named_lines(metrics.NAMED_METRICS, workload, values, main, attempted, failed)
        lines.append("# bounded end-to-end metrics (the JSON result below):")
        lines += [_line(n, values[n], units[n], metrics.END_TO_END[n][1]) for n in values]
    else:
        overhead_ms = main.p(50) - base.p(50)
        spans = tracer.spans()
        values, lost = metrics.layer_metrics(
            spans, tracer.names, tracer.missing, main.attempted, job.model,
            cls.values_per_load, overhead_ms,
        )
        units = {name: unit for name, (unit, _, _) in metrics.PER_LAYER.items()}
        lines += _trace_lines(base, main, values)
        if lost:
            lines.append(f"# MISSING (wrapped names gone: {', '.join(tracer.missing)}): "
                         + ", ".join(lost))
        lines += [_line(n, v, units[n], metrics.PER_LAYER[n][1]) for n, v in values.items()]
        tracer.save(OUT / f"trace-{workload}-seed{seed}.npz", env)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    return lines, env, result


def _line(name, value, unit, meaning):
    return f"{name:34s} {value!r:>24} {unit:12s} # {meaning}"


def _named_lines(named_metrics, workload, values, main, attempted, failed):
    """The eight named end-to-end metrics, each with its unit, for this workload."""
    n = len(main.latencies_ns)
    beyond = sum(1 for x in main.latencies_ns if x / 1e6 > main.p(90))
    derived = dict(values, latency_ms_p90=main.p(90), fail_frac=failed / attempted)
    notes = {
        "latency_ms_p50": f"n={n}",
        "latency_ms_p90": f"n={n}, {beyond} above it"
        + ("" if beyond >= 10 else " (fewer than ten above it: not a reliable p90)"),
        "fail_frac": f"{failed}/{attempted} operations",
    }
    lines = [f"# workload {workload}: named end-to-end metrics"]
    for name, (unit, home, source) in named_metrics.items():
        if home not in (None, workload):
            lines.append(f"{name:34s} {'n/a':>24} {unit:12s} # measured by workload {home}")
        else:
            lines.append(f"{name:34s} {derived[source]!r:>24} {unit:12s} # {notes.get(source, source)}")
    return lines


def _trace_lines(base, main, values):
    untraced, traced = base.p(50), main.p(50)
    lines = [
        f"# tracing overhead: latency_ms_p50 untraced {untraced!r} (n={len(base.latencies_ns)}), "
        f"traced {traced!r} (n={len(main.latencies_ns)}), overhead {traced - untraced!r} ms",
    ]
    stage_sum = values.get("trace.stage_sum_ms")
    if stage_sum:
        lines.append(
            f"# stage account: median summed stage time {stage_sum!r} ms vs untraced "
            f"latency_ms_p50 {untraced!r} ms; gap {untraced - stage_sum!r} ms "
            f"(tracing overhead {traced - untraced!r} ms)"
        )
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "infer-long", "eval-batch", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not bootstrap():
        print(f"error: no ms4 sources at {SRC / 'ms4'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    lines, env, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# bench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
