"""Self-test of the benchmark harness. It asserts no timings.

Run from the root of a checkout:

    python3 bench/selftest.py

It runs every workload briefly, traced and untraced, in this process, so it
takes a minute or two.
"""

from __future__ import annotations

import collections
import json
import math
import re
import shutil
import sys
import tempfile
import unittest

import run

if not run.bootstrap():
    sys.exit(f"no ms4 sources at {run.SRC / 'ms4'}")

import numpy as np  # noqa: E402  (after bootstrap caps the BLAS threads)

import metrics  # noqa: E402
import workloads  # noqa: E402
from ms4 import autodiff, data, model, ssm, training  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PREDICTIONS = json.loads((run.BENCH / "predictions.json").read_text(encoding="utf-8"))
MODULES = {"ssm": ssm, "model": model, "autodiff": autodiff, "training": training, "data": data}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
STAGE_SUFFIXES = ("_mac_per_s", "_macs", "_mb", "_s")


def _traced(fn, *args):
    tracer = Tracer()
    tracer.install(MODULES)
    tracer.current_request = 0
    try:
        result = fn(*args)
    finally:
        tracer.uninstall()
    return tracer, result


def _job_inputs(job):
    """Every array a workload generated from its seed, by name."""
    arrays = {f"leaf.{k}": v for k, v in job.model.leaves().items()}
    if hasattr(job, "inputs"):
        arrays["inputs"] = job.inputs
    if hasattr(job, "dataset"):
        arrays["x"], arrays["y"] = job.dataset.x, job.dataset.y
    return arrays


class SpecTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(
            set(SPEC), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(sorted(names), sorted(workloads.WORKLOADS))
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        seen = set(names)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_spec_matches_metric_catalogue(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            {n: unit for n, (unit, _) in metrics.END_TO_END.items()},
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in SPEC["per_layer"]},
            {n: unit for n, (unit, _, _) in metrics.PER_LAYER.items()},
        )

    def test_stage_names_are_mac_breakdown_keys(self):
        keys = set(model.mac_breakdown(model.init_model(2, 4, 4, 2), 8))
        covered = set()
        for m in SPEC["per_layer"]:
            if m["name"].startswith("model.stage."):
                stage = m["name"][len("model.stage."):]
                stage = next(stage[: -len(s)] for s in STAGE_SUFFIXES if stage.endswith(s))
                parts = set(stage.split("-"))
                self.assertLessEqual(parts, keys, m["name"])
                covered |= parts
        self.assertEqual(covered, keys)

    def test_predictions_name_real_metrics(self):
        per_layer = {m["name"] for m in SPEC["per_layer"]}
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        self.assertIsInstance(PREDICTIONS["held_out_seed"], int)
        self.assertLessEqual(set(PREDICTIONS["predictions"]), per_layer)
        for entry in PREDICTIONS["predictions"].values():
            for metric, workload in entry["moves"] + entry["unchanged"]:
                self.assertIn(metric, end_to_end)
                self.assertIn(workload, workloads.WORKLOADS)
        for unit, home, source in metrics.NAMED_METRICS.values():
            self.assertIn(home, set(workloads.WORKLOADS) | {None})


class SpanTest(unittest.TestCase):
    def _check_self_times(self, tracer):
        spans = tracer.spans()
        self.assertTrue((spans["end"] >= spans["start"]).all())
        # Add each span's subtree of self times into its parent, deepest first:
        # a span's self time plus its descendants' self times is its duration.
        subtree = spans["self"].copy()
        for i in range(len(subtree) - 1, -1, -1):
            if spans["parent"][i] >= 0:
                subtree[spans["parent"][i]] += subtree[i]
        np.testing.assert_array_equal(subtree, spans["duration"])
        self.assertTrue((spans["self"] >= 0).all())

    def test_self_times_sum_to_parent_duration(self):
        ds = data.synth_freq_task(40, 16, seed=0, n_features=2)
        mdl = model.init_model(2, 8, 8, 2, seed=0)
        cfg = training.TrainConfig(batch_size=16, max_epochs=1, patience=1, seed=0)
        tracer, _ = _traced(lambda: (training.train(mdl, ds, cfg),
                                     model.stream_logits(mdl, ds.x[0])))
        self.assertEqual(tracer.missing, [])
        self._check_self_times(tracer)

    def test_stage_times_partition_forward(self):
        mdl = model.init_model(2, 8, 8, 3, seed=0)
        x = np.random.default_rng(0).standard_normal((3, 32, 2))
        tracer, _ = _traced(model.forward, x, mdl)
        spans = tracer.spans()
        values, lost = metrics.layer_metrics(spans, tracer.names, [], 1, mdl, 0, 0.0)
        self.assertEqual(lost, [])
        stage_total = sum(values[f"model.stage.{s}_s"] for s in metrics.STAGES)
        forward = spans["duration"][spans["name"] == tracer.names.index("model.forward_t")]
        self.assertTrue(math.isclose(stage_total, forward.sum() / 1e9, rel_tol=1e-9))
        self.assertEqual(values["model.stage.ssm_kernel_macs"],
                         model.mac_breakdown(mdl, 32)["ssm_kernel"])
        self.assertEqual(values["model.stage.mixer_macs"], 3 * model.mac_breakdown(mdl, 32)["mixer"])

    def test_missing_name_is_reported_not_zero(self):
        mdl = model.init_model(2, 8, 8, 3, seed=0)
        x = np.random.default_rng(0).standard_normal((32, 2))
        tracer, _ = _traced(model.forward, x, mdl)
        values, lost = metrics.layer_metrics(
            tracer.spans(), tracer.names, ["ssm.kernel_t"], 1, mdl, 0, 0.0
        )
        self.assertIn("ssm.kernel_s", lost)
        self.assertNotIn("ssm.kernel_s", values)
        self.assertIn("ssm.recurrent_step_s", values)


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs_and_counts(self):
        run.OUT.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(dir=run.OUT)
        try:
            for name, cls in workloads.WORKLOADS.items():
                with self.subTest(workload=name):
                    runs = []
                    for _ in range(2):
                        job = cls(7, workdir)
                        tracer, (items, _) = _traced(job.op, 0)
                        counts = collections.Counter(tracer.names[i] for i in tracer.spans()["name"])
                        runs.append((_job_inputs(job), items, counts))
                    (first, items0, counts0), (second, items1, counts1) = runs
                    self.assertEqual(first.keys(), second.keys())
                    for key in first:
                        np.testing.assert_array_equal(first[key], second[key], err_msg=key)
                    self.assertEqual(items0, items1)
                    self.assertEqual(counts0, counts1)
                    other = _job_inputs(cls(8, workdir))
                    self.assertFalse(all(np.array_equal(first[k], other[k]) for k in first))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


class OutputTest(unittest.TestCase):
    """Every metric of BENCHMARK.json is printed, with its unit, on every workload."""

    def test_every_metric_printed_for_every_workload(self):
        declared = {
            False: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            True: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
        }
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    lines, env, result = run.run(name, 3, 0.5, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, declared[trace])
                    for v in result["metrics"].values():
                        self.assertTrue(math.isfinite(v["value"]))
                    text = "\n".join(lines)
                    for metric, unit in declared[trace].items():
                        self.assertRegex(text, rf"(?m)^{re.escape(metric)} +\S+ +{re.escape(unit)} ")
                    if not trace:
                        for alias, (unit, _, _) in metrics.NAMED_METRICS.items():
                            self.assertRegex(text, rf"(?m)^{re.escape(alias)} +\S+ +{re.escape(unit)} ")
                    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "blas",
                                "blas_threads", "git_commit", "seed"):
                        self.assertIn(key, env)
                    self.assertEqual(env["seed"], 3)


if __name__ == "__main__":
    unittest.main(verbosity=2)
