"""Metric definitions: the end-to-end figures of an untraced run and the
per-layer figures computed from the spans of a traced run.

Every per-layer time is given per benchmark operation (one `training.train`
call, one forward request, one eval pass, one streamed sequence), so runs
that fit a different number of operations into their time stay comparable,
and counts (`_macs`, `training.steps`) repeat exactly between runs. MAC
counts come from `model.mac_breakdown`; byte counts are computed from array
shapes (unit `MB-computed`), not measured.
"""

from __future__ import annotations

import statistics

import numpy as np

from ms4 import model as model_mod
from tracing import WRAPPED

# name -> (unit, meaning). Every workload reports all four.
END_TO_END = {
    "setup_s": ("s", "median of the run's set-ups: input and checkpoint generation plus a warm-up call"),
    "peak_rss_mb": ("MB", "process high-water resident set size (ru_maxrss)"),
    "throughput_per_s": ("1/s", "work items per second of operation wall time; the item is the workload's"),
    "latency_ms_p50": ("ms", "median wall time of one operation"),
}

# The eight end-to-end names the benchmark was specified with, printed by
# name in the summary of every untraced run: (unit, the workload that
# measures it or None for all, the value it shows). The result line bounds
# only END_TO_END, which every workload can report with a non-zero value:
# forward_ms_p90 needs more operations than train and eval-batch fit into a
# run, and fail_frac (failed / attempted of the result line) is 0 when the
# code is right.
NAMED_METRICS = {
    "setup_s": ("s", None, "setup_s"),
    "train_samples_per_s": ("1/s", "train", "throughput_per_s"),
    "forward_ms_p50": ("ms", "infer-long", "latency_ms_p50"),
    "forward_ms_p90": ("ms", "infer-long", "latency_ms_p90"),
    "eval_samples_per_s": ("1/s", "eval-batch", "throughput_per_s"),
    "stream_steps_per_s": ("1/s", "stream", "throughput_per_s"),
    "peak_rss_mb": ("MB", None, "peak_rss_mb"),
    "fail_frac": ("1", None, "fail_frac"),
}

# Stage name -> (span that owns it, model.mac_breakdown keys it covers).
# One function covers pooling and head, so they are reported as a pair.
STAGES = {
    "projection": ("model.forward_t", ("projection",)),
    "ssm_kernel": ("ssm.kernel_t", ("ssm_kernel",)),
    "ssm_fft": ("ssm.causal_conv_t", ("ssm_fft",)),
    "feedthrough": ("ssm.s4d_apply", ("feedthrough",)),
    "mixer": ("model.glu_t", ("mixer",)),
    "norm": ("model.layer_norm_t", ("norm",)),
    "pooling-head": ("model.classify_t", ("pooling", "head")),
}
STAGE_SPANS = tuple(span for span, _ in STAGES.values())
POINTWISE = ("autodiff.gelu", "autodiff.sigmoid", "autodiff.exp")
STREAM_SPAN = "model.stream_logits"
# Layers with their own metrics; evaluate (microseconds) and cli (dispatch
# only) have none.
MODULES = ("data", "ssm", "autodiff", "model", "training")


def _layer_catalog():
    """name -> (unit, meaning, wrapped spans the value depends on)."""
    cat = {
        "ssm.kernel_s": ("s", "ssm.kernel_t inclusive time per operation", ("ssm.kernel_t",)),
        "ssm.kernel_mac_per_s": (
            "MAC/s", "ssm_kernel MACs (mac_breakdown, per kernel_t call) / kernel_t seconds",
            ("ssm.kernel_t",)),
        "ssm.kernel_table_mb": (
            "MB-computed", "(L, H, N/2) complex128 power table of the largest kernel_t call",
            ("ssm.kernel_t",)),
        "ssm.fft_s": ("s", "ssm.causal_conv_t inclusive time per operation", ("ssm.causal_conv_t",)),
        "ssm.fft_mac_per_s": (
            "MAC/s", "ssm_fft MACs (mac_breakdown, per sequence convolved) / causal_conv_t seconds",
            ("ssm.causal_conv_t",)),
        "ssm.recurrent_step_s": (
            "s", "ssm.recurrent_step time per operation", ("ssm.recurrent_step",)),
        "model.stream_logits_s": (
            "s", "model.stream_logits self time (without recurrent_step, gelu, sigmoid) per operation",
            ("ssm.recurrent_step", "autodiff.gelu", "autodiff.sigmoid")),
        "autodiff.gradients_s": (
            "s", "autodiff.gradients (tape walk and backward) time per operation",
            ("autodiff.gradients",)),
        "training.forward_graph_s": (
            "s", "model.forward_t time with leaves that require gradients, per operation",
            ("model.forward_t",)),
        "autodiff.pointwise_s": ("s", "gelu + sigmoid + exp self time per operation", POINTWISE),
    }
    for stage in STAGES:
        base = f"model.stage.{stage}"
        cat[f"{base}_s"] = (
            "s", f"{stage} stage time per operation (owning span minus nested stage spans)",
            STAGE_SPANS)
        cat[f"{base}_macs"] = (
            "MAC", f"{stage} MACs per operation from mac_breakdown", ("model.forward_t",))
        cat[f"{base}_mac_per_s"] = (
            "MAC/s", f"{stage} MACs / {stage} stage seconds", STAGE_SPANS)
        cat[f"{base}_mb"] = (
            "MB-computed", f"{stage} output plus largest intermediate array per operation",
            ("model.forward_t",))
    for module in MODULES:
        cat[f"{module}.self_s"] = (
            "s", f"self time of all {module} spans per operation",
            tuple(f"{m}.{a}" for m, a in WRAPPED if m == module))
    cat.update({
        "data.load_dataset_s": ("s", "data.load_dataset time per operation", ("data.load_dataset",)),
        "data.values_per_s": (
            "1/s", "TSC-CSV values parsed / data.load_dataset seconds", ("data.load_dataset",)),
        "model.load_checkpoint_s": (
            "s", "model.load_checkpoint time per operation", ("model.load_checkpoint",)),
        "training.adam_s": ("s", "training.adam_step time per operation", ("training.adam_step",)),
        "training.evaluate_s": (
            "s", "training.evaluate (validation passes) time per operation", ("training.evaluate",)),
        "training.steps": ("count", "optimizer steps per operation", ("training.adam_step",)),
        "trace.overhead_ms": (
            "ms", "traced minus untraced latency_ms_p50, both measured in this run", ()),
        "trace.stage_sum_ms": (
            "ms", "median over traced operations of the summed stage times", ("model.forward_t",)),
    })
    return cat


PER_LAYER = _layer_catalog()


def stage_bytes(mdl, batch, length):
    """Computed bytes per forward_t call: each stage's output array plus its
    largest intermediate (float64 8 B, complex128 16 B)."""
    hidden, modes = mdl.n_hidden, mdl.n_state // 2
    padded = 1 << (2 * length - 2).bit_length()
    seq = batch * length * hidden * 8
    return {
        "projection": seq,
        "ssm_kernel": length * hidden * modes * 16 + length * hidden * 8,
        "ssm_fft": seq + batch * padded * hidden * 16,
        "feedthrough": seq,
        "mixer": seq + 2 * seq,
        "norm": seq if mdl.normalized else 0,
        "pooling-head": batch * (hidden + mdl.head_hidden + mdl.n_classes) * 8,
    }


def stage_macs(counts, batch):
    """MACs per stage for one forward_t call on `batch` sequences, from the
    per-sequence `model.mac_breakdown` counts at the call's length.

    The kernel is materialized once per call and serves the whole batch, so
    its count is not multiplied by the batch size.
    """
    out = {}
    for stage, (_, keys) in STAGES.items():
        per_sequence = sum(counts[k] for k in keys)
        out[stage] = per_sequence if stage == "ssm_kernel" else batch * per_sequence
    return out


def _ratio(num, den):
    return float(num) / float(den) if den > 0 else 0.0


def layer_metrics(spans, names, missing, n_ops, mdl, values_per_load, overhead_ms):
    """Per-layer metrics of one traced run: (values, missing metric names).

    `spans` comes from Tracer.spans(); only spans of benchmark operations
    (request >= 0) count. A metric built on a wrapped name listed in
    `missing` is left out and named in the second return value.
    """
    keep = spans["request"] >= 0
    ids = {name: i for i, name in enumerate(names)}

    def mask(name):
        return keep & (spans["name"] == ids.get(name, -1))

    def total_s(name, field="duration"):
        return float(spans[field][mask(name)].sum()) / 1e9

    breakdown = {}

    def counts(length):
        if length not in breakdown:
            breakdown[length] = model_mod.mac_breakdown(mdl, length)
        return breakdown[length]

    n_layers = mdl.n_layers
    out = {}

    k = mask("ssm.kernel_t")
    kernel_macs = sum(counts(int(b))["ssm_kernel"] / n_layers for b in spans["b"][k])
    kernel_s = total_s("ssm.kernel_t")
    out["ssm.kernel_s"] = kernel_s / n_ops
    out["ssm.kernel_mac_per_s"] = _ratio(kernel_macs, kernel_s)
    table = spans["a"][k] * spans["b"][k] * 16
    out["ssm.kernel_table_mb"] = float(table.max()) / 1e6 if table.size else 0.0

    f = mask("ssm.causal_conv_t")
    fft_macs = sum(
        int(a) * counts(int(b))["ssm_fft"] / n_layers for a, b in zip(spans["a"][f], spans["b"][f])
    )
    fft_s = total_s("ssm.causal_conv_t")
    out["ssm.fft_s"] = fft_s / n_ops
    out["ssm.fft_mac_per_s"] = _ratio(fft_macs, fft_s)

    out["ssm.recurrent_step_s"] = total_s("ssm.recurrent_step") / n_ops
    out["model.stream_logits_s"] = total_s(STREAM_SPAN, "self") / n_ops
    out["autodiff.gradients_s"] = total_s("autodiff.gradients") / n_ops
    fwd = mask("model.forward_t")
    graph = fwd & (spans["c"] == 1)
    out["training.forward_graph_s"] = float(spans["duration"][graph].sum()) / 1e9 / n_ops
    out["autodiff.pointwise_s"] = sum(total_s(name, "self") for name in POINTWISE) / n_ops

    times = _stage_times(spans, keep, ids)
    macs = dict.fromkeys(STAGES, 0)
    mbytes = dict.fromkeys(STAGES, 0)
    for a, b in zip(spans["a"][fwd], spans["b"][fwd]):
        for stage, value in stage_macs(counts(int(b)), int(a)).items():
            macs[stage] += value
        for stage, value in stage_bytes(mdl, int(a), int(b)).items():
            mbytes[stage] += value
    for stage in STAGES:
        base = f"model.stage.{stage}"
        out[f"{base}_s"] = times[stage] / n_ops
        out[f"{base}_macs"] = _exact(macs[stage] / n_ops)
        out[f"{base}_mac_per_s"] = _ratio(macs[stage], times[stage])
        out[f"{base}_mb"] = mbytes[stage] / n_ops / 1e6

    for module in MODULES:
        in_module = [i for i, name in enumerate(names) if name.startswith(module + ".")]
        selected = keep & np.isin(spans["name"], in_module)
        out[f"{module}.self_s"] = float(spans["self"][selected].sum()) / 1e9 / n_ops

    load_s = total_s("data.load_dataset")
    out["data.load_dataset_s"] = load_s / n_ops
    out["data.values_per_s"] = _ratio(values_per_load * int(mask("data.load_dataset").sum()), load_s)
    out["model.load_checkpoint_s"] = total_s("model.load_checkpoint") / n_ops
    out["training.adam_s"] = total_s("training.adam_step") / n_ops
    out["training.evaluate_s"] = total_s("training.evaluate") / n_ops
    out["training.steps"] = _exact(int(mask("training.adam_step").sum()) / n_ops)
    out["trace.overhead_ms"] = overhead_ms
    per_request = {}
    for req, dur in zip(spans["request"][fwd], spans["duration"][fwd]):
        per_request[int(req)] = per_request.get(int(req), 0) + int(dur)
    out["trace.stage_sum_ms"] = statistics.median(per_request.values()) / 1e6 if per_request else 0.0

    lost = sorted(m for m, (_, _, src) in PER_LAYER.items() if set(src) & set(missing))
    for name in lost:
        out.pop(name)
    return out, lost


def _exact(value):
    """Counts per operation: an int when the division is exact."""
    return int(value) if float(value).is_integer() else float(value)


def _stage_times(spans, keep, ids):
    """Seconds per stage: each stage span's duration minus the durations of
    the nearest stage spans nested inside it, so stages partition forward_t."""
    stage_of = {ids[span]: stage for stage, (span, _) in STAGES.items() if span in ids}
    out = dict.fromkeys(STAGES, 0.0)
    parent, name, duration = spans["parent"], spans["name"], spans["duration"]
    is_stage = np.isin(name, list(stage_of)) & keep
    for i in np.flatnonzero(is_stage):
        dur = float(duration[i]) / 1e9
        out[stage_of[int(name[i])]] += dur
        p = int(parent[i])
        while p >= 0 and not is_stage[p]:
            p = int(parent[p])
        if p >= 0:
            out[stage_of[int(name[p])]] -= dur
    return out
