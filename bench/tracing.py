"""Span tracing for the benchmark's traced runs.

`Tracer.install` replaces library functions with wrappers that record one
span per call: name, start, end, parent span and request id (the benchmark
operation the call belongs to). Because the library calls these functions
through module attributes, calls made inside `training.train` and
`model.forward` are caught too. `Tracer.uninstall` puts the originals back.
Spans stay in memory (integer nanoseconds in flat arrays) until the run ends.

Untraced runs never import this module's wrappers into the library, so the
end-to-end figures do not depend on the names listed in `WRAPPED`.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

import numpy as np

# (module, attribute) pairs wrapped in a traced run; span name "module.attribute".
WRAPPED = (
    ("ssm", "kernel_t"),
    ("ssm", "causal_conv_t"),
    ("ssm", "s4d_apply"),
    ("ssm", "recurrent_step"),
    ("model", "forward_t"),
    ("model", "glu_t"),
    ("model", "layer_norm_t"),
    ("model", "classify_t"),
    ("autodiff", "gradients"),
    ("autodiff", "gelu"),
    ("autodiff", "sigmoid"),
    ("autodiff", "exp"),
    ("training", "adam_step"),
    ("training", "evaluate"),
    ("data", "load_dataset"),
    ("model", "load_checkpoint"),
)


def _shape_kernel(bound):
    """kernel_t(p, length): a = H * N/2 modes, b = L."""
    return int(np.prod(bound["p"]["log_a_real"].shape)), int(bound["length"]), 0


def _shape_conv(bound):
    """causal_conv_t(x, kernel) on (..., L, H): a = sequences, b = L, c = H."""
    shape = bound["x"].shape
    return int(np.prod(shape[:-2])), int(shape[-2]), int(shape[-1])


def _shape_forward(bound):
    """forward_t(x, leaves, ...) on (B, L, F): a = B, b = L, c = 1 if it builds a tape."""
    shape = bound["x"].shape
    graph = any(t.requires_grad for t in bound["leaves"].values())
    return int(shape[0]), int(shape[1]), int(graph)


# Span attributes (a, b, c) recorded from a call's arguments, for the
# analytic work counts of the traced layers.
SHAPES = {
    "ssm.kernel_t": _shape_kernel,
    "ssm.causal_conv_t": _shape_conv,
    "model.forward_t": _shape_forward,
}


class Tracer:
    """In-memory span recorder; one instance per traced run, single thread."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.parent = array("q")
        self.name = array("q")
        self.request = array("q")
        self.attrs = {}  # span index -> (a, b, c) from SHAPES
        self.start = array("q")
        self.end = array("q")
        self.current_request = -1
        self.missing = []
        self._stack = []
        self._installed = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name` (the benchmark's own call sites)."""
        return self._wrap(fn, name)(*args, **kwargs)

    def _wrap(self, fn, name):
        name_id = self.name_id(name)
        shape = SHAPES.get(name)
        signature = inspect.signature(fn) if shape else None
        parent, names, request, start, end = self.parent, self.name, self.request, self.start, self.end
        stack, attrs, clock = self._stack, self.attrs, time.perf_counter_ns

        # The span bookkeeping is inlined: in the stream workload this
        # wrapper runs several thousand times per operation.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            if shape:
                attrs[index] = shape(signature.bind(*args, **kwargs).arguments)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            request.append(self.current_request)
            end.append(-1)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def install(self, modules):
        """Wrap every WRAPPED attribute of `modules` (short name -> module).

        A name that does not exist is recorded in `missing`, so the metrics
        built on it are reported as missing rather than as zero.
        """
        for module_name, attr in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, f"{module_name}.{attr}"))
            self._installed.append((module, attr, original))

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def spans(self):
        """Finished spans as numpy arrays, with duration and self time in ns.

        A span's self time is its duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        """
        out = {
            field: np.frombuffer(getattr(self, field), dtype=np.int64).copy()
            for field in ("parent", "name", "request", "start", "end")
        }
        abc = np.zeros((3, len(self.start)), dtype=np.int64)
        for index, values in self.attrs.items():
            abc[:, index] = values
        out["a"], out["b"], out["c"] = abc
        out["duration"] = out["end"] - out["start"]
        children = np.zeros_like(out["duration"])
        has_parent = out["parent"] >= 0
        np.add.at(children, out["parent"][has_parent], out["duration"][has_parent])
        out["self"] = out["duration"] - children
        return out

    def save(self, path, environment):
        """Write the spans and the environment record as one .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            environment=np.array(json.dumps(environment, sort_keys=True)),
            **self.spans(),
        )
