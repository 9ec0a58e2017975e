"""The package runs on numpy alone: no scipy module is loaded by importing ms4
or by its forward, training and streaming paths. And every library name that
the benchmark's traced runs wrap still exists."""

import importlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

import ms4

SRC = Path(ms4.__file__).resolve().parents[1]

CHILD = """
import json, sys
import ms4, ms4.cli
from ms4 import data, model, training

ds = data.synth_freq_task(24, 16, seed=0)
mdl = model.init_model(ds.n_features, 8, 8, ds.n_classes, seed=1)
model.forward(ds.x[:2], mdl)
trained, _ = training.train(mdl, ds, training.TrainConfig(max_epochs=1, batch_size=8))
model.stream_logits(trained, ds.x[0])
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_no_scipy_module_is_loaded():
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{CHILD}"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_every_traced_name_is_a_library_callable():
    """bench/tracing.py wraps `ms4.<module>.<attr>` by name, so a refactor that
    renames or drops one breaks traced benchmark runs."""
    tracing = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "tracing.py"))
    for module, attr in tracing["WRAPPED"]:
        assert callable(getattr(importlib.import_module(f"ms4.{module}"), attr, None)), (module, attr)
