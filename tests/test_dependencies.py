"""The package runs on numpy alone: no scipy module is loaded by importing ms4
or by its forward, training and streaming paths. And every library name that
the benchmark calls, its traced runs wrap or the README cites still exists."""

import ast
import importlib
import json
import re
import runpy
import subprocess
import sys
from pathlib import Path

import ms4

SRC = Path(ms4.__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parents[1] / "bench"
README = Path(__file__).resolve().parents[1] / "README.md"

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
    tracing = runpy.run_path(str(BENCH / "tracing.py"))
    for module, attr in tracing["WRAPPED"]:
        assert callable(getattr(importlib.import_module(f"ms4.{module}"), attr, None)), (module, attr)


def bench_library_names(paths):
    """Every `(module, attr)` that the sources read as `<name>.<attr>` on a name
    bound by `from ms4 import <module> [as <name>]`; parsed, never imported."""
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "ms4"
                   for alias in node.names}
        names.update((modules[node.value.id], node.attr) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in modules)
    return names


def test_every_bench_library_name_exists():
    """The benchmark calls the library by name (`model.predict`, `data.split`, ...),
    so a refactor that renames or deletes one breaks the benchmark unnoticed."""
    names = bench_library_names(sorted(BENCH.glob("*.py")))
    assert ("model", "predict") in names and ("training", "TrainConfig") in names
    missing = [(module, attr) for module, attr in sorted(names)
               if not hasattr(importlib.import_module(f"ms4.{module}"), attr)]
    assert missing == []


def readme_library_names(text):
    """Every `(module, dotted attr)` that starts a backticked span of `text` as
    `<module>.<attr>[.<attr>...]`, for a module of the package."""
    modules = "model|ssm|data|training|autodiff|evaluate|cli"
    return {(m[1], m[2]) for span in re.findall(r"`([^`\n]+)`", text)
            if (m := re.match(rf"({modules})\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", span))}


def test_every_readme_library_name_exists():
    """The README cites the library by name (`model.batch_logits`, `ssm.chunk_scan(...)`,
    `model.memo.cache_clear()`), so a rename that misses it leaves the docs stale."""
    names = readme_library_names(README.read_text(encoding="utf-8"))
    assert ("model", "memo.cache_clear") in names and ("ssm", "chunk_scan") in names
    absent, missing = object(), []
    for module, dotted in sorted(names):
        owner = importlib.import_module(f"ms4.{module}")
        for attr in dotted.split("."):
            owner = getattr(owner, attr, absent)
        if owner is absent:
            missing.append(f"{module}.{dotted}")
    assert missing == []
