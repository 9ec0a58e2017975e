"""Benchmark evaluation: error, tie-averaged ranks, fold STD, summaries.

Error matrices are models x datasets. Ranks are assigned per dataset by
ascending error with ties receiving the mean of the tied positions, then
averaged across datasets per model (rank 1 = best). Fold standard deviation
uses the n-1 divisor. Two published error/STD tables ship as CSV fixtures
("monster", "uea") for regression checks against their column means.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import DataFormatError


@dataclass
class EvalTable:
    """Named error matrix; `stds` is an optional matching fold-STD matrix."""

    models: list
    datasets: list
    errors: np.ndarray
    stds: np.ndarray | None = None

    def __post_init__(self):
        self.errors = np.asarray(self.errors, dtype=float)
        expected = (len(self.models), len(self.datasets))
        if self.errors.shape != expected:
            raise ValueError(f"error matrix {self.errors.shape} does not match names {expected}")
        finite = self.errors[np.isfinite(self.errors)]
        if finite.size and (finite.min() < 0.0 or finite.max() > 1.0):
            raise ValueError("error rates must lie in [0, 1]")
        if self.stds is not None:
            self.stds = np.asarray(self.stds, dtype=float)
            if self.stds.shape != expected:
                raise ValueError(f"std matrix {self.stds.shape} does not match names {expected}")

    def row(self, model):
        return self.errors[self.models.index(model)]

    def subset(self, models):
        idx = [self.models.index(m) for m in models]
        return EvalTable(
            models=list(models),
            datasets=list(self.datasets),
            errors=self.errors[idx],
            stds=None if self.stds is None else self.stds[idx],
        )


def misclassification_error(predictions, labels):
    """Fraction of disagreeing entries, i.e. 1 - accuracy."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape or predictions.size == 0:
        raise ValueError(
            f"predictions {predictions.shape} and labels {labels.shape} must match and be non-empty"
        )
    return float((predictions != labels).mean())


def _tie_averaged_ranks(values):
    """Ascending ranks starting at 1; tied values share the mean position."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def average_rank(table):
    """Per-model mean rank across datasets (rank 1 = lowest error)."""
    if not np.isfinite(table.errors).all():
        raise ValueError("rank computation requires a complete error matrix")
    per_dataset = np.stack(
        [_tie_averaged_ranks(table.errors[:, j]) for j in range(len(table.datasets))],
        axis=1,
    )
    return per_dataset.mean(axis=1)


def fold_std(errors_per_fold):
    """Sample standard deviation (divisor n-1) across fold errors."""
    errors_per_fold = np.asarray(errors_per_fold, dtype=float)
    if errors_per_fold.ndim != 1 or errors_per_fold.size < 2:
        raise ValueError("fold STD needs at least two folds")
    if np.ptp(errors_per_fold) == 0.0:
        return 0.0  # exact, avoiding mean-subtraction residue
    return float(errors_per_fold.std(ddof=1))


def summarize(table):
    """Per-model report rows: mean error, mean rank and mean STD (None without stds)."""
    ranks = average_rank(table)
    rows = []
    for i, name in enumerate(table.models):
        rows.append(
            {
                "model": name,
                "mean_error": float(table.errors[i].mean()),
                "mean_rank": float(ranks[i]),
                "mean_std": None if table.stds is None else float(table.stds[i].mean()),
            }
        )
    return rows


# -- CSV interchange -----------------------------------------------------------
# Matrix CSV: header row = dataset names (first cell "model"), one row per
# model. Summary CSV: model, mean_error, mean_rank, mean_std.


def read_error_matrix(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataFormatError(f"{path}: not a readable CSV matrix: {exc}") from exc
    if not rows or len(rows[0]) < 2 or rows[0][0] != "model":
        raise DataFormatError(f"{path}:1: expected header 'model,<dataset>,...'")
    datasets = rows[0][1:]
    for j, name in enumerate(datasets):
        if name in datasets[:j]:
            raise DataFormatError(f"{path}:1: column {j + 2} repeats dataset {name!r}")
    models = []
    values = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(datasets) + 1:
            raise DataFormatError(f"{path}:{i}: expected {len(datasets) + 1} cells, got {len(row)}")
        if row[0] in models:
            raise DataFormatError(f"{path}:{i}: column 1 repeats model {row[0]!r}")
        models.append(row[0])
        try:
            values.append([float(v) for v in row[1:]])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{i}: unparsable value: {exc}") from exc
        for j, value in enumerate(values[-1]):
            if not np.isfinite(value):
                raise DataFormatError(
                    f"{path}:{i}: column {j + 2} ({datasets[j]!r}) holds non-finite {row[j + 1]!r}"
                )
    if not models:
        raise DataFormatError(f"{path}: matrix has no model rows")
    try:
        return EvalTable(models=models, datasets=datasets, errors=np.array(values))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def write_error_matrix(table, path, matrix=None):
    matrix = table.errors if matrix is None else matrix
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("model," + ",".join(table.datasets) + "\n")
        for name, row in zip(table.models, matrix):
            fh.write(name + "," + ",".join(repr(float(v)) for v in row) + "\n")


def write_summary_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("model,mean_error,mean_rank,mean_std\n")
        for row in rows:
            std = "" if row["mean_std"] is None else repr(row["mean_std"])
            fh.write(f"{row['model']},{row['mean_error']!r},{row['mean_rank']!r},{std}\n")


def load_fixture(name):
    """Bundled published error/STD tables: name is 'monster' or 'uea'."""
    base = resources.files("ms4").joinpath("fixtures")
    err_path = base.joinpath(f"{name}_errors.csv")
    std_path = base.joinpath(f"{name}_stds.csv")
    if not err_path.is_file():
        raise ValueError(f"unknown fixture {name!r}; expected 'monster' or 'uea'")
    table = read_error_matrix(str(err_path))
    stds = read_error_matrix(str(std_path))
    if stds.models != table.models or stds.datasets != table.datasets:
        raise DataFormatError(f"fixture {name}: error and std tables disagree on names")
    table.stds = stds.errors
    return table
