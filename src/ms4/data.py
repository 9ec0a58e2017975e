"""Dataset container, bit-exact TSC-CSV storage, splits, synthetic tasks.

TSC-CSV v1 layout (LF line endings, no trailing commas):

    #tsc v1 n=<n> L=<L> F=<F> classes=<n_c>
    label,v(0,0),v(0,1),...,v(0,F-1),v(1,0),...,v(L-1,F-1)
    ...

one data line per sample, values time-major, decimal text at full precision
(floats are written with repr, so save -> load round-trips exactly).
Labels are zero-based on disk and in memory.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataFormatError

_HEADER_RE = re.compile(r"^#tsc v1 n=(\d+) L=(\d+) F=(\d+) classes=(\d+)$")

# Features whose spread is this small relative to their mean are treated as
# dead channels and normalized to zero instead of amplifying rounding noise.
_DEAD_CHANNEL_RTOL = 1e-12


@dataclass
class Dataset:
    """Labeled multivariate sequences: x is (n, L, F), y integer in [0, n_classes)."""

    x: np.ndarray
    y: np.ndarray
    n_classes: int
    feature_mean: np.ndarray | None = None
    feature_std: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 3:
            raise ValueError(f"x must be (n, L, F), got shape {self.x.shape}")
        if self.y.shape != (self.x.shape[0],):
            raise ValueError(f"y shape {self.y.shape} does not match n={self.x.shape[0]}")
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.n_classes):
            raise ValueError("labels must lie in [0, n_classes)")

    @property
    def n_samples(self):
        return self.x.shape[0]

    @property
    def length(self):
        return self.x.shape[1]

    @property
    def n_features(self):
        return self.x.shape[2]

    def take(self, indices):
        return replace(self, x=self.x[indices], y=self.y[indices])


def save_dataset(dataset, path):
    """Write TSC-CSV v1; inverse of load_dataset."""
    n, length, n_feat = dataset.x.shape
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#tsc v1 n={n} L={length} F={n_feat} classes={dataset.n_classes}\n")
        for label, values in zip(dataset.y.tolist(), dataset.x.reshape(n, -1)):
            fh.write(f"{label},{','.join(map(repr, values.tolist()))}\n")


def load_dataset(path):
    """Parse TSC-CSV v1, validating the header against the body.

    Raises DataFormatError naming the offending line for a garbled header,
    a header size below its minimum (n, L, F >= 1; classes >= 2), a row of
    the wrong width, an unparsable or out-of-range label, an unparsable or
    non-finite value, or a body whose sample count disagrees with the header,
    and naming the file for bytes that are not UTF-8.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataFormatError(f"{path}:1: empty file, expected '#tsc v1' header")
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise DataFormatError(f"{path}:1: malformed header {lines[0]!r}")
    n, length, n_feat, n_classes = (int(g) for g in m.groups())
    for name, value, least in (("n", n, 1), ("L", length, 1), ("F", n_feat, 1),
                               ("classes", n_classes, 2)):
        if value < least:
            raise DataFormatError(f"{path}:1: header {name}={value} is below {least}")
    if len(lines) - 1 != n:
        raise DataFormatError(
            f"{path}: header declares n={n} but body has {len(lines) - 1} data lines"
        )
    # Every row's width is checked before anything sized by the header is allocated.
    width = 1 + length * n_feat
    for i, line in enumerate(lines[1:], start=2):
        if line.count(",") != width - 1:
            raise DataFormatError(
                f"{path}:{i}: expected {width} comma-separated fields, got {line.count(',') + 1}"
            )
    x = np.empty((n, length, n_feat))
    y = np.empty(n, dtype=np.int64)
    for i, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        try:
            label = int(fields[0])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{i}: label {fields[0]!r} is not an integer") from exc
        if not 0 <= label < n_classes:
            raise DataFormatError(
                f"{path}:{i}: label {label} outside declared range [0, {n_classes})"
            )
        try:
            row = np.array(fields[1:], dtype=float)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{i}: unparsable value: {exc}") from exc
        if not np.isfinite(row).all():
            bad = fields[1 + np.flatnonzero(~np.isfinite(row))[0]]
            raise DataFormatError(f"{path}:{i}: non-finite value {bad!r}")
        x[i - 2] = row.reshape(length, n_feat)
        y[i - 2] = label
    return Dataset(x=x, y=y, n_classes=n_classes)


def synth_freq_task(n, length, f_low=0.05, f_high=0.125, noise_std=0.1, seed=0, n_features=1):
    """Two-class frequency discrimination: unit sinusoids at f_low vs f_high.

    Each sample gets a random phase; features beyond the first are copies
    shifted by pi*j/n_features. Additive Gaussian noise, balanced labels
    (exactly n/2 per class), sample order shuffled by the same generator.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be a positive even integer, got {n}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if not (0.0 < f_low < f_high < 0.5):
        raise ValueError(f"need 0 < f_low < f_high < 0.5, got {f_low}, {f_high}")
    if not 0.0 <= noise_std < np.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    if n_features < 1:
        raise ValueError(f"n_features must be >= 1, got {n_features}")
    rng = np.random.default_rng(seed)
    freqs = np.where(np.arange(n) < n // 2, f_low, f_high)
    labels = (np.arange(n) >= n // 2).astype(np.int64)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    t = np.arange(length)
    offsets = np.pi * np.arange(n_features) / n_features
    angle = (
        2.0 * np.pi * freqs[:, None, None] * t[None, :, None]
        + phases[:, None, None]
        + offsets[None, None, :]
    )
    x = np.sin(angle)
    if noise_std > 0.0:
        x = x + rng.normal(0.0, noise_std, size=x.shape)
    perm = rng.permutation(n)
    return Dataset(x=x[perm], y=labels[perm], n_classes=2)


def split(dataset, fraction, seed):
    """Disjoint seeded (train, val) split with `fraction` going to validation.

    Stratified by label whenever every class has at least two samples,
    uniform otherwise. Within each side the original sample order is kept.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    n = dataset.n_samples
    rng = np.random.default_rng(seed)
    counts = np.bincount(dataset.y, minlength=dataset.n_classes)
    present = counts[counts > 0]
    val_idx = []
    if present.size and present.min() >= 2:
        for cls in range(dataset.n_classes):
            members = np.flatnonzero(dataset.y == cls)
            if members.size == 0:
                continue
            k = int(np.floor(members.size * fraction + 0.5))
            chosen = rng.permutation(members.size)[:k]
            val_idx.extend(members[chosen])
    else:
        k = int(np.floor(n * fraction + 0.5))
        val_idx.extend(rng.permutation(n)[:k])
    val_mask = np.zeros(n, dtype=bool)
    val_mask[np.asarray(val_idx, dtype=np.int64)] = True
    n_val = int(val_mask.sum())
    if n_val == 0 or n_val == n:
        raise ValueError(
            f"fraction {fraction} leaves an empty side for n={n} (val size {n_val})"
        )
    return dataset.take(np.flatnonzero(~val_mask)), dataset.take(np.flatnonzero(val_mask))


def normalize(train, *others):
    """Z-normalize per feature with statistics from `train` only.

    The same (mean, std) computed on the training portion is applied to every
    dataset passed, so no validation/test statistics ever leak in. Features
    with (near-)zero variance map to zero. Returns the datasets in argument
    order, each carrying the statistics used.
    """
    mean = train.x.mean(axis=(0, 1))
    std = train.x.std(axis=(0, 1))
    dead = std <= _DEAD_CHANNEL_RTOL * np.maximum(1.0, np.abs(mean))
    inv = np.where(dead, 0.0, 1.0 / np.where(dead, 1.0, std))

    def apply(ds):
        return replace(ds, x=(ds.x - mean) * inv, feature_mean=mean.copy(), feature_std=std.copy())

    return tuple(apply(ds) for ds in (train, *others))
