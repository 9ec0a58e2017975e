"""Dataset container, bit-exact TSC-CSV storage, splits, synthetic tasks.

TSC-CSV v1 layout (LF line endings, no trailing commas):

    #tsc v1 n=<n> L=<L> F=<F> classes=<n_c>
    label,v(0,0),v(0,1),...,v(0,F-1),v(1,0),...,v(L-1,F-1)
    ...

one data line per sample, values time-major, ASCII decimal text at full
precision (floats are written with repr, so save -> load round-trips
exactly). Labels are zero-based on disk and in memory. The reader also
splits CRLF and CR lines, and reads a file one line at a time into
preallocated blocks (iter_dataset; load_dataset is its single block).
"""

from __future__ import annotations

import operator
import os
import re
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataFormatError

_HEADER_RE = re.compile(r"^#tsc v1 n=(\d+) L=(\d+) F=(\d+) classes=(\d+)$", re.ASCII)


@dataclass
class Dataset:
    """Labeled multivariate sequences: x is (n, L, F), y integer in [0, n_classes)."""

    x: np.ndarray
    y: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y)
        if self.x.ndim != 3:
            raise ValueError(f"x must be (n, L, F), got shape {self.x.shape}")
        if y.shape != (self.x.shape[0],):
            raise ValueError(f"y shape {y.shape} does not match n={self.x.shape[0]}")
        try:
            valid = operator.index(self.n_classes) >= 2
        except TypeError:  # a float, or anything else that is not an integer
            valid = False
        if not valid:
            raise ValueError(f"n_classes={self.n_classes} must be an integer >= 2")
        if y.dtype.kind == "f":  # a cast to int64 would truncate 1.7 to 1
            bad = np.flatnonzero(~np.isfinite(y) | (np.trunc(y) != y))
            if bad.size:
                raise ValueError(f"label {bad[0]} is {y[bad[0]]}, not a whole number")
        self.y = y.astype(np.int64, copy=False)
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
    """Write TSC-CSV v1; inverse of load_dataset. A non-finite value, which no
    reader accepts, raises ValueError naming it before the file is opened."""
    n, length, n_feat = dataset.x.shape
    bad = np.argwhere(~np.isfinite(dataset.x))
    if len(bad):
        i, k, f = bad[0]
        raise ValueError(f"sample {i}, step {k}, feature {f}: non-finite value "
                         f"{dataset.x[i, k, f]}; TSC-CSV holds finite values only")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#tsc v1 n={n} L={length} F={n_feat} classes={dataset.n_classes}\n")
        for label, values in zip(dataset.y.tolist(), dataset.x.reshape(n, -1)):
            fh.write(f"{label},{','.join(map(repr, values.tolist()))}\n")


def _lines(fh, path):
    """The lines of text-mode file `fh` without their newlines, first the header.

    `fh` is opened with errors="surrogateescape", so a byte that is not UTF-8
    reads as a lone surrogate, which strict encoding rejects: DataFormatError
    naming its line and the byte column, raised when that line is read.
    """
    for i, line in enumerate(fh, 1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                column = len(line[:exc.start].encode("utf-8", "surrogateescape")) + 1
                raise DataFormatError(
                    f"{path}:{i}: not UTF-8 text: byte 0x{byte:02x} in column {column}"
                ) from None
        yield line.rstrip("\n")


def _header(line, path):
    """(n, L, F, classes) of a header line; DataFormatError if it is garbled or too small."""
    if line is None:
        raise DataFormatError(f"{path}:1: empty file, expected '#tsc v1' header")
    m = _HEADER_RE.match(line)
    if m is None:
        raise DataFormatError(f"{path}:1: malformed header {line!r}")
    try:
        sizes = tuple(int(g) for g in m.groups())
    except ValueError as exc:  # more digits than int converts
        raise DataFormatError(f"{path}:1: malformed header: {exc}") from None
    for name, value, least in zip(("n", "L", "F", "classes"), sizes, (1, 1, 1, 2)):
        if value < least:
            raise DataFormatError(f"{path}:1: header {name}={value} is below {least}")
    return sizes


def _parse_line(line, i, path, width, n_classes):
    """(label, values) of data line number i, values its 1-D float row.

    The width is checked first, so the row allocated is backed by the line's
    text. A field that int or float reads but that is not plain ASCII decimal
    text is checked last, so every other fault on the line is named first.
    """
    if line.count(",") != width - 1:
        raise DataFormatError(
            f"{path}:{i}: expected {width} comma-separated fields, got {line.count(',') + 1}"
        )
    fields = line.split(",")
    try:
        label = int(fields[0])
    except ValueError as exc:
        raise DataFormatError(f"{path}:{i}: label {fields[0]!r} is not an integer") from exc
    if not 0 <= label < n_classes:
        raise DataFormatError(f"{path}:{i}: label {label} outside declared range [0, {n_classes})")
    try:
        row = np.array(fields[1:], dtype=float)
    except ValueError as exc:
        raise DataFormatError(f"{path}:{i}: unparsable value: {exc}") from exc
    if not np.isfinite(row).all():
        bad = fields[1 + np.flatnonzero(~np.isfinite(row))[0]]
        raise DataFormatError(f"{path}:{i}: non-finite value {bad!r}")
    if "_" in line or not line.isascii():  # int and float read "1_0" and "١" as numbers
        bad = next(f for f in fields if "_" in f or not f.isascii())
        raise DataFormatError(f"{path}:{i}: field {bad!r} holds '_' or a non-ASCII character")
    return label, row


def _grown(x, y, filled, size, features):
    """(size, features) values and (size,) labels that start with x[:filled], y[:filled]."""
    values, labels = np.empty((size, features)), np.empty(size, dtype=np.int64)
    if filled:
        values[:filled], labels[:filled] = x[:filled], y[:filled]
    return values, labels


def iter_dataset(path, rows):
    """Read TSC-CSV v1 as validated Dataset blocks of `rows` samples, in file order.

    `rows` is a count, or a function of the header's L that returns one, so
    that a reader can size blocks by sequence length. The last block holds
    what is left. Each line is checked as it is read and written into
    its block, so the fault raised is the one on the first faulty line
    whatever `rows` is. A block is yielded when full, the file's last one
    after the count check; lines past n are counted but not parsed. A valid
    row takes at least 2*(1 + L*F) bytes with its newline, so a block the
    file's size backs is allocated whole, and any other (a pipe has size 0)
    starts at one row and doubles. The last block is dropped before the next
    is allocated.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = _lines(fh, path)
        n, length, n_feat, n_classes = _header(next(lines, None), path)
        if callable(rows):
            rows = rows(length)
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        width = 1 + length * n_feat
        backed = os.fstat(fh.fileno()).st_size >= 2 * width * n
        count = j = size = 0
        for count, line in enumerate(lines, 1):
            if count > n:
                continue
            label, row = _parse_line(line, count + 1, path, width, n_classes)
            if j == size:  # the first line of a block
                x = y = None  # not held while the next block is allocated
                j, size = 0, min(rows, n + 1 - count)
            if j == 0 or j == len(x):
                x, y = _grown(x, y, j, size if backed else min(size, 2 * j or 1), width - 1)
            x[j], y[j] = row, label
            j += 1
            if j == size and count < n:
                yield Dataset(x.reshape(-1, length, n_feat), y, n_classes)
    if count != n:
        raise DataFormatError(f"{path}: header declares n={n} but body has {count} data lines")
    yield Dataset(x.reshape(-1, length, n_feat), y, n_classes)


def load_dataset(path):
    """Parse TSC-CSV v1, validating the header against the body: the one block
    of iter_dataset with rows >= n, so x and one line are all that is held
    when the file's size backs x.

    Raises DataFormatError naming the offending line for bytes that are not
    UTF-8 (with their byte column), a garbled header, a header size below its
    minimum (n, L, F >= 1; classes >= 2), a row of the wrong width, an
    unparsable or out-of-range label, an unparsable or non-finite value, or a
    field holding '_' or a non-ASCII character, and naming the file, after
    the last line, for a body whose sample count disagrees with the header.
    The first faulty line is the one named.
    """
    (dataset,) = iter_dataset(path, sys.maxsize)
    return dataset


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
