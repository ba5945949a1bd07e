"""Dataset container, file formats and seeded synthetic generators.

Generators draw from splitmix64 (constants below), whose i-th output is a
fixed mix of seed + i * gamma, so identical seeds reproduce identical
datasets on any platform.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ParseError, reads_file

# every operand is a uint64 so the arithmetic wraps mod 2**64 under any
# NumPy casting rules
_MASK64 = (1 << 64) - 1
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, count: int) -> np.ndarray:
    """The first ``count`` splitmix64 outputs for ``seed``, as uint64.

    Output i (counting from 1) mixes seed + i * gamma mod 2**64.
    """
    u = np.uint64
    z = u(seed & _MASK64) + np.arange(1, count + 1, dtype=u) * _SM64_GAMMA
    z = (z ^ (z >> u(30))) * _SM64_MIX1
    z = (z ^ (z >> u(27))) * _SM64_MIX2
    return z ^ (z >> u(31))


@dataclass(frozen=True)
class Dataset:
    """Immutable labeled samples: features (n, d), labels in {-1, +1}.

    ``subset_flags`` marks the secondary subset (True = B) for the
    combined-sets booster; None when the split is unused.
    """

    features: np.ndarray
    labels: np.ndarray
    subset_flags: np.ndarray | None = field(default=None)

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        a = np.asarray(self.labels, dtype=float)
        if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] < 1:
            raise ConfigurationError("features must be a nonempty (n, d) matrix")
        if a.shape != (f.shape[0],):
            raise ConfigurationError("labels must match the number of rows")
        if not np.all(np.isfinite(f)):
            raise ConfigurationError("features contain NaN or Inf")
        if not np.all(np.isin(a, (-1.0, 1.0))):
            raise ConfigurationError("labels must be -1 or +1")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", a)
        if self.subset_flags is not None:
            s = np.asarray(self.subset_flags, dtype=bool)
            if s.shape != (f.shape[0],):
                raise ConfigurationError("subset flags must match the number of rows")
            object.__setattr__(self, "subset_flags", s)
        f.setflags(write=False)
        a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def _map_label(raw: str, line: int) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ParseError(f"non-numeric label {raw!r}", line) from None
    if v in (-1.0, 1.0):
        return v
    if v == 0.0:
        return -1.0
    raise ParseError(f"label must be -1, 0 or +1, got {raw!r}", line)


@reads_file
def load_csv(path: str, label_column: str = "label", subset_column: str | None = None) -> Dataset:
    """Load a numeric CSV with a header row.

    Label values may be {-1, +1} or {0, 1} (0 maps to -1). The optional
    subset column holds 'A' / 'B' markers. NumPy's C parser reads the rows;
    a file it rejects goes to the row loop, the only source of parse errors.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = [c.strip() for c in next(csv.reader(fh), [])]
            label_idx = header.index(label_column)
            subset_idx = None if subset_column is None else header.index(subset_column)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                table = np.loadtxt(
                    _lines_without_separators(fh), delimiter=",", quotechar='"', comments=None,
                    ndmin=2, converters={} if subset_idx is None else {subset_idx: _subset_bit},
                )
        except (ValueError, csv.Error):  # a missing column, or a cell or row the C parser rejects
            return _load_csv_rows(path, label_column, subset_column)
    # loadtxt takes its width from the first row, not from the header, and
    # would read a subset column that is also the label column as 0/1 labels
    if not len(table) or table.shape[1] != len(header) or subset_idx == label_idx:
        return _load_csv_rows(path, label_column, subset_column)
    labels = table[:, label_idx]
    if not np.isin(labels, (-1.0, 0.0, 1.0)).all():
        return _load_csv_rows(path, label_column, subset_column)
    keep = [i for i in range(len(header)) if i not in (label_idx, subset_idx)]
    flags = None if subset_idx is None else table[:, subset_idx] == 1.0
    labels = np.where(labels == 0.0, -1.0, labels)
    return Dataset(np.ascontiguousarray(table[:, keep]), labels, flags)


def _lines_without_separators(fh):
    # NumPy's float parser strips U+001C..U+001F as whitespace and float() does
    # not, so a line holding one is left to the row loop
    for line in fh:
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("ASCII separator")
        yield line


def _subset_bit(cell: str) -> int:
    return ("A", "B").index(cell.strip())  # ValueError for any other marker


def _csv_rows(fh):
    """csv.reader rows; a csv.Error, such as a cell over the field size
    limit, becomes a ParseError at the reader's line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(str(exc), reader.line_num) from None


def _load_csv_rows(path: str, label_column: str, subset_column: str | None) -> Dataset:
    """``load_csv`` one row and one ``float()`` per cell at a time."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv_rows(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", 1) from None
        header = [c.strip() for c in header]
        if label_column not in header:
            raise ParseError(f"missing label column {label_column!r}", 1)
        label_idx = header.index(label_column)
        subset_idx = None
        if subset_column is not None:
            if subset_column not in header:
                raise ParseError(f"missing subset column {subset_column!r}", 1)
            subset_idx = header.index(subset_column)
        feature_idx = [
            i for i in range(len(header)) if i not in (label_idx, subset_idx)
        ]

        rows, labels, flags = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} cells, got {len(row)}", lineno
                )
            labels.append(_map_label(row[label_idx].strip(), lineno))
            if subset_idx is not None:
                marker = row[subset_idx].strip()
                if marker not in ("A", "B"):
                    raise ParseError(f"subset marker must be A or B, got {marker!r}", lineno)
                flags.append(marker == "B")
            vals = []
            for i in feature_idx:
                try:
                    vals.append(float(row[i]))
                except ValueError:
                    raise ParseError(f"non-numeric cell {row[i]!r}", lineno) from None
            rows.append(vals)
    if not rows:
        raise ParseError("no data rows", 2)
    return Dataset(
        np.array(rows), np.array(labels),
        np.array(flags) if flags else None,
    )


def save_csv(dataset: Dataset, path: str) -> None:
    """Write a dataset in the load_csv format (repr floats, lossless round-trip)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        cols = ["label"] + [f"f{i}" for i in range(dataset.d)]
        if dataset.subset_flags is not None:
            cols.append("subset")
        writer.writerow(cols)
        for i in range(dataset.n):
            row = [repr(int(dataset.labels[i]))] + [repr(float(v)) for v in dataset.features[i]]
            if dataset.subset_flags is not None:
                row.append("B" if dataset.subset_flags[i] else "A")
            writer.writerow(row)


@reads_file
def load_libsvm(path: str) -> Dataset:
    """Load the sparse LIBSVM text format: ``<label> idx:value ...`` (1-based)."""
    labels, entries = [], []
    max_idx = max_line = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            labels.append(_map_label(tokens[0], lineno))
            row = {}
            for tok in tokens[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise ParseError(f"malformed token {tok!r}", lineno) from None
                if idx < 1:
                    raise ParseError(f"feature index must be >= 1, got {idx}", lineno)
                row[idx - 1] = val
                if idx > max_idx:
                    max_idx, max_line = idx, lineno
            entries.append(row)
    if not labels:
        raise ParseError("no data lines", 1)
    memory = _memory_bytes()
    if 8 * len(labels) * max_idx > memory:  # refuse before allocating the dense matrix
        raise ParseError(
            f"feature index {max_idx} needs a dense {len(labels)} x {max_idx} matrix, "
            f"more than the {memory / 2**30:.3g} GiB of memory",
            max_line,
        )
    features = np.zeros((len(labels), max(max_idx, 1)))
    for i, row in enumerate(entries):
        for j, v in row.items():
            features[i, j] = v
    return Dataset(features, np.array(labels))


def _memory_bytes() -> float:
    """Physical memory in bytes, or inf where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


DEFAULT_MARGIN = 0.5


def gen_blobs(seed: int, n: int, margin: float) -> Dataset:
    """Two axis-aligned 2-D box clusters separated by 2*margin along axis 0.

    The first n/2 samples are positive with x0 in [margin, margin + 1]; the
    second half are negative with x0 in [-margin - 1, -margin]. A stump at
    threshold 0 on feature 0 separates the classes perfectly.
    """
    if n < 2 or n % 2:
        raise ConfigurationError("n must be even and >= 2")
    if not 0 < margin < math.inf:
        raise ConfigurationError(f"margin must be positive and finite, got {margin}")
    memory = _memory_bytes()
    if 32 * n > memory:  # 2n uint64 draws and n x 2 features, refused before allocating
        raise ConfigurationError(
            f"n = {n} samples need {32 * n / 2**30:.3g} GiB, "
            f"more than the {memory / 2**30:.3g} GiB of memory"
        )
    u = ((splitmix64(seed, 2 * n) >> np.uint64(11)) / float(1 << 53)).reshape(n, 2)
    sign = np.where(np.arange(n) < n // 2, 1.0, -1.0)
    features = np.column_stack([sign * (margin + u[:, 0]), 2.0 * u[:, 1] - 1.0])
    return Dataset(features, sign)


def gen_noisy(seed: int, n: int, flip_rate: float) -> Dataset:
    """gen_blobs with the default margin and a seeded fraction of flipped labels."""
    if not 0.0 <= flip_rate < 0.5:
        raise ConfigurationError("flip_rate must be in [0, 0.5)")
    base = gen_blobs(seed, n, DEFAULT_MARGIN)
    n_flip = int(round(flip_rate * n))
    if n_flip == 0:
        return base
    labels = base.labels.copy()
    # partial Fisher-Yates: step i swaps i with a uniform pick from [i, n)
    picks = splitmix64(seed ^ 0xA5A5A5A5A5A5A5A5, n_flip) % np.arange(
        n, n - n_flip, -1, dtype=np.uint64
    )
    idx = np.arange(n)
    for i, j in enumerate(picks.tolist()):
        idx[i], idx[i + j] = idx[i + j], idx[i]
    labels[idx[:n_flip]] *= -1.0
    return Dataset(base.features, labels)


def gen_combined(seed: int, n_clean: int, n_noisy: int, flip_rate: float) -> Dataset:
    """A clean subset A stacked with a label-noised subset B, flags set."""
    clean = gen_blobs(seed, n_clean, DEFAULT_MARGIN)
    noisy = gen_noisy(seed + 1, n_noisy, flip_rate)
    features = np.vstack([clean.features, noisy.features])
    labels = np.concatenate([clean.labels, noisy.labels])
    flags = np.concatenate([np.zeros(n_clean, bool), np.ones(n_noisy, bool)])
    return Dataset(features, labels, flags)
