"""Dataset container, file formats and seeded synthetic generators.

Generators draw from splitmix64 (constants below), whose i-th output is a
fixed mix of seed + i * gamma, so identical seeds reproduce identical
datasets on any platform.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ParseError, opens_file, shown
from .stumps import StumpIndex

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
    combined-sets booster; None when the split is unused. Flags must be
    booleans or the numbers 0 and 1.

    Each array is frozen (made read-only) on construction, and copied
    first unless it owns its data, so that no writeable view of another
    array reaches it. ``boosting.run`` refuses a dataset whose features
    were made writeable again; one frozen again after a write is not
    detected, and neither is a write through a view taken of the array
    before it was passed in. ``stump_index``, the presort of the features,
    is built on first use and kept for the dataset's life, so every run on
    the dataset after the first skips the sort.
    """

    features: np.ndarray
    labels: np.ndarray
    subset_flags: np.ndarray | None = field(default=None)

    def __post_init__(self):
        f = _owned(self.features, float, "features")
        a = _owned(self.labels, float, "labels")
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
            s = _owned(self.subset_flags, None, "subset flags")
            if not np.isin(s, (0, 1)).all():  # True == 1 and False == 0
                raise ConfigurationError("subset flags must be booleans or 0 and 1")
            s = _owned(s, bool, "subset flags")
            if s.shape != (f.shape[0],):
                raise ConfigurationError("subset flags must match the number of rows")
            s.setflags(write=False)
            object.__setattr__(self, "subset_flags", s)
        f.setflags(write=False)
        a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @functools.cached_property
    def stump_index(self) -> StumpIndex:
        """The read-only presort of the features that every stump search reads:
        8 N 2 ceil(d / 2) bytes, 4 MB at N = 1e4 and d = 50."""
        return StumpIndex(self.features)


def _owned(values, dtype, what: str) -> np.ndarray:
    """``values`` as an array of ``dtype``, copied unless it owns its data."""
    try:
        out = np.asarray(values, dtype=dtype)
    except (ValueError, TypeError) as exc:  # a ragged or non-numeric nested list
        raise ConfigurationError(f"{what} must be a numeric array: {exc}") from None
    return out if out.flags.owndata else out.copy()


def _parse_float(raw: str, what: str, line: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"non-numeric {what} {raw!r}", line) from None


def _map_label(raw: str, line: int) -> float:
    v = _parse_float(raw, "label", line)
    if v in (-1.0, 0.0, 1.0):
        return v or -1.0  # 0 and -0 map to -1
    raise ParseError(f"label must be -1, 0 or +1, got {raw!r}", line)


@opens_file("read")
def load_csv(path: str, label_column: str = "label", subset_column: str | None = None) -> Dataset:
    """Load a numeric CSV with a header row.

    Label values may be {-1, +1} or {0, 1} (0 maps to -1). The optional
    subset column holds 'A' / 'B' markers. The header is read and checked
    once; NumPy's C parser reads the body, and the row loop one it rejects.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        width, label_idx, subset_idx, keep = _csv_header(_csv_rows(fh), label_column, subset_column)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                table = np.loadtxt(
                    _lines_without_separators(fh), delimiter=",", quotechar='"', comments=None,
                    ndmin=2, converters={} if subset_idx is None else {subset_idx: _subset_bit},
                )
        except ValueError:  # a cell or row the C parser rejects, or bad UTF-8
            table = None
    # loadtxt takes its width from the first row, not from the header, and
    # would read a subset column that is also the label column as 0/1 labels
    if (table is None or not len(table) or table.shape[1] != width or subset_idx == label_idx
            or not np.isin(labels := table[:, label_idx], (-1.0, 0.0, 1.0)).all()):
        return _load_csv_rows(path, width, label_idx, subset_idx, keep)
    flags = None if subset_idx is None else table[:, subset_idx] == 1.0
    labels = np.where(labels == 0.0, -1.0, labels)
    return Dataset(np.ascontiguousarray(table[:, keep]), labels, flags)


def _lines_without_separators(fh):
    # NumPy's float parser strips U+001C..U+001F as whitespace, which float()
    # does not, and reads a cell over the field size limit, which csv.reader
    # refuses: a line holding a separator or longer than the limit is left to
    # the row loop
    cap = csv.field_size_limit()
    for line in fh:
        if len(line) > cap or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("ASCII separator, or a line over the field size limit")
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


def _csv_header(rows, label_column, subset_column) -> tuple[int, int, int | None, list[int]]:
    """The width and label, subset (or None) and feature indices named by the
    first of ``rows``, cells stripped; a missing one is a line-1 ParseError."""
    header = next(rows, None)
    if header is None:
        raise ParseError("empty file", 1)
    header = [c.strip() for c in header]
    if label_column not in header:
        raise ParseError(f"missing label column {label_column!r}", 1)
    if subset_column is not None and subset_column not in header:
        raise ParseError(f"missing subset column {subset_column!r}", 1)
    label_idx = header.index(label_column)
    subset_idx = None if subset_column is None else header.index(subset_column)
    keep = [i for i in range(len(header)) if i not in (label_idx, subset_idx)]
    return len(header), label_idx, subset_idx, keep


def _load_csv_rows(path, width, label_idx, subset_idx, keep) -> Dataset:
    """``load_csv``'s body, for the layout ``_csv_header`` read, one row and
    one ``float()`` per cell at a time; the header record is skipped."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv_rows(fh)
        next(reader)  # the header
        rows, labels, flags = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ParseError(f"expected {width} cells, got {len(row)}", lineno)
            labels.append(_map_label(row[label_idx].strip(), lineno))
            if subset_idx is not None:
                marker = row[subset_idx].strip()
                if marker not in ("A", "B"):
                    raise ParseError(f"subset marker must be A or B, got {marker!r}", lineno)
                flags.append(marker == "B")
            rows.append([_parse_float(row[i], "cell", lineno) for i in keep])
    if not rows:
        raise ParseError("no data rows", 2)
    return Dataset(np.array(rows), np.array(labels), np.array(flags) if flags else None)


@opens_file("read")
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
                if idx - 1 in row:
                    raise ParseError(f"feature index {idx} repeats", lineno)
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


def is_integer(value) -> bool:
    """The package's one rule for an integer: an int or a NumPy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """The package's one rule for a real number: a float, Python or NumPy, or an
    integer of magnitude <= 2**53, whose float arithmetic, squares included,
    cannot raise OverflowError."""
    return isinstance(value, (float, np.floating)) or is_integer(value) and -2**53 <= value <= 2**53


def _integer(value, name: str) -> int:
    """``value`` as a Python int, if ``is_integer``."""
    if is_integer(value):
        return int(value)
    raise ConfigurationError(f"{name} must be an integer, got {shown(value)}")


def _real(value, name: str):
    """``value`` unchanged, if ``is_real``."""
    if is_real(value):
        return value
    raise ConfigurationError(f"{name} must be a real number, got {shown(value)}")


def _blobs(seed: int, n: int, margin: float) -> tuple[np.ndarray, np.ndarray]:
    """gen_blobs' features and labels, as fresh writeable arrays.

    Draws 2i and 2i + 1 give sample i's u0 and u1 in [0, 1): a draw's top
    53 bits times 2**-53, which divides by 2**53 exactly. Then
    x0 = sign * (margin + u0) and x1 = 2 u1 - 1, each computed in place in
    the order of its formula, so every value rounds as the formula does.
    """
    if n < 2 or n % 2:
        raise ConfigurationError("n must be even and >= 2")
    if not 0 < _real(margin, "margin") < math.inf:
        raise ConfigurationError(f"margin must be positive and finite, got {margin}")
    memory = _memory_bytes()
    if 32 * n > memory:  # 2n uint64 draws and n x 2 features, refused before allocating
        need = 32 * n / 2**30 if n.bit_length() < 1000 else math.inf  # else the quotient overflows
        raise ConfigurationError(
            f"n = {shown(n)} samples need {need:.3g} GiB, "
            f"more than the {memory / 2**30:.3g} GiB of memory"
        )
    draws = splitmix64(seed, 2 * n)
    draws >>= np.uint64(11)  # below 2**53: the int64 view converts exactly
    features = np.empty((n, 2))
    np.multiply(draws.view(np.int64).reshape(n, 2), 2.0**-53, out=features)
    features[:, 0] += margin
    features[n // 2:, 0] *= -1.0
    features[:, 1] *= 2.0
    features[:, 1] -= 1.0
    labels = np.ones(n)
    labels[n // 2:] = -1.0
    return features, labels


def gen_blobs(seed: int, n: int, margin: float) -> Dataset:
    """Two axis-aligned 2-D box clusters separated by 2*margin along axis 0.

    The first n/2 samples are positive with x0 in [margin, margin + 1]; the
    second half are negative with x0 in [-margin - 1, -margin]. A stump at
    threshold 0 on feature 0 separates the classes perfectly. x1 is uniform
    on [-1, 1). The seed and n must pass ``is_integer``, the margin
    ``is_real``.
    """
    return Dataset(*_blobs(_integer(seed, "seed"), _integer(n, "n"), margin))


def _flipped(seed: int, n: int, n_flip: int) -> np.ndarray:
    """The samples that a seeded partial Fisher-Yates shuffle of range(n)
    puts in its first n_flip positions.

    The sequential loop defines the shuffle: step i, for i in
    range(n_flip), swaps positions i and j_i = i + pick_i, with pick_i
    uniform on [0, n - i) from splitmix64(seed ^ 0xA5A5A5A5A5A5A5A5), and
    position i is final after it. This computes the same samples with array
    operations. Step i moves to position i what position j_i held just
    before it: G(L(i)) if an earlier step last targeted j_i, L(i) being that
    step, else j_i. G(s), what position s held just before step s, is
    G(M(s)) if an earlier step M(s) last targeted s, else s; pointer jumping
    along M resolves every G in at most ceil(log2 n_flip) rounds.
    """
    steps = np.arange(n_flip)
    picks = splitmix64(seed ^ 0xA5A5A5A5A5A5A5A5, n_flip)
    picks %= np.arange(n, n - n_flip, -1, dtype=np.uint64)
    target = picks.view(np.int64)  # j_i; every pick is below n
    target += steps
    # the steps grouped by target, in step order within a group
    order = np.argsort(target, kind="stable")
    grouped = target[order]
    repeat = grouped[1:] == grouped[:-1]
    earlier = np.full(n_flip, -1)  # L(i), or -1
    earlier[order[1:][repeat]] = order[:-1][repeat]
    # M(s), or s: the last step of the group that targets s (a group has
    # one last step, so no index repeats). When that is step s itself, no
    # later step reads G(s), since none targets s or is its L or M
    held = np.arange(n_flip)
    ends = np.append(~repeat, True) & (grouped < n_flip)
    held[grouped[ends]] = order[ends]
    while not np.array_equal(jumped := held[held], held):  # M becomes G
        held = jumped
    return np.where(earlier >= 0, held[earlier], target)


def _noisy(seed: int, n: int, flip_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """gen_noisy's features and labels, as fresh writeable arrays."""
    if not 0.0 <= _real(flip_rate, "flip_rate") < 0.5:
        raise ConfigurationError("flip_rate must be in [0, 0.5)")
    features, labels = _blobs(seed, n, DEFAULT_MARGIN)
    n_flip = int(round(flip_rate * n))
    if n_flip:
        labels[_flipped(seed, n, n_flip)] *= -1.0
    return features, labels


def gen_noisy(seed: int, n: int, flip_rate: float) -> Dataset:
    """gen_blobs with the default margin and round(flip_rate * n) labels
    flipped: the first positions of a seeded partial Fisher-Yates shuffle
    (``_flipped``). The arguments are typed as gen_blobs' are."""
    return Dataset(*_noisy(_integer(seed, "seed"), _integer(n, "n"), flip_rate))


def gen_combined(seed: int, n_clean: int, n_noisy: int, flip_rate: float) -> Dataset:
    """A clean subset A, gen_blobs(seed, n_clean, DEFAULT_MARGIN), stacked
    with a label-noised subset B, gen_noisy(seed + 1, n_noisy, flip_rate),
    flags set. The arguments are typed as gen_blobs' are."""
    seed = _integer(seed, "seed")
    n_clean, n_noisy = _integer(n_clean, "N_A"), _integer(n_noisy, "N_B")
    for name, size in (("N_A", n_clean), ("N_B", n_noisy)):
        if size < 2 or size % 2:
            raise ConfigurationError(f"{name} must be an even number >= 2, got {shown(size)}")
    clean_features, clean_labels = _blobs(seed, n_clean, DEFAULT_MARGIN)
    noisy_features, noisy_labels = _noisy(seed + 1, n_noisy, flip_rate)
    features = np.vstack([clean_features, noisy_features])
    labels = np.concatenate([clean_labels, noisy_labels])
    flags = np.concatenate([np.zeros(n_clean, bool), np.ones(n_noisy, bool)])
    return Dataset(features, labels, flags)
