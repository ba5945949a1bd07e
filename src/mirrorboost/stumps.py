"""Decision-stump weak learner and the edge / loss-vector algebra.

A stump is h(x) = polarity * sign(x[feature] - threshold) with sign(0) = +1.
Training enumerates every threshold at midpoints of consecutive distinct
feature values, or at the upper value where the midpoint rounds onto the
lower one (plus -inf/+inf sentinels for the constant hypotheses), and
returns the stump of maximum absolute weighted correlation, with polarity
chosen so the edge is nonnegative. Ties break to the lowest feature index,
then the lowest threshold, making the learner fully deterministic. Each
column is sorted once per feature matrix (``StumpIndex``) and the sort is
reused under every weighting, so a call costs O(N d) after that. Columns are
searched in pairs: one complex128 prefix sum over two interleaved columns
gives both columns' float64 prefix sums bit for bit, since a complex addition
is two separate IEEE additions and NumPy accumulates in sample order (its
pairwise summation is only for reductions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError


def sign_pm(v) -> np.ndarray:
    """Sign into {-1, +1} with sign(0) = +1."""
    return np.where(np.asarray(v) >= 0, 1.0, -1.0)


def above(column: np.ndarray, threshold: float) -> np.ndarray:
    """Where a stump at ``threshold`` votes its polarity: ``column - threshold >= 0``
    as one comparison, with no difference array.

    The two agree bit for bit: a float difference is 0 only between equal
    values, and ``±inf - ±inf`` is NaN, so an infinite threshold needs ``>``.
    A NaN on either side is never above.
    """
    return column > threshold if math.isinf(threshold) else column >= threshold


@dataclass(frozen=True)
class Stump:
    feature: int
    threshold: float
    polarity: int

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Evaluate the stump on an (n, d) feature matrix; outputs in {-1, +1}."""
        p = float(self.polarity)
        return np.where(above(features[:, self.feature], self.threshold), p, -p)


def loss_vector(features: np.ndarray, labels: np.ndarray, h: Stump) -> np.ndarray:
    """Per-sample losses d_i = -a_i h(x_i); +1 on a mistake, -1 when correct."""
    d = h.predict(features)  # a fresh vote array, turned into the loss in place
    d *= labels
    return np.negative(d, out=d)


def edge(w: np.ndarray, d: np.ndarray) -> float:
    """Edge gamma = -w . d of a hypothesis with loss vector d under weights w."""
    if len(w) != len(d):
        raise UsageError("weight and loss vectors must have equal length")
    return -float(w @ d)


class StumpIndex:
    """The sorted layout of one feature matrix, shared by every weighting.

    Boosting retrains on the same samples under a new distribution each
    round, so each column is sorted once (the presorted layout of exact
    greedy tree learners). The sorts are kept in column pairs:
    ``pairs[p, :, s]`` is the stable argsort of feature 2p + s, shape
    (ceil(d / 2), N, 2), so one gather by ``pairs[p]`` lays out both
    columns' weights interleaved, as the real and imaginary parts of one
    complex vector. With an odd number of features the last pair repeats
    the last column in a slot nothing reads.
    ``ends[j]`` lists, for every split after the -inf sentinel, the last
    sorted position below it -- each position where the sorted column
    changes value, then N - 1 for the +inf sentinel. A column without ties
    splits after every position, so its ``ends[j]`` is None, not 0..N-1.

    ``pairs`` and every ``ends`` array are read-only, and nothing writes the
    index once built, so one index serves any number of searches, even
    overlapping ones; each ``Dataset`` keeps one (``Dataset.stump_index``).
    A search writes only into the buffers that ``scratch()`` makes.
    """

    def __init__(self, features: np.ndarray):
        if features.ndim != 2:
            raise UsageError(f"features must be an (n, d) matrix, got {features.ndim}-D")
        n, d = self.shape = features.shape
        if d % 2:
            features = np.hstack([features, features[:, -1:]])
        # the default (SIMD) sort of each column through an (m, N, 2) view,
        # written straight into the pair layout; it may order equal values
        # (ties, -0.0 beside 0.0, NaNs) any way, so each run of them is put
        # back in index order, as the stable sort has it
        by_pair = features.reshape(n, (d + 1) // 2, 2).transpose(1, 0, 2)
        order = np.argsort(by_pair, axis=1)
        ends: list[np.ndarray | None] = []
        for j in range(d):
            column = order[j // 2, :, j % 2]
            xs = features[column, j]
            changes = xs[1:] != xs[:-1]  # NaN != NaN: each NaN is its own split
            ends.append(None if changes.all() else np.append(np.nonzero(changes)[0], n - 1))
            new_run = changes & ~np.isnan(xs[:-1])  # NaNs sort last, so they tie
            if not new_run.all():
                # run r's keys r*n + i sort by run, then by sample index i
                run = np.zeros(n, dtype=np.intp)
                np.cumsum(new_run, out=run[1:])
                run *= n
                keys = run + column
                keys.sort()
                column[:] = keys - run
        self.ends = tuple(ends)
        # np.take copies an index array that is not writeable before each
        # gather, so the search reads ``_order``, the array behind the
        # read-only view ``pairs``; nothing writes it after this point
        self._order = order
        self.pairs = order.view()
        for a in (self.pairs, *self.ends):
            if a is not None:
                a.setflags(write=False)

    def scratch(self) -> tuple[np.ndarray, np.ndarray]:
        """Fresh buffers for ``train_stump`` to refill on every call: an (N, 2)
        block of a pair's prefix sums and an N-vector of one column's absolute
        correlations. Calls that share a scratch must not overlap."""
        n = self.shape[0]
        return np.empty((n, 2)), np.empty(n)


def train_stump(
    features: np.ndarray,
    labels: np.ndarray,
    w: np.ndarray,
    index: StumpIndex | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> Stump:
    """Best decision stump under sample weights w.

    Maximizes |sum_i w_i a_i h(x_i)| over all features, candidate thresholds
    and polarities; the returned polarity makes the edge nonnegative. A
    zero-edge stump is returned as-is when nothing better exists. ``index``
    must be the ``StumpIndex`` of ``features``; without one, one is built.
    The search writes into ``scratch``, from ``index.scratch()``, so that a
    caller making many calls allocates it once; without one, the call
    allocates its own.
    """
    if index is None:
        index = StumpIndex(features)
    elif index.shape != features.shape:
        raise UsageError(
            f"stump index built for a {index.shape} matrix, features are {features.shape}"
        )
    n, n_features = features.shape
    if n == 0 or n_features == 0:
        raise UsageError("cannot train on an empty dataset")
    if np.shape(labels) != (n,) or np.shape(w) != (n,):
        raise UsageError(
            f"labels {np.shape(labels)} and weights {np.shape(w)} must hold one "
            f"entry per sample ({n})"
        )
    wa = w * labels
    total = float(np.add.reduce(wa))
    if not math.isfinite(total):
        raise UsageError("weights and labels must be finite")
    # the prefix sums are gathered from -2 * wa: doubling is exact, so they are
    # -2 times wa's prefix sums bit for bit (for sums below 2**1023)
    wa *= -2.0

    # the -inf split (every sample above it) is the same constant vote for
    # every feature, so it is scored once, as feature 0's first candidate
    best_gamma = abs(total)
    best = (0, -np.inf, 1 if total >= 0 else -1)
    sums, gammas = index.scratch() if scratch is None else scratch
    if sums.shape != (n, 2) or gammas.shape != (n,):
        raise UsageError(f"stump scratch {sums.shape}, {gammas.shape} is not for {n} samples")
    pair_sums = sums.view(np.complex128).reshape(n)
    for j, ends in enumerate(index.ends):
        s = j % 2
        if s == 0:
            # columns j and j + 1 at once: one complex prefix sum of their
            # interleaved signed weights is both float64 prefix sums
            order = index._order[j // 2]
            wa.take(order, out=sums, mode="clip")  # mode "raise" copies out
            pair_sums.cumsum(out=pair_sums)
            sums += total  # the same bits as total - 2.0 * (prefix sums of wa)
        # split k: the samples up to sorted position ends[k] (k without ties)
        # are predicted -1, so its correlation is total - 2 * their weight
        corr = sums[:, s]
        if ends is None:
            g = np.abs(corr, out=gammas)
        else:
            g = corr[ends]  # one entry per distinct value
            np.abs(g, out=g)
        k = int(g.argmax())  # first max = lowest threshold
        gamma = float(g[k])
        if gamma > best_gamma:
            best_gamma = gamma
            c = k if ends is None else ends[k]  # last sorted position below
            polarity = 1 if corr[c] >= 0 else -1
            if c == n - 1:
                threshold = np.inf
            else:
                column = order[:, s]
                lo, hi = features[column[c], j], features[column[c + 1], j]
                mid = 0.5 * lo + 0.5 * hi  # halves first: lo + hi can overflow
                # a midpoint rounded onto lo would put lo above the split
                threshold = float(mid if mid > lo else hi)
            best = (j, threshold, polarity)

    return Stump(feature=best[0], threshold=best[1], polarity=best[2])
