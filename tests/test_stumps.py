"""Decision-stump learner: examples, brute-force optimality, determinism."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mirrorboost.errors import UsageError
from mirrorboost.stumps import (
    Stump,
    StumpIndex,
    above,
    edge,
    loss_vector,
    sign_pm,
    train_stump,
)


def best_stump_bruteforce(features, labels, w):
    """Exhaustive stump search: every feature, predicate x >= v, polarity.

    v runs over the feature's distinct values and +-inf, so no threshold is
    computed. Returns the maximum achievable |edge|; used to certify the
    fast learner.
    """
    n, d = features.shape
    best = 0.0
    for j in range(d):
        for v in [-np.inf, np.inf, *np.unique(features[:, j])]:
            pred = np.where(features[:, j] >= v, 1.0, -1.0)
            corr = float(np.sum(w * labels * pred))
            best = max(best, abs(corr))
    return best


def _train_stump_reference(features, labels, w):
    """The learner before the presorted index: one argsort per column per call.

    Kept verbatim so the indexed learner can be held to its exact output,
    tie-breaks included.
    """
    n, n_features = features.shape
    if n == 0:
        raise UsageError("cannot train on an empty dataset")
    wa = w * labels
    total = float(wa.sum())

    best_gamma = -1.0
    best: tuple[int, float, int] | None = None
    for j in range(n_features):
        x = features[:, j]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        csum = np.cumsum(wa[order])
        # split k: samples [0, k) fall below the threshold (predicted -1)
        change = np.nonzero(xs[1:] != xs[:-1])[0] + 1
        ks = np.concatenate(([0], change, [n]))
        below = np.concatenate(([0.0], csum[change - 1], [csum[-1]]))
        corr = total - 2.0 * below  # sum w a sign(x - thr) at each split
        thresholds = np.concatenate(
            ([-np.inf], 0.5 * (xs[ks[1:-1] - 1] + xs[ks[1:-1]]), [np.inf])
        )
        gammas = np.abs(corr)
        k = int(np.argmax(gammas))  # first max = lowest threshold
        if gammas[k] > best_gamma:
            best_gamma = float(gammas[k])
            polarity = 1 if corr[k] >= 0 else -1
            best = (j, float(thresholds[k]), polarity)

    assert best is not None
    return Stump(feature=best[0], threshold=best[1], polarity=best[2])


def _exact(h):
    # repr pins the threshold's bits as the model file writes them
    return h.feature, repr(h.threshold), h.polarity


def test_sign_zero_is_positive():
    np.testing.assert_array_equal(sign_pm([-0.5, 0.0, 0.5]), [-1.0, 1.0, 1.0])


def test_stump_predict_polarity():
    x = np.array([[-1.0], [0.0], [2.0]])
    np.testing.assert_array_equal(Stump(0, 0.0, 1).predict(x), [-1.0, 1.0, 1.0])
    np.testing.assert_array_equal(Stump(0, 0.0, -1).predict(x), [1.0, -1.0, -1.0])


_any_float = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7e308])
)


@given(
    st.lists(st.tuples(_any_float, _any_float), min_size=1, max_size=12),
    st.integers(0, 1),
    _any_float,
    st.sampled_from([-1, 1]),
)
@example([(0.0, -0.0), (-0.0, 1.0)], 0, 0.0, 1)  # x - t = -0.0 counts as >= 0
@example([(np.inf, np.nan), (-np.inf, 0.0)], 0, np.inf, -1)  # inf - inf is NaN
@example([(np.nan, np.inf), (1.0, -np.inf)], 1, -np.inf, 1)
@settings(max_examples=300, deadline=None)
def test_predict_is_polarity_times_the_sign(rows, feature, threshold, polarity):
    """One np.where gives polarity * sign_pm(x - threshold), bit for bit."""
    x = np.array(rows)
    with np.errstate(invalid="ignore", over="ignore"):
        expected = polarity * sign_pm(x[:, feature] - threshold)
        got = Stump(feature, threshold, polarity).predict(x)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


# every class of float a stump can meet: signed zeros, subnormals, the
# largest finite values, neighbours of 1, infinities and NaN
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.0, 1.0000000000000002, -1.0,
            1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan]


def _difference_test(column, threshold):
    with np.errstate(invalid="ignore", over="ignore"):
        return np.asarray(column) - threshold >= 0


@pytest.mark.parametrize("threshold", _SPECIAL + [np.float64(-0.0), np.float64(np.inf)])
def test_above_is_the_difference_test_on_every_special_pair(threshold):
    column = np.array(_SPECIAL)
    np.testing.assert_array_equal(above(column, threshold), _difference_test(column, threshold))


@given(st.lists(_any_float, min_size=1, max_size=12), _any_float)
@example([-0.0, 0.0], 0.0)  # x - t = -0.0 counts as >= 0
@example([np.inf, -np.inf, np.nan], np.inf)  # inf - inf is NaN
@example([np.inf, -np.inf, 1.0], -np.inf)
@example([1.7e308, -1.7e308], -1.7e308)  # the difference overflows
@settings(max_examples=300, deadline=None)
def test_above_is_the_difference_test(column, threshold):
    column = np.array(column)
    got = above(column, threshold)
    assert got.dtype == bool
    np.testing.assert_array_equal(got, _difference_test(column, threshold))


@given(
    st.lists(st.tuples(_any_float, _any_float, st.sampled_from([-1.0, 1.0])), min_size=1,
             max_size=12),
    st.integers(0, 1),
    _any_float,
    st.sampled_from([-1, 1]),
)
@example([(0.0, -0.0, 1.0), (-0.0, 1.0, -1.0)], 0, 0.0, -1)
@example([(np.inf, np.nan, -1.0), (-np.inf, 0.0, 1.0)], 0, np.inf, 1)
@settings(max_examples=200, deadline=None)
def test_loss_vector_is_minus_the_label_times_the_sign(rows, feature, threshold, polarity):
    """loss_vector keeps the bytes of -labels * polarity * sign(x - threshold)."""
    x = np.array([row[:2] for row in rows])
    labels = np.array([row[2] for row in rows])
    with np.errstate(invalid="ignore", over="ignore"):
        expected = -labels * (polarity * sign_pm(x[:, feature] - threshold))
    got = loss_vector(x, labels, Stump(feature, threshold, polarity))
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def test_loss_vector_signs():
    x = np.array([[-1.0], [1.0]])
    labels = np.array([-1.0, 1.0])
    h = Stump(0, 0.0, 1)  # correct on both
    np.testing.assert_array_equal(loss_vector(x, labels, h), [-1.0, -1.0])
    np.testing.assert_array_equal(loss_vector(x, -labels, h), [1.0, 1.0])


def test_loss_vector_mixed_case():
    x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    labels = np.array([-1.0, 1.0, 1.0, -1.0])
    d = loss_vector(x, labels, Stump(0, 0.0, 1))
    np.testing.assert_array_equal(d, [-1.0, 1.0, -1.0, 1.0])


def test_edge_arithmetic():
    assert edge(np.array([0.7, 0.3]), np.array([-1.0, 1.0])) == pytest.approx(0.4)
    assert edge(np.full(4, 0.25), np.full(4, -1.0)) == pytest.approx(1.0)
    assert edge(np.full(4, 0.25), np.array([-1.0, -1.0, 1.0, 1.0])) == 0.0


def test_edge_length_mismatch():
    with pytest.raises(UsageError):
        edge(np.array([0.5, 0.5]), np.array([1.0]))


def test_separable_pair_gives_full_edge():
    x = np.array([[-1.0], [1.0]])
    labels = np.array([-1.0, 1.0])
    w = np.array([0.5, 0.5])
    h = train_stump(x, labels, w)
    assert h.feature == 0 and h.threshold == 0.0 and h.polarity == 1
    assert edge(w, loss_vector(x, labels, h)) == pytest.approx(1.0)


def test_constant_stump_on_featureless_labels():
    # identical features: the best a stump can do is a constant vote
    x = np.ones((4, 1))
    labels = np.array([1.0, 1.0, 1.0, -1.0])
    w = np.full(4, 0.25)
    h = train_stump(x, labels, w)
    gamma = edge(w, loss_vector(x, labels, h))
    assert gamma == pytest.approx(abs(float(np.sum(w * labels))))


def test_zero_edge_surface_not_hidden():
    x = np.ones((2, 1))
    labels = np.array([1.0, -1.0])
    w = np.array([0.5, 0.5])
    h = train_stump(x, labels, w)
    assert edge(w, loss_vector(x, labels, h)) == 0.0


def test_empty_dataset_rejected():
    with pytest.raises(UsageError):
        train_stump(np.empty((0, 2)), np.empty(0), np.empty(0))
    with pytest.raises(UsageError):
        train_stump(np.empty((3, 0)), np.ones(3), np.full(3, 1 / 3))


def test_returned_edge_nonnegative_and_consistent():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n, d = int(rng.integers(2, 30)), int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        w = rng.random(n)
        w /= w.sum()
        h = train_stump(x, labels, w)
        gamma = edge(w, loss_vector(x, labels, h))
        assert gamma >= -1e-12


def test_optimal_among_stumps_bruteforce():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n, d = int(rng.integers(5, 50)), int(rng.integers(1, 5))
        x = np.round(rng.normal(size=(n, d)), 2)  # duplicates exercise ties
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        w = rng.random(n)
        w /= w.sum()
        h = train_stump(x, labels, w)
        gamma = edge(w, loss_vector(x, labels, h))
        assert gamma == pytest.approx(best_stump_bruteforce(x, labels, w), abs=1e-12)


def test_zero_weight_samples_keep_candidate_geometry():
    # a zero-weight sample must not change the winning stump's edge
    x = np.array([[-1.0], [1.0], [5.0]])
    labels = np.array([-1.0, 1.0, -1.0])
    w = np.array([0.5, 0.5, 0.0])
    h = train_stump(x, labels, w)
    assert edge(w, loss_vector(x, labels, h)) == pytest.approx(1.0)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(_finite, _finite, st.sampled_from([-1.0, 1.0]))
@example(1.0, 1.0000000000000002, -1.0)  # the midpoint rounds onto the lower value
@example(1.4e308, 1.7e308, -1.0)  # the sum of the two overflows
@example(0.0, 5e-324, 1.0)  # the midpoint of subnormals rounds onto the lower value
@settings(max_examples=300, deadline=None)
def test_two_distinct_values_with_opposite_labels_separate(a, b, label):
    assume(a != b)
    x = np.array([[a], [b]])
    labels = np.array([label, -label])
    w = np.array([0.5, 0.5])
    h = train_stump(x, labels, w)
    assert edge(w, loss_vector(x, labels, h)) == 1.0
    assert best_stump_bruteforce(x, labels, w) == 1.0


def test_determinism_and_tie_break():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 3))
    labels = np.where(rng.random(20) < 0.5, 1.0, -1.0)
    w = np.full(20, 1.0 / 20)
    first = train_stump(x, labels, w)
    for _ in range(5):
        assert train_stump(x, labels, w) == first
    # duplicating every column ties each stump with its copy; the winner
    # must come from the original (lower-index) block
    x2 = np.hstack([x, x])
    h2 = train_stump(x2, labels, w)
    assert h2.feature < 3
    assert h2 == first


@st.composite
def _stump_problems(draw):
    """Rounded features (heavy ties), maybe a constant and a duplicated column,
    labels, and three weightings with zeros, all for one matrix."""
    n = draw(st.integers(1, 25))
    d = draw(st.integers(1, 4))
    cell = st.floats(-3.0, 3.0)
    cells = draw(st.lists(cell, min_size=n * d, max_size=n * d))
    x = np.round(np.array(cells).reshape(n, d), draw(st.integers(0, 2)))
    if draw(st.booleans()):
        x[:, draw(st.integers(0, d - 1))] = draw(cell)
    if draw(st.booleans()):
        x = np.hstack([x, x[:, [draw(st.integers(0, d - 1))]]])
    labels = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    weightings = [
        np.array(draw(st.lists(weight, min_size=n, max_size=n))) for _ in range(3)
    ]
    return x, labels, weightings


@given(_stump_problems())
@example((np.array([[0.5, -2.0]]), np.array([-1.0]), [np.ones(1), np.zeros(1), np.full(1, 0.3)]))
@settings(max_examples=200, deadline=None)
def test_indexed_learner_matches_reference_exactly(problem):
    x, labels, weightings = problem
    index = StumpIndex(x)
    for w in weightings:
        expected = _exact(_train_stump_reference(x, labels, w))
        assert _exact(train_stump(x, labels, w, index)) == expected
        assert _exact(train_stump(x, labels, w)) == expected


_summand = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
)


def _assert_complex_prefix_sum_exact(block):
    # train_stump sums two sorted columns at once as one complex128 cumsum,
    # in place on an (N, 2) buffer; if NumPy ever sums complex numbers
    # another way, every stump it picks is in doubt
    with np.errstate(over="ignore", invalid="ignore"):
        expected = [np.cumsum(block[:, s]).view(np.int64) for s in (0, 1)]
        sums = block.view(np.complex128).reshape(len(block))
        np.cumsum(sums, out=sums)
    for s in (0, 1):
        np.testing.assert_array_equal(block[:, s].view(np.int64), expected[s])


@given(st.lists(st.tuples(_summand, _summand), min_size=1, max_size=200))
@example([(1.7976931348623157e308, -0.0), (1.7976931348623157e308, -0.0), (-1e308, 5e-324)])
@example([(-0.0, 0.0), (-0.0, -0.0), (5e-324, -5e-324)])
@settings(max_examples=300, deadline=None)
def test_complex_prefix_sum_is_two_real_prefix_sums_bit_for_bit(pairs):
    _assert_complex_prefix_sum_exact(np.array(pairs))


def test_complex_prefix_sum_is_exact_on_long_vectors():
    rng = np.random.default_rng(5)
    scale = np.exp2(rng.integers(-60, 60, (20_000, 2)))
    _assert_complex_prefix_sum_exact(rng.normal(size=(20_000, 2)) * scale)


def _mixed_columns(rng, n):
    """Gaussian, integer-valued, constant, -0.0/0.0 and Gaussian columns: d is odd."""
    return np.column_stack(
        [
            rng.normal(size=n),
            rng.integers(-4, 5, n).astype(float),
            np.full(n, 0.7),
            rng.choice([-0.0, 0.0, -1.0, 1.0], n),
            rng.normal(size=n),
        ]
    )


@pytest.mark.parametrize("seed", range(3))
def test_indexed_learner_matches_reference_on_thousands_of_samples(seed):
    rng = np.random.default_rng(seed)
    n = 3001
    x = _mixed_columns(rng, n)
    index = StumpIndex(x)
    weightings = [np.full(n, 1.0 / n), rng.random(n) * (rng.random(n) < 0.7)]
    winners = set()
    # labels that follow one column each, with 15 % flipped, so each
    # non-constant column, with or without ties, wins once at least
    for j in (0, 1, 3, 4):
        flip = np.where(rng.random(n) < 0.15, -1.0, 1.0)
        labels = np.where(x[:, j] >= 0.0, 1.0, -1.0) * flip
        for w in weightings:
            h = train_stump(x, labels, w, index)
            assert _exact(h) == _exact(_train_stump_reference(x, labels, w))
            winners.add(h.feature)
    assert winners == {0, 1, 3, 4}


def test_scratch_is_reused_without_carrying_state():
    rng = np.random.default_rng(6)
    n = 2000
    x = _mixed_columns(rng, n)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    w1, w2 = rng.random(n), rng.random(n) ** 4
    index = StumpIndex(x)
    scratch = index.scratch()
    for w in (w1, w2, w1):
        assert _exact(train_stump(x, labels, w, index, scratch)) == _exact(
            train_stump(x, labels, w, StumpIndex(x))
        )
    other = index.scratch()
    for mine in scratch:
        for theirs in other:
            assert not np.shares_memory(mine, theirs)


def test_index_is_read_only():
    x = _mixed_columns(np.random.default_rng(7), 50)
    index = StumpIndex(x)
    with pytest.raises(ValueError, match="read-only"):
        index.pairs[0, 0, 0] = 1
    tied = [ends for ends in index.ends if ends is not None]
    assert tied
    for ends in tied:
        with pytest.raises(ValueError, match="read-only"):
            ends[0] = 1
    assert vars(index).keys() == {"shape", "pairs", "ends", "_order"}
    assert index.pairs.base is index._order  # the array the search gathers by


def test_search_in_scratch_allocates_one_vector_only():
    # np.take copies an index array that is not writeable, 16 N bytes a pair,
    # so a search that gathered by the read-only pairs would allocate more
    rng = np.random.default_rng(8)
    n = 20_000
    x = rng.normal(size=(n, 4))
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    w = rng.random(n)
    index = StumpIndex(x)
    scratch = index.scratch()
    expected = _exact(train_stump(x, labels, w, index, scratch))
    tracemalloc.start()
    try:
        h = train_stump(x, labels, w, index, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _exact(h) == expected
    assert 8 * n <= peak < 12 * n  # w * labels, and no N-sized array beside it


def test_scratch_for_another_size_rejected():
    x = np.zeros((4, 2))
    with pytest.raises(UsageError, match="scratch"):
        train_stump(x, np.ones(4), np.full(4, 0.25), StumpIndex(x), StumpIndex(x[:3]).scratch())


def test_index_stores_split_positions_only_for_columns_with_ties():
    rng = np.random.default_rng(3)
    gaussian = rng.normal(size=50)
    x = np.column_stack([gaussian, np.round(gaussian)])
    index = StumpIndex(x)
    assert index.ends[0] is None
    assert index.ends[1] is not None and len(index.ends[1]) == len(np.unique(x[:, 1]))


@pytest.mark.parametrize("features", [np.zeros(4), np.zeros((4, 2, 1))], ids=["1d", "3d"])
def test_features_must_be_a_matrix(features):
    with pytest.raises(UsageError, match="matrix"):
        train_stump(features, np.ones(4), np.full(4, 0.25))
    with pytest.raises(UsageError, match="matrix"):
        StumpIndex(features)
    with pytest.raises(UsageError, match="matrix"):
        train_stump(features, np.ones(4), np.full(4, 0.25), StumpIndex(np.zeros((4, 1))))


@pytest.mark.parametrize(
    "labels, w",
    [
        (np.ones(3), np.full(4, 0.25)),
        (np.ones(4), np.full(5, 0.2)),
        (np.ones((4, 1)), np.full(4, 0.25)),
    ],
    ids=["labels", "weights", "label-column"],
)
def test_labels_and_weights_must_match_samples(labels, w):
    with pytest.raises(UsageError, match="one entry per sample"):
        train_stump(np.zeros((4, 2)), labels, w)


@pytest.mark.parametrize("shape", [(5, 2), (4, 3)])
def test_index_of_another_matrix_rejected(shape):
    index = StumpIndex(np.zeros(shape))
    with pytest.raises(UsageError, match="stump index"):
        train_stump(np.zeros((4, 2)), np.ones(4), np.full(4, 0.25), index)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_rejected(bad):
    with pytest.raises(UsageError, match="finite"):
        train_stump(np.zeros((2, 1)), np.ones(2), np.array([0.5, bad]))


@st.composite
def _sort_problems(draw):
    """Columns with ties, -0.0 beside 0.0, constant columns and NaN, n >= 1."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 4))
    cell = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan]),
        st.floats(-1e3, 1e3, allow_nan=False),
    )
    x = np.array(draw(st.lists(cell, min_size=n * d, max_size=n * d))).reshape(n, d)
    if draw(st.booleans()):
        x[:, draw(st.integers(0, d - 1))] = draw(cell)
    return x


@given(_sort_problems())
@example(np.array([[0.0], [-0.0], [0.0], [-0.0]]))
@example(np.array([[np.nan, 2.0], [1.0, 2.0], [np.nan, 2.0]]))
@example(np.array([[3.0, -1.0]]))
@settings(max_examples=300, deadline=None)
def test_index_order_is_the_stable_argsort(x):
    index = StumpIndex(x)
    for j in range(x.shape[1]):
        stable = np.argsort(x[:, j], kind="stable")
        np.testing.assert_array_equal(index.pairs[j // 2, :, j % 2], stable)


def test_index_order_is_stable_on_large_tied_columns():
    # columns long enough that the default sort's order among ties differs
    rng = np.random.default_rng(4)
    x = np.column_stack(
        [
            rng.normal(size=5000),
            rng.integers(0, 7, 5000).astype(float),
            rng.choice([np.nan, 0.0, -0.0, 1.0], 5000),
        ]
    )
    index = StumpIndex(x)
    for j in range(3):
        stable = np.argsort(x[:, j], kind="stable")
        np.testing.assert_array_equal(index.pairs[j // 2, :, j % 2], stable)
        xs = x[stable, j]
        ends = np.append(np.nonzero(xs[1:] != xs[:-1])[0], len(xs) - 1)
        if j == 0:
            assert index.ends[j] is None
        else:
            np.testing.assert_array_equal(index.ends[j], ends)
