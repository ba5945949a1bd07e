"""Booster behavior: schedules, bounds, reductions between variants."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorboost import boosting, stumps
from mirrorboost.boosting import (
    Algorithm,
    AlphaMode,
    BoosterConfig,
    MadaEta,
    load_model,
    predict,
    run,
    save_model,
)
from mirrorboost.data import Dataset, gen_blobs, gen_noisy
from mirrorboost.errors import (
    BoundViolationError,
    ConfigurationError,
    NoWeakLearnabilityError,
    ParseError,
    UsageError,
)
from mirrorboost.geometry import NEGATIVE_ENTROPY, QUADRATIC
from mirrorboost.stumps import Stump, loss_vector, sign_pm


def _cfg(algorithm, geometry, rounds, **kw):
    return BoosterConfig(algorithm=algorithm, geometry=geometry, rounds=rounds, **kw)


@pytest.mark.parametrize(
    "config",
    [
        _cfg(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 8),
        _cfg(Algorithm.SMOOTH, QUADRATIC, 8, k=20.0, target_error=0.05),
        _cfg(Algorithm.SPARSE, QUADRATIC, 8, alpha_mode=AlphaMode.ZERO),
    ],
    ids=lambda c: c.algorithm.value,
)
def test_stump_index_built_once_per_run(monkeypatch, config):
    built = []

    class CountingIndex(stumps.StumpIndex):
        def __init__(self, features):
            built.append(features)
            super().__init__(features)

    # train_stump builds its own index when run passes none: count those too
    monkeypatch.setattr("mirrorboost.data.StumpIndex", CountingIndex)
    monkeypatch.setattr(stumps, "StumpIndex", CountingIndex)
    data = gen_noisy(0, 200, 0.1)
    result = run(config, data)
    assert len(result.traces) >= 5
    assert len(built) == 1 and built[0] is data.features


def test_stump_index_built_once_per_dataset(monkeypatch):
    built = []

    class CountingIndex(stumps.StumpIndex):
        def __init__(self, features):
            built.append(features)
            super().__init__(features)

    monkeypatch.setattr("mirrorboost.data.StumpIndex", CountingIndex)
    monkeypatch.setattr(stumps, "StumpIndex", CountingIndex)
    ds = gen_noisy(0, 200, 0.1)
    first = run(_cfg(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 8), ds)
    run(_cfg(Algorithm.SMOOTH, QUADRATIC, 8, k=20.0, target_error=0.05), ds)
    again = run(_cfg(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 8), ds)
    assert len(built) == 1 and built[0] is ds.features
    assert again.hypotheses == first.hypotheses and again.traces == first.traces


def test_runs_on_one_dataset_share_no_scratch(monkeypatch):
    seen = []
    train = boosting.train_stump

    def recording(features, labels, w, index, scratch):
        seen.append((index, scratch))
        return train(features, labels, w, index, scratch)

    monkeypatch.setattr(boosting, "train_stump", recording)
    ds = gen_noisy(0, 200, 0.1)
    for _ in range(2):
        run(_cfg(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 3), ds)
    (index, first), (other, second) = seen[0], seen[-1]
    assert len(seen) == 6 and index is other is ds.stump_index
    assert all(scratch is first for _, scratch in seen[:3])
    for mine in first:
        for theirs in second:
            assert not np.shares_memory(mine, theirs)


class TestStaleFeatures:
    """A run reads the presort the dataset caches, so the features must not change."""

    def test_features_made_writeable_again_rejected(self):
        x = gen_noisy(0, 40, 0.1).features.copy()
        ds = Dataset(x, np.where(x[:, 0] >= 0, 1.0, -1.0))
        config = _cfg(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 3)
        run(config, ds)
        x.setflags(write=True)
        x[0, 0] = 99.0
        with pytest.raises(UsageError, match="writeable"):
            run(config, ds)

    def test_a_view_is_copied(self):
        table = np.column_stack([np.arange(6.0), np.arange(6.0)[::-1]])
        ds = Dataset(table[:, 1:], [1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        before = ds.features.copy()
        table[:, 1] = 0.0
        np.testing.assert_array_equal(ds.features, before)
        h = run(_cfg(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 1), ds).hypotheses[0][0]
        assert (h.feature, h.threshold, h.polarity) == (0, 2.5, 1)


class TestConfigValidation:
    def test_sparse_forces_quadratic(self):
        with pytest.raises(ConfigurationError):
            _cfg(Algorithm.SPARSE, NEGATIVE_ENTROPY, 10, alpha_mode=AlphaMode.ZERO)

    def test_sparse_needs_alpha_mode(self):
        with pytest.raises(ConfigurationError):
            _cfg(Algorithm.SPARSE, QUADRATIC, 10)

    def test_mada_forces_entropy(self):
        with pytest.raises(ConfigurationError):
            _cfg(Algorithm.MADA, QUADRATIC, 10)

    def test_smooth_needs_feasible_k_and_target(self):
        # k is named even though the CLI's default target 1/k = 2 is out of range
        with pytest.raises(ConfigurationError, match=r"\bk\b"):
            _cfg(Algorithm.SMOOTH, NEGATIVE_ENTROPY, 10, k=0.5, target_error=2.0)
        with pytest.raises(ConfigurationError):
            _cfg(Algorithm.SMOOTH, NEGATIVE_ENTROPY, 10, k=10.0, target_error=0.05)

    @pytest.mark.parametrize("algorithm", [Algorithm.SMOOTH, Algorithm.COMBINED])
    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_k_must_be_finite(self, algorithm, k):
        with pytest.raises(ConfigurationError, match="smoothness parameter k"):
            _cfg(algorithm, NEGATIVE_ENTROPY, 10, k=k, target_error=0.5)

    def test_rounds_positive(self):
        with pytest.raises(ConfigurationError):
            _cfg(Algorithm.MABOOST_ACTIVE, QUADRATIC, 0)

    @pytest.mark.parametrize("target", [-0.1, 1.5, math.nan])
    def test_target_error_must_be_a_share(self, target):
        with pytest.raises(ConfigurationError, match=r"target_error must be in \[0, 1\]"):
            _cfg(Algorithm.MABOOST_ACTIVE, QUADRATIC, 10, target_error=target)

    @pytest.mark.parametrize(
        "algorithm", [a for a in Algorithm if a not in (Algorithm.SMOOTH, Algorithm.COMBINED)]
    )
    def test_k_rejected_where_unused(self, algorithm):
        with pytest.raises(ConfigurationError, match="k is for smooth and combined"):
            _cfg(algorithm, NEGATIVE_ENTROPY, 10, k=4.0)

    @pytest.mark.parametrize("algorithm", [a for a in Algorithm if a is not Algorithm.SPARSE])
    def test_alpha_mode_rejected_where_unused(self, algorithm):
        k = 4.0 if algorithm in (Algorithm.SMOOTH, Algorithm.COMBINED) else None
        with pytest.raises(ConfigurationError, match="alpha_mode is for sparse"):
            _cfg(algorithm, NEGATIVE_ENTROPY, 10, k=k, target_error=0.5,
                 alpha_mode=AlphaMode.HALF)

    @pytest.mark.parametrize(
        "algorithm", [a for a in Algorithm if a is not Algorithm.MADA], ids=lambda a: a.value
    )
    @pytest.mark.parametrize("eta", list(MadaEta), ids=lambda e: e.value)
    def test_mada_eta_rejected_where_unused(self, algorithm, eta):
        k = 4.0 if algorithm in (Algorithm.SMOOTH, Algorithm.COMBINED) else None
        geometry = boosting.FORCED_GEOMETRY.get(algorithm, NEGATIVE_ENTROPY)
        mode = AlphaMode.ZERO if algorithm is Algorithm.SPARSE else None
        message = f"^mada_eta is for mada, not {algorithm.value}$"
        with pytest.raises(ConfigurationError, match=message):
            _cfg(algorithm, geometry, 10, k=k, alpha_mode=mode, mada_eta=eta)

    @pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
    def test_default_target_is_one_over_k_for_smooth_else_zero(self, algorithm):
        k = 4.0 if algorithm in (Algorithm.SMOOTH, Algorithm.COMBINED) else None
        geometry = boosting.FORCED_GEOMETRY.get(algorithm, NEGATIVE_ENTROPY)
        mode = AlphaMode.ZERO if algorithm is Algorithm.SPARSE else None
        config = _cfg(algorithm, geometry, 10, k=k, alpha_mode=mode)
        assert config.target_error == (0.25 if algorithm is Algorithm.SMOOTH else 0.0)

    @pytest.mark.parametrize("target", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("algorithm", [Algorithm.SMOOTH, Algorithm.MABOOST_ACTIVE])
    def test_explicit_target_is_kept(self, algorithm, target):
        # smooth needs target >= 1/k: k = 1/0.1 admits every target here but 0
        if algorithm is Algorithm.SMOOTH and target == 0.0:
            with pytest.raises(ConfigurationError, match="target_error >= 1/k"):
                _cfg(algorithm, NEGATIVE_ENTROPY, 10, k=10.0, target_error=target)
            return
        k = 10.0 if algorithm is Algorithm.SMOOTH else None
        config = _cfg(algorithm, NEGATIVE_ENTROPY, 10, k=k, target_error=target)
        assert config.target_error == target

    @pytest.mark.parametrize("target", [0.0, 0.5, 1.0])
    def test_maxmargin_refuses_a_target(self, target):
        # its margin schedule runs every round: a target would be silently ignored
        with pytest.raises(ConfigurationError,
                           match="^target_error is not for maxmargin, which runs every round$"):
            _cfg(Algorithm.MAX_MARGIN, NEGATIVE_ENTROPY, 10, target_error=target)

    def test_config_is_frozen(self):
        config = _cfg(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 10)
        with pytest.raises(AttributeError):
            config.rounds = 0

    def test_names_mean_their_members(self):
        config = BoosterConfig("smooth", "entropy", 10, k=4.0)
        assert (config.algorithm, config.geometry) == (Algorithm.SMOOTH, NEGATIVE_ENTROPY)
        assert _cfg("sparse", "quadratic", 1, alpha_mode="half").alpha_mode is AlphaMode.HALF
        config = _cfg("mada", "entropy", 1, mada_eta="fixed_point")
        assert config.mada_eta is MadaEta.FIXED_POINT

    @pytest.mark.parametrize("field, kw", [
        ("alpha_mode", {"algorithm": "sparse", "geometry": "quadratic", "alpha_mode": "quarter"}),
        ("mada_eta", {"algorithm": "mada", "mada_eta": "fixed-point"}),
        ("algorithm", {"algorithm": "boost"}),
        ("algorithm", {"algorithm": ["smooth"]}),
        ("geometry", {"geometry": "entropic"}),
        ("geometry", {"geometry": {"a": 1}}),
        ("geometry", {"geometry": Algorithm.SMOOTH}),
    ], ids=["alpha-mode", "mada-eta", "algorithm", "unhashable-algorithm", "geometry",
            "unhashable-geometry", "member-of-another-enum"])
    def test_name_outside_its_enum_names_the_field(self, field, kw):
        kw = {"algorithm": "maboost-active", "geometry": "entropy", **kw}
        with pytest.raises(ConfigurationError, match=f"^{field} must be .+, got "):
            BoosterConfig(rounds=10, **kw)

    @pytest.mark.parametrize("field, value", [
        ("rounds", 2.5), ("rounds", "3"), ("rounds", True),
        ("target_error", "0.1"), ("target_error", False), ("target_error", 2**53 + 1),
        ("k", "4"), ("k", True), ("k", 2**53 + 1),
    ], ids=repr)
    def test_mistyped_number_names_the_field(self, field, value):
        kw = {"k": 4.0, "target_error": 0.5, field: value}
        with pytest.raises(ConfigurationError, match=rf"\b{field} must be"):
            BoosterConfig(Algorithm.SMOOTH, NEGATIVE_ENTROPY, **{"rounds": 10, **kw})

    @pytest.mark.parametrize("kw, member", [
        ({"algorithm": Algorithm.SPARSE, "geometry": QUADRATIC, "alpha_mode": "half"},
         {"alpha_mode": AlphaMode.HALF}),
        ({"algorithm": Algorithm.MADA, "geometry": NEGATIVE_ENTROPY, "mada_eta": "fixed_point"},
         {"mada_eta": MadaEta.FIXED_POINT}),
        ({"algorithm": Algorithm.MADA, "geometry": NEGATIVE_ENTROPY},
         {"mada_eta": MadaEta.PREVIOUS_ERROR}),
    ], ids=["alpha-mode", "mada-eta", "mada-eta-default"])
    def test_name_and_member_train_byte_equal_traces(self, tmp_path, kw, member):
        from mirrorboost.trace_io import write_trace

        data = gen_noisy(0, 200, 0.1)
        traces = []
        for i, config in enumerate((_cfg(rounds=40, **kw), _cfg(rounds=40, **{**kw, **member}))):
            path = tmp_path / f"{i}.jsonl"
            write_trace(run(config, data), data.n, str(path))
            traces.append(path.read_bytes())
        assert traces[0] == traces[1]


# one integer rule and one real-number rule: NumPy scalars are numbers, and an
# int too large for float arithmetic is refused, not an OverflowError
@pytest.mark.parametrize("make, refused", [
    (lambda: gen_blobs(0, 200, 10**400), ConfigurationError),
    (lambda: predict([(Stump(0, 10**400, 1), 1.0)], np.ones((2, 1))), UsageError),
    (lambda: predict([(Stump(0, 0.0, 1), 10**400)], np.ones((2, 1))), UsageError),
    (lambda: BoosterConfig("smooth", "entropy", np.int64(10), k=4.0), None),
    (lambda: BoosterConfig("smooth", "entropy", 10, k=np.float32(4.0)), None),
    (lambda: BoosterConfig("smooth", "entropy", 10, k=np.int64(4)), None),
    (lambda: BoosterConfig("smooth", "entropy", 10, k=4.0, target_error=np.float32(0.25)), None),
], ids=["huge-margin", "huge-threshold", "huge-eta", "numpy-rounds", "float32-k", "int64-k",
        "float32-target"])
def test_numbers_follow_one_rule(make, refused):
    if refused is not None:
        with pytest.raises(refused):
            make()
        return
    config = make()  # NumPy scalars are stored as the Python values a trace header writes
    assert (config.rounds, config.k, config.target_error) == (10, 4, 0.25)
    assert [type(v) for v in (config.rounds, config.target_error)] == [int, float]
    assert type(config.k) in (int, float)


# an int past the 4300-digit repr limit is shown by its size, so a refusal that
# names it still raises its own error
@pytest.mark.parametrize("make, refused, shown", [
    (lambda: gen_blobs(0, 200, 10**5000), ConfigurationError, "margin"),
    (lambda: gen_blobs(0, 10**5000, 1.0), ConfigurationError, "n"),
    (lambda: BoosterConfig("smooth", "entropy", 10, k=10**5000), ConfigurationError, "k"),
    (lambda: predict([(Stump(0, 10**5000, 1), 1.0)], np.ones((2, 1))), UsageError, "threshold"),
], ids=["margin", "n", "k", "threshold"])
def test_refusals_show_ints_past_the_digit_limit(make, refused, shown):
    with pytest.raises(refused, match=f"{shown} .*<an int of 1661[0-9] bits>"):
        make()


class TestMaboost:
    def test_single_perfect_stump_entropy(self):
        # one stump of edge 1 under entropy (L = 1): eta = 1, error 0
        data = gen_blobs(0, 100, 0.5)
        result = run(_cfg(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 50), data)
        assert len(result.traces) == 1
        assert result.traces[0].gamma == pytest.approx(1.0)
        assert result.traces[0].eta == pytest.approx(1.0)
        assert result.traces[-1].train_error == 0.0
        assert result.status == "target_reached"

    @pytest.mark.parametrize("g", [QUADRATIC, NEGATIVE_ENTROPY], ids=lambda g: g.value)
    @pytest.mark.parametrize("algo", [Algorithm.MABOOST_ACTIVE, Algorithm.MABOOST_LAZY])
    def test_bound_invariants_on_noisy_data(self, algo, g):
        data = gen_noisy(1, 120, 0.15)
        result = run(_cfg(algo, g, 150), data)
        sum_gamma_sq = 0.0
        for tr in result.traces:
            sum_gamma_sq += tr.gamma**2
            if g is NEGATIVE_ENTROPY:
                bound = math.exp(-0.5 * sum_gamma_sq)
            else:
                bound = 1.0 / (1.0 + sum_gamma_sq)
            assert tr.train_error <= bound + 1e-9
            assert tr.bound == pytest.approx(bound)

    def test_active_equals_lazy_under_entropy(self):
        data = gen_noisy(0, 100, 0.1)
        active = run(_cfg(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 150), data)
        lazy = run(_cfg(Algorithm.MABOOST_LAZY, NEGATIVE_ENTROPY, 150), data)
        assert len(active.traces) == len(lazy.traces)
        assert [h for h, _ in active.hypotheses] == [h for h, _ in lazy.hypotheses]
        for a, b in zip(active.traces, lazy.traces):
            assert a.gamma == pytest.approx(b.gamma, abs=1e-12)
            assert a.train_error == b.train_error
        np.testing.assert_allclose(active.weights, lazy.weights, atol=1e-12)

    def test_distribution_invariants(self):
        data = gen_noisy(2, 80, 0.1)
        for g in (QUADRATIC, NEGATIVE_ENTROPY):
            result = run(_cfg(Algorithm.MABOOST_ACTIVE, g, 60), data)
            assert abs(result.weights.sum() - 1.0) <= 1e-10
            assert np.all(result.weights >= 0)

    def test_monotone_progress_sum(self):
        data = gen_noisy(2, 80, 0.1)
        result = run(_cfg(Algorithm.MABOOST_ACTIVE, QUADRATIC, 60), data)
        acc, prev = 0.0, 0.0
        for tr in result.traces:
            acc += tr.eta * tr.gamma
            assert acc > prev
            prev = acc

    def test_zero_edge_after_the_first_round_stops_the_run(self):
        data = Dataset(np.ones((3, 1)), np.array([1.0, -1.0, -1.0]))
        result = run(_cfg(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 10), data)
        assert result.status == "zero_edge" and len(result.traces) == 3

    def test_no_weak_learnability(self):
        data = Dataset([[1.0], [1.0]], [1.0, -1.0])
        with pytest.raises(NoWeakLearnabilityError):
            run(_cfg(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 10), data)

    def test_broken_bound_raises_naming_round_and_family(self, monkeypatch):
        monkeypatch.setattr("mirrorboost.bounds.theorem1", lambda *_: 0.0)
        data = gen_noisy(0, 100, 0.1)
        with pytest.raises(BoundViolationError, match=r"^round 1: the training-error \(entropy\)"):
            run(_cfg(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 5), data)

    def test_determinism(self):
        data = gen_noisy(3, 80, 0.1)
        a = run(_cfg(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 40), data)
        b = run(_cfg(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 40), data)
        assert a.traces == b.traces
        assert a.hypotheses == b.hypotheses

    def test_adaboost_degeneration(self):
        # one active entropic round is exactly a multiplicative-weights round
        data = gen_noisy(1, 60, 0.1)
        result = run(_cfg(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 1), data)
        (h, eta), tr = result.hypotheses[0], result.traces[0]
        d = loss_vector(data.features, data.labels, h)
        direct = np.full(data.n, 1.0 / data.n) * np.exp(eta * d)
        direct /= direct.sum()
        np.testing.assert_allclose(result.weights, direct, atol=1e-10)
        assert eta == pytest.approx(tr.gamma)


class TestMaxMargin:
    def test_one_round_matches_maboost(self):
        data = gen_noisy(0, 100, 0.3)
        mm = run(_cfg(Algorithm.MAX_MARGIN, NEGATIVE_ENTROPY, 1), data)
        mb = run(_cfg(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 1), data)
        assert mm.hypotheses == mb.hypotheses

    def test_step_schedule_and_margin_bounds(self):
        data = gen_blobs(1, 60, 0.4)
        result = run(_cfg(Algorithm.MAX_MARGIN, NEGATIVE_ENTROPY, 200), data)
        assert len(result.traces) == 200  # runs the full budget
        gamma_max = max(tr.gamma for tr in result.traces)
        for tr in result.traces:
            assert tr.eta == pytest.approx(tr.gamma / math.sqrt(tr.t))
            assert tr.margin <= gamma_max + 1e-12
        assert result.traces[-1].margin > 0

    def test_margin_of_perfect_single_stump(self):
        # one stump that separates the data votes a_i f(x_i) = eta on every sample
        result = run(_cfg(Algorithm.MAX_MARGIN, NEGATIVE_ENTROPY, 1), gen_blobs(0, 100, 0.5))
        assert result.traces[0].margin == 1.0


class TestSmooth:
    def test_caps_respected_every_round(self):
        data = gen_noisy(0, 100, 0.3)
        k = 10.0
        result = run(
            _cfg(Algorithm.SMOOTH, NEGATIVE_ENTROPY, 100, target_error=1.0 / k, k=k),
            data,
        )
        for tr in result.traces:
            assert tr.max_weight <= k / data.n + 1e-12

    def test_k_equals_n_reduces_to_maboost(self):
        data = gen_noisy(0, 100, 0.1)
        smooth = run(
            _cfg(Algorithm.SMOOTH, NEGATIVE_ENTROPY, 150, target_error=0.01, k=100.0),
            data,
        )
        plain = run(
            _cfg(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 150, target_error=0.01),
            data,
        )
        assert len(smooth.traces) == len(plain.traces)
        for a, b in zip(smooth.traces, plain.traces):
            assert (a.gamma, a.eta, a.train_error) == (b.gamma, b.eta, b.train_error)
        np.testing.assert_array_equal(smooth.weights, plain.weights)

    def test_stops_at_one_over_k(self):
        data = gen_blobs(0, 200, 0.3)
        k = 20.0
        result = run(
            _cfg(Algorithm.SMOOTH, NEGATIVE_ENTROPY, 500, target_error=1.0 / k, k=k),
            data,
        )
        assert result.status == "target_reached"
        assert result.traces[-1].train_error <= 1.0 / k


class TestCombined:
    def test_requires_subset_flags(self):
        data = gen_noisy(0, 40, 0.1)
        with pytest.raises(ConfigurationError):
            run(_cfg(Algorithm.COMBINED, NEGATIVE_ENTROPY, 10, k=4.0), data)

    def test_empty_b_reduces_to_maboost(self):
        base = gen_noisy(0, 100, 0.1)
        flagged = Dataset(base.features, base.labels, np.zeros(base.n, bool))
        combined = run(_cfg(Algorithm.COMBINED, NEGATIVE_ENTROPY, 150, k=4.0), flagged)
        plain = run(_cfg(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 150), base)
        assert len(combined.traces) == len(plain.traces)
        for a, b in zip(combined.traces, plain.traces):
            assert (a.gamma, a.eta, a.train_error) == (b.gamma, b.eta, b.train_error)
            assert a.eps_a == a.train_error and a.eps_b == 0.0
        np.testing.assert_array_equal(combined.weights, plain.weights)

    def test_empty_a_reduces_to_smooth(self):
        base = gen_noisy(0, 100, 0.3)
        flagged = Dataset(base.features, base.labels, np.ones(base.n, bool))
        combined = run(_cfg(Algorithm.COMBINED, NEGATIVE_ENTROPY, 150, k=4.0), flagged)
        smooth = run(
            _cfg(Algorithm.SMOOTH, NEGATIVE_ENTROPY, 150, target_error=0.25, k=4.0),
            base,
        )
        assert len(combined.traces) == len(smooth.traces)
        for a, b in zip(combined.traces, smooth.traces):
            assert (a.gamma, a.eta, a.train_error) == (b.gamma, b.eta, b.train_error)
        np.testing.assert_array_equal(combined.weights, smooth.weights)

    def test_caps_bind_only_on_b(self):
        from mirrorboost.data import gen_combined

        data = gen_combined(0, 60, 20, 0.3)
        k = 4.0
        result = run(_cfg(Algorithm.COMBINED, NEGATIVE_ENTROPY, 50, k=k), data)
        assert np.all(result.weights[data.subset_flags] <= k / data.n + 1e-12)
        # large k drives the secondary-subset error down (mechanism check)
        big_k = run(_cfg(Algorithm.COMBINED, NEGATIVE_ENTROPY, 500, k=16.0), data)
        assert big_k.traces[-1].eps_b <= 1.0 / 16.0 + 0.1


class TestSparse:
    def test_round_one_hand_arithmetic_zero_mode(self):
        # separable pair: gamma = 1, ||y_1||_1 = 1, eta = 1/N = 0.5,
        # y_2 = max(0, 0.5 - 0.5) = 0 on both samples
        data = Dataset([[0.0], [1.0]], [1.0, -1.0])
        result = run(
            _cfg(Algorithm.SPARSE, QUADRATIC, 10, alpha_mode=AlphaMode.ZERO), data
        )
        tr = result.traces[0]
        assert tr.gamma == pytest.approx(1.0, abs=1e-12)
        assert tr.eta == pytest.approx(0.5, abs=1e-12)
        assert tr.y_l1 == pytest.approx(1.0, abs=1e-12)
        assert tr.train_error == 0.0
        np.testing.assert_allclose(result.weights, [0.0, 0.0], atol=1e-12)

    def test_round_one_hand_arithmetic_half_mode(self):
        # eta = 1/(2N) = 0.25, alpha = min(1, 0.5) = 0.5, penalty 0.125,
        # y_2 = max(0, 0.5 - 0.25 - 0.125) = 0.125 on both samples
        data = Dataset([[0.0], [1.0]], [1.0, -1.0])
        result = run(
            _cfg(Algorithm.SPARSE, QUADRATIC, 10, alpha_mode=AlphaMode.HALF), data
        )
        tr = result.traces[0]
        assert tr.eta == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(result.weights, [0.125, 0.125], atol=1e-12)

    @pytest.mark.parametrize("mode,c", [(AlphaMode.ZERO, 1.0), (AlphaMode.HALF, 0.25)])
    def test_bound_invariant(self, mode, c):
        data = gen_noisy(0, 100, 0.1)
        result = run(_cfg(Algorithm.SPARSE, QUADRATIC, 80, alpha_mode=mode), data)
        sum_term = 0.0
        for tr in result.traces:
            sum_term += tr.gamma**2 * tr.y_l1**2
            assert tr.train_error <= 1.0 / (1.0 + c * sum_term) + 1e-9

    def test_mass_floor_zero_mode(self):
        data = gen_noisy(0, 100, 0.1)
        result = run(_cfg(Algorithm.SPARSE, QUADRATIC, 80, alpha_mode=AlphaMode.ZERO), data)
        for prev, tr in zip(result.traces, result.traces[1:]):
            if prev.train_error > 0:
                assert tr.y_l1 >= 1.0 / data.n - 1e-9

    def test_half_mode_produces_sparsity(self):
        data = gen_noisy(0, 200, 0.1)
        result = run(_cfg(Algorithm.SPARSE, QUADRATIC, 50, alpha_mode=AlphaMode.HALF), data)
        assert min(tr.nnz for tr in result.traces) < data.n

    def test_zero_mass_collapses_the_run(self, monkeypatch):
        # half mode: zero mode's 1/N mass floor would fail round 1 first
        monkeypatch.setattr(boosting, "project_orthant_l1", lambda z, lam: np.zeros_like(z))
        data = gen_noisy(0, 100, 0.1)
        result = run(_cfg(Algorithm.SPARSE, QUADRATIC, 10, alpha_mode=AlphaMode.HALF), data)
        assert result.status == "collapsed"
        assert len(result.traces) == len(result.hypotheses) == 1
        assert not result.weights.any()


class TestMada:
    def test_single_sample_immediate_stop(self):
        data = Dataset([[1.0]], [1.0])
        result = run(_cfg(Algorithm.MADA, NEGATIVE_ENTROPY, 10), data)
        assert len(result.traces) == 1
        assert result.traces[0].train_error == 0.0
        assert result.status == "perfect"

    def test_weight_identity(self):
        # y_t is exactly min(1, exp(sum of eta_l d_l)) through round t
        data = gen_noisy(0, 100, 0.1)
        result = run(_cfg(Algorithm.MADA, NEGATIVE_ENTROPY, 200), data)
        log_z = np.zeros(data.n)
        for (h, eta), tr in zip(result.hypotheses, result.traces):
            log_z += eta * loss_vector(data.features, data.labels, h)
            y = np.exp(np.minimum(log_z, 0.0))
            assert tr.y_l1 == pytest.approx(float(y.sum()), abs=1e-10)
        np.testing.assert_allclose(result.weights, y / y.sum(), atol=1e-10)

    def test_mass_floor_and_rate(self):
        data = gen_noisy(0, 100, 0.1)
        result = run(_cfg(Algorithm.MADA, NEGATIVE_ENTROPY, 300), data)
        gamma_min = math.inf
        for tr in result.traces:
            gamma_min = min(gamma_min, tr.gamma)
            assert tr.y_l1 >= data.n * tr.train_error - 1e-9
            assert tr.train_error**2 <= 1.0 / (tr.t * gamma_min**2) + 1e-9

    def test_eta_couples_to_previous_error(self):
        data = gen_noisy(0, 100, 0.1)
        result = run(_cfg(Algorithm.MADA, NEGATIVE_ENTROPY, 50), data)
        assert result.traces[0].eta == pytest.approx(result.traces[0].gamma)
        for prev, tr in zip(result.traces, result.traces[1:]):
            assert tr.eta == pytest.approx(prev.train_error * tr.gamma)

    def test_fixed_point_mode_also_satisfies_rate(self):
        data = gen_noisy(0, 100, 0.1)
        result = run(
            _cfg(Algorithm.MADA, NEGATIVE_ENTROPY, 300, mada_eta=MadaEta.FIXED_POINT),
            data,
        )
        gamma_min = math.inf
        for tr in result.traces:
            gamma_min = min(gamma_min, tr.gamma)
            assert tr.train_error**2 <= 1.0 / (tr.t * gamma_min**2) + 1e-9

    def test_fixed_point_keeps_a_step_that_separates(self):
        """One stump separates the blobs: the step at the previous error
        leaves no error, so its refinement is 0 and the first step is kept."""
        result = run(
            _cfg(Algorithm.MADA, NEGATIVE_ENTROPY, 5, mada_eta=MadaEta.FIXED_POINT),
            gen_blobs(0, 6, 0.3),
        )
        assert [tr.train_error for tr in result.traces] == [0.0]
        assert result.traces[0].eta == result.traces[0].gamma > 0.0
        assert result.status == "perfect"


@given(
    st.lists(
        st.tuples(
            st.one_of(st.floats(), st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])),
            st.sampled_from([-1.0, 1.0]),
        ),
        min_size=1,
        max_size=40,
    )
)
@example([(-0.0, -1.0), (np.nan, 1.0), (np.nan, -1.0), (0.0, -1.0)])
@settings(max_examples=300, deadline=None)
def test_error_is_the_share_the_sign_vote_gets_wrong(pairs):
    """The counted error is np.mean(sign_pm(score) != labels), as a Python float."""
    score, labels = (np.array(column) for column in zip(*pairs))
    got = boosting._error(score, labels)
    assert type(got) is float
    assert got == float(np.mean(sign_pm(score) != labels))


def _predict_reference(hypotheses, features):
    """The vote as it was summed before each column was read once: every
    stump's ±1 vote from its difference test, times eta, in ensemble order."""
    score = np.zeros(len(features))
    for h, eta in hypotheses:
        score += eta * h.polarity * sign_pm(features[:, h.feature] - h.threshold)
    return sign_pm(score)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _ensembles(draw):
    """A finite (n, d) matrix of few distinct values, and stumps that repeat
    its columns, sit on its values, on ±inf or on ±0.0, with any finite eta."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    value = st.one_of(_finite, st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]))
    x = np.array(draw(st.lists(value, min_size=n * d, max_size=n * d))).reshape(n, d)
    hypotheses = []
    for _ in range(draw(st.integers(1, 10))):
        feature = draw(st.integers(0, d - 1))
        threshold = draw(st.one_of(
            st.sampled_from([float(v) for v in x[:, feature]]),
            st.sampled_from([np.inf, -np.inf, 0.0, -0.0]),
            value,
        ))
        eta = draw(st.one_of(_finite, st.sampled_from([0.0, -0.0, -0.5, 0.5])))
        hypotheses.append((Stump(feature, threshold, draw(st.sampled_from([-1, 1]))), eta))
    return hypotheses, x


@given(_ensembles())
@example((
    [(Stump(0, 0.0, 1), 0.5), (Stump(0, -np.inf, -1), 0.25), (Stump(1, np.inf, 1), -0.0),
     (Stump(0, -0.0, -1), 0.25), (Stump(1, 2.0, 1), 0.0)],
    np.array([[-0.0, 2.0], [0.0, 1.0], [-1.0, 3.0]]),
))
@settings(max_examples=300, deadline=None)
def test_predict_gives_the_labels_of_the_difference_test_vote(ensemble):
    hypotheses, x = ensemble
    with np.errstate(over="ignore", invalid="ignore"):  # huge etas overflow either way
        expected = _predict_reference(hypotheses, x)
        got = predict(hypotheses, x)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def test_predict_holds_each_column_it_reads_once():
    rng = np.random.default_rng(9)
    n = 100_000
    x = rng.normal(size=(n, 2))
    hypotheses = [
        (Stump(j % 2, float(t), 1 if j % 3 else -1), 0.1 * (j + 1))
        for j, t in enumerate(rng.normal(size=8))
    ]
    expected = _predict_reference(hypotheses, x)
    tracemalloc.start()
    try:
        got = predict(hypotheses, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == expected.tobytes()
    # the 2 column copies, the score, one vote and its mask or the labels
    assert peak <= (2 + 3) * 8 * n


class TestEnsemble:
    def test_predict_single_stump(self):
        x = np.array([[-1.0], [1.0]])
        h = Stump(0, 0.0, 1)
        np.testing.assert_array_equal(predict([(h, 0.7)], x), h.predict(x))

    def test_tied_vote_breaks_positive(self):
        x = np.array([[0.5]])
        hyps = [(Stump(0, 0.0, 1), 1.0), (Stump(0, 0.0, -1), 1.0)]
        np.testing.assert_array_equal(predict(hyps, x), [1.0])

    def test_empty_ensemble_rejected(self):
        with pytest.raises(UsageError):
            predict([], np.zeros((1, 1)))

    def test_model_round_trip(self, tmp_path):
        data = gen_noisy(0, 80, 0.1)
        result = run(_cfg(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 30), data)
        path = str(tmp_path / "model.txt")
        save_model(result, path)
        algo, geom, hyps = load_model(path)
        assert algo == "maboost-active" and geom == "entropy"
        assert hyps == result.hypotheses
        np.testing.assert_array_equal(
            predict(hyps, data.features), predict(result.hypotheses, data.features)
        )

    def test_model_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0.0 1 0.5\n")
        with pytest.raises(UsageError):
            load_model(str(path))

    def test_model_header_without_geometry_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# algorithm=mada\n0 0.0 1 0.5\n")
        with pytest.raises(ParseError, match="line 1"):
            load_model(str(path))

    @pytest.mark.parametrize("header", [
        "algorithm=foo geometry=bar", "algorithm=foo geometry=entropy",
        "algorithm=mada geometry=bar",
    ])
    def test_model_header_with_an_unknown_name_rejected(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"# {header}\n0 0.0 1 0.5\n")
        with pytest.raises(ParseError, match="line 1"):
            load_model(str(path))

    # the last six parse as numbers: polarity 2, feature -1 (which would read
    # the last column), a NaN threshold, non-finite etas and polarity 0
    @pytest.mark.parametrize("line", [
        "0 abc 1 0.5", "0 0.0 1", "0 0.0 1 0.5 7",
        "0 0.5 2 1.0", "-1 0.5 1 1.0", "0 nan 1 1.0", "0 0.5 1 nan", "0 0.5 1 inf",
        "0 0.5 0 1.0",
    ])
    def test_model_malformed_line_rejected(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"# algorithm=maboost-active geometry=entropy\n0 0.0 1 0.5\n{line}\n")
        with pytest.raises(ParseError, match="line 3"):
            load_model(str(path))

    def test_model_sentinel_thresholds_and_zero_eta_load(self, tmp_path):
        path = tmp_path / "m.txt"
        # with a blank line between the stumps, which is skipped
        path.write_text("# algorithm=mada geometry=entropy\n0 -inf 1 0.0\n\n1 inf -1 0.5\n")
        _, _, hyps = load_model(str(path))
        assert hyps == [(Stump(0, -math.inf, 1), 0.0), (Stump(1, math.inf, -1), 0.5)]

    @pytest.mark.parametrize(
        "make, error, message",
        [
            (lambda path: None, UsageError, "cannot read"),
            (lambda path: path.mkdir(), UsageError, "cannot read"),
            (lambda path: path.write_bytes(b"# algorithm=mada geometry=\xff\n"), ParseError,
             "is not UTF-8 text"),
        ],
        ids=["missing", "directory", "not-utf8"],
    )
    def test_model_file_unreadable_is_typed(self, tmp_path, make, error, message):
        path = tmp_path / "m.txt"
        make(path)
        with pytest.raises(error, match=message):
            load_model(str(path))

    def test_predict_takes_a_nested_list_as_a_matrix(self):
        hyps = [(Stump(0, 0.0, 1), 0.5), (Stump(1, 2.0, -1), 0.25)]
        x = [[-1.0, 3.0], [1.0, 1.0], [0.0, 2.0]]
        np.testing.assert_array_equal(predict(hyps, x), predict(hyps, np.array(x)))

    @pytest.mark.parametrize("features", [np.zeros(5), [1.0, 2.0], np.zeros((2, 1, 1)), 0.0],
                             ids=["vector", "flat-list", "3-d", "scalar"])
    def test_predict_refuses_features_that_are_not_a_matrix(self, features):
        with pytest.raises(UsageError, match="2-D"):
            predict([(Stump(0, 0.0, 1), 1.0)], features)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, None])  # None converts to NaN
    def test_predict_refuses_non_finite_features_in_a_column_it_reads(self, value):
        features = [[0.5, 0.0], [value, 0.0]]
        with pytest.raises(UsageError, match="feature 0 contains NaN or Inf"):
            predict([(Stump(0, 0.0, 1), 1.0)], features)

    def test_predict_ignores_non_finite_features_in_a_column_it_does_not_read(self):
        features = np.array([[0.5, np.nan], [-0.5, np.inf]])
        np.testing.assert_array_equal(predict([(Stump(0, 0.0, 1), 1.0)], features), [1, -1])

    @pytest.mark.parametrize("features", [[[1.0], [1.0, 2.0]], [["a"]]], ids=["ragged", "string"])
    def test_predict_refuses_a_list_that_is_not_a_numeric_matrix(self, features):
        with pytest.raises(UsageError, match="numeric"):
            predict([(Stump(0, 0.0, 1), 1.0)], features)

    def test_predict_names_the_first_non_finite_column_in_ensemble_order(self):
        features = np.array([[np.nan, 0.5, np.inf], [0.5, 0.5, 0.5]])
        hyps = [(Stump(1, 0.0, 1), 1.0), (Stump(2, 0.0, 1), 1.0), (Stump(0, 0.0, 1), 1.0)]
        with pytest.raises(UsageError, match="feature 2 contains NaN or Inf"):
            predict(hyps, features)

    @pytest.mark.parametrize("h, eta, fault", [
        (Stump(-1, 0.0, 1), 1.0, "feature -1 is not an integer in [0, 2)"),
        (Stump(True, 0.0, 1), 1.0, "feature True is not an integer"),
        (Stump(1.5, 0.0, 1), 1.0, "feature 1.5 is not an integer"),
        (Stump(2, 0.0, 1), 1.0, "feature 2 is not an integer in [0, 2), one of the data's 2"),
        (Stump(0, 0.0, 2), 1.0, "polarity 2 is not ±1"),
        (Stump(0, 0.0, 0), 1.0, "polarity 0 is not ±1"),
        (Stump(0, math.nan, 1), 1.0, "threshold nan is not a number"),
        (Stump(0, "0.5", 1), 1.0, "threshold '0.5' is not a number"),
        (Stump(0, 0.0, 1), math.nan, "eta nan is not finite"),
        (Stump(0, 0.0, 1), -math.inf, "eta -inf is not finite"),
        (Stump(0, 0.0, 1), None, "eta None is not finite"),
    ])
    def test_predict_refuses_a_malformed_hypothesis(self, h, eta, fault):
        # hypotheses[0] reads a NaN column: every hypothesis is checked
        # before any column, as the feature range always was
        features = np.array([[np.nan, 0.0], [0.5, 1.0]])
        with pytest.raises(UsageError, match=re.escape(f"hypotheses[1]: {fault}")):
            predict([(Stump(0, 0.0, 1), 1.0), (h, eta)], features)

    def test_predict_takes_a_generator_of_hypotheses(self):
        hyps = (h for h in [(Stump(0, 0.0, 1), 1.0)])
        np.testing.assert_array_equal(predict(hyps, [[-1.0], [1.0]]), [-1, 1])

    def test_predict_refuses_an_empty_iterator(self):
        with pytest.raises(UsageError, match="empty ensemble"):
            predict(iter([]), [[-1.0], [1.0]])

    def test_predict_feature_beyond_the_columns_rejected(self):
        with pytest.raises(UsageError, match="2 columns"):
            predict([(Stump(0, 0.0, 1), 1.0), (Stump(2, 0.0, 1), 1.0)], np.zeros((3, 2)))
