"""Per-round bound checks: one record that meets each bound, one that breaks it."""

import math

import numpy as np
import pytest

from mirrorboost.boosting import FORCED_GEOMETRY, Algorithm, BoosterConfig
from mirrorboost.bounds import RoundChecks, mada_rate, theorem2
from mirrorboost.errors import ConfigurationError
from mirrorboost.geometry import NEGATIVE_ENTROPY, QUADRATIC


def _checks(algorithm, geometry, n, k=None, n_a=None, half=False):
    """The checks of a run on n samples, n_a of them in subset A, from its config."""
    mode = ("half" if half else "zero") if algorithm == "sparse" else None
    config = BoosterConfig(algorithm, geometry, 1, k=k, alpha_mode=mode)
    return RoundChecks(config, n, None if n_a is None else n - n_a)


def _rec(t, gamma, train_error, **columns):
    """A round record: t, gamma, train_error and any other columns (y_l1, eps_a)."""
    return {"t": t, "gamma": gamma, "train_error": train_error, **columns}


def _held(checks):
    return [holds for _, holds in checks]


class TestTheorem1:
    @pytest.mark.parametrize(
        "geometry, bound", [("entropy", math.exp(-0.125)), ("quadratic", 0.8)]
    )
    def test_meets_and_breaks(self, geometry, bound):
        for error, ok in ((0.5, True), (0.95, False)):
            column, checks = _checks("maboost-active", geometry, 10).add(_rec(1, 0.5, error))
            assert column == pytest.approx(bound)
            assert checks == [(f"training-error ({geometry})", ok)]

    def test_sums_gamma_squared_over_rounds(self):
        rc = _checks("maboost-lazy", "quadratic", 10)
        rc.add(_rec(1, 0.5, 0.5))
        column, _ = rc.add(_rec(2, 0.5, 0.5))
        assert column == pytest.approx(1.0 / 1.5)


class TestSmooth:
    def test_meets_and_breaks_at_or_above_one_over_k(self):
        # gamma = 3 puts the bound at exp(-4.5) ~ 0.011, far below 1/k
        _, ok = _checks("smooth", "entropy", 10, k=4.0).add(_rec(1, 3.0, 0.005))
        _, bad = _checks("smooth", "entropy", 10, k=4.0).add(_rec(1, 3.0, 0.3))
        assert _held(ok) == [True] and _held(bad) == [False]

    def test_error_below_one_over_k_passes(self):
        column, checks = _checks("smooth", "entropy", 10, k=4.0).add(_rec(1, 3.0, 0.2))
        assert 0.2 > column
        assert checks == [("smooth-training-error (entropy)", True)]


class TestCombined:
    def test_meets_and_breaks(self):
        # n / n_A = 2 times exp(-2) ~ 0.271
        for eps_a, ok in ((0.2, True), (0.3, False)):
            rc = _checks("combined", "entropy", 10, k=4.0, n_a=5)
            column, checks = rc.add(_rec(1, 2.0, 0.9, eps_a=eps_a))
            assert column == pytest.approx(2.0 * math.exp(-2.0))
            assert checks == [("combined-primary-error (entropy)", ok)]

    def test_empty_subset_a_yields_no_checks(self):
        rc = _checks("combined", "entropy", 10, k=4.0, n_a=0)
        assert rc.families == ()
        assert rc.add(_rec(1, 0.5, 1.0, eps_a=1.0)) == (None, [])


class TestSparse:
    def test_bound_meets_and_breaks(self):
        # zero mode: 1/(1 + 0.5^2 * 1^2) = 0.8; half mode: 1/(1 + 0.25 * 0.25)
        for half, bound in ((False, 0.8), (True, 1.0 / 1.0625)):
            for error, ok in ((0.5, True), (0.99, False)):
                rc = _checks("sparse", "quadratic", 10, half=half)
                column, checks = rc.add(_rec(1, 0.5, error, y_l1=1.0))
                assert column == pytest.approx(bound)
                assert checks[0] == ("sparse-training-error", ok)

    def test_mass_floor_meets_and_breaks(self):
        for mass, ok in ((0.5, True), (0.05, False)):
            rc = _checks("sparse", "quadratic", 10)
            _, checks = rc.add(_rec(1, 0.5, 0.1, y_l1=1.0), mass_after=mass)
            assert checks[1] == ("sparse-mass-floor", ok)

    @pytest.mark.parametrize("error, mass", [(0.1, None), (0.0, 0.05)])
    def test_mass_floor_skipped(self, error, mass):
        rc = _checks("sparse", "quadratic", 10)
        _, checks = rc.add(_rec(1, 0.5, error, y_l1=1.0), mass_after=mass)
        assert [family for family, _ in checks] == ["sparse-training-error"]

    def test_half_mode_has_no_mass_floor(self):
        rc = _checks("sparse", "quadratic", 10, half=True)
        assert rc.families == ("sparse-training-error",)
        _, checks = rc.add(_rec(1, 0.5, 0.1, y_l1=1.0), mass_after=0.0)
        assert len(checks) == 1


# the bound columns as bounds.py wrote them before theorem1 took n and n_a: the
# plain form, the combined form and the sparse form with its own running sum
def _plain_bound(sum_gamma_sq, entropic):
    return math.exp(-0.5 * sum_gamma_sq) if entropic else 1.0 / (1.0 + sum_gamma_sq)


def _combined_bound(sum_gamma_sq, entropic, n, n_a):
    if entropic:
        return min(1.0, n / n_a * math.exp(-0.5 * sum_gamma_sq))
    return min(1.0, n / (n_a * (1.0 + sum_gamma_sq)))


def _sparse_bound(sum_term, half):
    c = 0.25 if half else 1.0
    return 1.0 / (1.0 + c * sum_term)


@pytest.mark.parametrize("algorithm, geometry, half", [
    ("maboost-active", "entropy", False), ("maboost-lazy", "quadratic", False),
    ("smooth", "entropy", False), ("smooth", "quadratic", False),
    ("combined", "entropy", False), ("combined", "quadratic", False),
    ("sparse", "quadratic", False), ("sparse", "quadratic", True),
])
def test_bound_column_keeps_the_bits_of_each_former_formula(algorithm, geometry, half):
    rng = np.random.default_rng(31)
    entropic = geometry == "entropy"
    for _ in range(40):
        n = int(rng.integers(1, 10**6))
        n_a = int(rng.integers(1, n + 1))
        k = 4.0 if algorithm in ("smooth", "combined") else None
        rc = _checks(algorithm, geometry, n, k=k,
                     n_a=n_a if algorithm == "combined" else None, half=half)
        sum_gamma_sq = sum_term = 0.0
        for t in range(1, 80):
            gamma, y_l1 = 10.0 ** rng.uniform(-6.0, 0.0), 10.0 ** rng.uniform(-3.0, 1.0)
            column, _ = rc.add(_rec(t, gamma, 0.5, y_l1=y_l1, eps_a=0.5))
            sum_gamma_sq += gamma * gamma
            sum_term += gamma * gamma * y_l1 * y_l1
            if algorithm == "sparse":
                assert column == _sparse_bound(sum_term, half)
            elif algorithm == "combined":
                assert column == _combined_bound(sum_gamma_sq, entropic, n, n_a)
            else:
                assert column == _plain_bound(sum_gamma_sq, entropic)


class TestMada:
    def test_mass_floor_meets_and_breaks(self):
        for y_l1, ok in ((2.0, True), (0.5, False)):
            _, checks = _checks("mada", "entropy", 10).add(_rec(1, 0.5, 0.1, y_l1=y_l1))
            assert checks[0] == ("mada-mass-floor", ok)

    def test_rate_meets_and_breaks(self):
        # at t = 100 with gamma_min = 0.5: error^2 <= 0.04
        for error, ok in ((0.1, True), (0.3, False)):
            rc = _checks("mada", "entropy", 10)
            _, checks = rc.add(_rec(100, 0.5, error, y_l1=10.0))
            assert checks[1] == ("mada-convergence-rate", ok)

    def test_rate_uses_the_smallest_edge_so_far(self):
        rc = _checks("mada", "entropy", 10)
        rc.add(_rec(99, 0.5, 0.1, y_l1=10.0))
        # 0.15^2 <= 1/(100 * 0.5^2) = 0.04, but not <= 1/(100 * 1.0^2)
        _, checks = rc.add(_rec(100, 1.0, 0.15, y_l1=10.0))
        assert checks[1] == ("mada-convergence-rate", True)

    def test_rate_with_a_huge_edge_fails_instead_of_overflowing(self):
        # gamma_min**2 would raise OverflowError; the square is inf, the rate 0
        assert mada_rate(1, 1e200) == 0.0
        _, checks = _checks("mada", "entropy", 200).add(_rec(1, 1e200, 0.1, y_l1=150.0))
        assert checks == [("mada-mass-floor", True), ("mada-convergence-rate", False)]


@pytest.mark.parametrize("n", [1, 2, 10])
def test_theorem2_is_the_margin_floor_written_out(n):
    """gamma_min - nu(t), where L = n and C = B_R(e_i, uniform) = 1/2 (1 - 1/n) in the
    quadratic geometry, and L = 1 and C = log n in the entropic."""
    for geometry, dual_bound, c in ((QUADRATIC, float(n), 0.5 * (1.0 - 1.0 / n)),
                                    (NEGATIVE_ENTROPY, 1.0, math.log(n))):
        for t, gamma_min in ((1, 0.5), (2, 0.1), (100, 0.3), (2000, 0.02)):
            root = math.sqrt(t + 1.0) - 1.0
            nu = (1.0 + math.log(t)) / (2.0 * root) * gamma_min + dual_bound * c / (
                gamma_min * root)
            assert theorem2(t, geometry, n, gamma_min) == gamma_min - nu


def test_max_margin_has_no_per_round_bound():
    rc = _checks("maxmargin", "entropy", 10)
    assert rc.families == ()
    assert rc.add(_rec(1, 0.5, 0.5)) == (None, [])


# the record keys verify required of each algorithm before RoundChecks named them
_OLD_RECORD_KEYS = {
    "maboost-active": ("gamma", "train_error"),
    "maboost-lazy": ("gamma", "train_error"),
    "smooth": ("gamma", "train_error"),
    "combined": ("gamma", "eps_a"),
    "sparse": ("gamma", "y_l1", "train_error"),
    "mada": ("gamma", "y_l1", "train_error"),
    "maxmargin": (),
}


@pytest.mark.parametrize("algorithm", [a.value for a in Algorithm])
@pytest.mark.parametrize("half", [False, True])
def test_keys_are_the_record_keys_verify_required(algorithm, half):
    n_a = 5 if algorithm == "combined" else None
    k = 4.0 if algorithm in ("smooth", "combined") else None
    geometry = FORCED_GEOMETRY.get(Algorithm(algorithm), NEGATIVE_ENTROPY)
    assert _checks(algorithm, geometry, 10, k, n_a, half).keys == _OLD_RECORD_KEYS[algorithm]


def test_combined_without_subset_a_still_names_its_keys():
    assert _checks("combined", "entropy", 10, k=4.0, n_a=0).keys == ("gamma", "eps_a")


_TRAINING_KEYS, _MASS_KEYS = ("gamma", "train_error"), ("gamma", "y_l1", "train_error")


# every booster variant: each algorithm in each geometry it takes, sparse in each
# alpha mode, combined with and without subset A; its keys and its families
_VARIANTS = [
    ("maboost-active", "entropy", False, None, _TRAINING_KEYS, ("training-error (entropy)",)),
    ("maboost-active", "quadratic", False, None, _TRAINING_KEYS, ("training-error (quadratic)",)),
    ("maboost-lazy", "entropy", False, None, _TRAINING_KEYS, ("training-error (entropy)",)),
    ("maboost-lazy", "quadratic", False, None, _TRAINING_KEYS, ("training-error (quadratic)",)),
    ("maxmargin", "entropy", False, None, (), ()),
    ("maxmargin", "quadratic", False, None, (), ()),
    ("smooth", "entropy", False, None, _TRAINING_KEYS, ("smooth-training-error (entropy)",)),
    ("smooth", "quadratic", False, None, _TRAINING_KEYS,
     ("smooth-training-error (quadratic)",)),
    ("combined", "entropy", False, 5, ("gamma", "eps_a"), ("combined-primary-error (entropy)",)),
    ("combined", "quadratic", False, 5, ("gamma", "eps_a"),
     ("combined-primary-error (quadratic)",)),
    ("combined", "entropy", False, 0, ("gamma", "eps_a"), ()),
    ("combined", "quadratic", False, 0, ("gamma", "eps_a"), ()),
    ("sparse", "quadratic", False, None, _MASS_KEYS,
     ("sparse-training-error", "sparse-mass-floor")),
    ("sparse", "quadratic", True, None, _MASS_KEYS, ("sparse-training-error",)),
    ("mada", "entropy", False, None, _MASS_KEYS, ("mada-mass-floor", "mada-convergence-rate")),
]


def test_variants_cover_every_algorithm_in_every_geometry_it_takes():
    taken = {(a.value, g.value) for a in Algorithm
             for g in (QUADRATIC, NEGATIVE_ENTROPY) if FORCED_GEOMETRY.get(a, g) is g}
    assert {(algorithm, geometry) for algorithm, geometry, *_ in _VARIANTS} == taken


@pytest.mark.parametrize("algorithm, geometry, half, n_a, keys, families", _VARIANTS)
def test_keys_and_families_of_every_variant(algorithm, geometry, half, n_a, keys, families):
    k = 4.0 if algorithm in ("smooth", "combined") else None
    rc = _checks(algorithm, geometry, 10, k, n_a, half)
    assert (rc.keys, rc.families) == (keys, families)
    assert rc.reads_mass == ("sparse-mass-floor" in families)
    # the error each bound covers: the primary error on subset A for combined
    covered = {"combined": "eps_a", "maxmargin": None}.get(algorithm, "train_error")
    assert rc.error_key == covered


def _sparse_records(*masses):
    """Sparse zero-mode rounds with edge 0.5, error 0.1 and these ||y||_1 columns."""
    return [{"t": t, "gamma": 0.5, "train_error": 0.1, "y_l1": y_l1}
            for t, y_l1 in enumerate(masses, start=1)]


def _floors(replayed):
    """Round -> the sparse floor's verdict, for each replayed round that checks it."""
    return {rec["t"]: dict(held)["sparse-mass-floor"]
            for rec, _, held in replayed if "sparse-mass-floor" in dict(held)}


class TestReplay:
    def test_mass_after_a_round_is_the_next_rounds_y_l1(self):
        # floor 1/N = 0.1: only round 1, followed by a mass of 0.05, breaks it
        replayed = list(_checks("sparse", "quadratic", 10).replay(
            _sparse_records(1.0, 0.05, 0.5), 0.5))
        assert _floors(replayed) == {1: False, 2: True, 3: True}
        # the records come back in order, each with the bound column add computes
        direct = _checks("sparse", "quadratic", 10)
        assert [rec["t"] for rec, _, _ in replayed] == [1, 2, 3]
        for rec, bound, _ in replayed:
            assert bound == direct.add(_rec(rec["t"], 0.5, 0.1, y_l1=rec["y_l1"]))[0]

    def test_last_mass_checks_the_last_floor_and_none_skips_it(self):
        records = _sparse_records(1.0, 0.5)
        known = _checks("sparse", "quadratic", 10).replay(records, 0.05)
        assert _floors(known) == {1: True, 2: False}
        unknown = _checks("sparse", "quadratic", 10).replay(records)
        assert _floors(unknown) == {1: True}

    def test_one_round(self):
        (record,) = _sparse_records(1.0)
        [(rec, bound, held)] = _checks("sparse", "quadratic", 10).replay([record], 0.7)
        assert rec is record and bound == pytest.approx(0.8)
        assert held == [("sparse-training-error", True), ("sparse-mass-floor", True)]
        [(_, _, held)] = _checks("sparse", "quadratic", 10).replay([record])
        assert held == [("sparse-training-error", True)]


def test_combined_checks_require_n_b():
    config = BoosterConfig(Algorithm.COMBINED, NEGATIVE_ENTROPY, 1, k=4.0)
    with pytest.raises(ConfigurationError, match=r"\bn_b\b"):
        RoundChecks(config, 200)


@pytest.mark.parametrize("algorithm", [a for a in Algorithm if a is not Algorithm.COMBINED],
                         ids=lambda a: a.value)
def test_n_b_is_refused_off_combined(algorithm):
    k = 4.0 if algorithm is Algorithm.SMOOTH else None
    mode = "zero" if algorithm is Algorithm.SPARSE else None
    geometry = FORCED_GEOMETRY.get(algorithm, NEGATIVE_ENTROPY)
    config = BoosterConfig(algorithm, geometry, 1, k=k, alpha_mode=mode)
    with pytest.raises(ConfigurationError, match=f"n_b is for combined, not {algorithm.value}"):
        RoundChecks(config, 200, 50)
