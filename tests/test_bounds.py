"""Per-round bound checks: one record that meets each bound, one that breaks it."""

import math

import pytest

from mirrorboost.boosting import Algorithm
from mirrorboost.bounds import RoundChecks, mada_rate, masses_after


def _held(checks):
    return [holds for _, holds in checks]


class TestTheorem1:
    @pytest.mark.parametrize(
        "geometry, bound", [("entropy", math.exp(-0.125)), ("quadratic", 0.8)]
    )
    def test_meets_and_breaks(self, geometry, bound):
        for error, ok in ((0.5, True), (0.95, False)):
            column, checks = RoundChecks("maboost-active", geometry, 10).add(1, 0.5, error)
            assert column == pytest.approx(bound)
            assert checks == [(f"training-error ({geometry})", ok)]

    def test_sums_gamma_squared_over_rounds(self):
        rc = RoundChecks("maboost-lazy", "quadratic", 10)
        rc.add(1, 0.5, 0.5)
        column, _ = rc.add(2, 0.5, 0.5)
        assert column == pytest.approx(1.0 / 1.5)


class TestSmooth:
    def test_meets_and_breaks_at_or_above_one_over_k(self):
        # gamma = 3 puts the bound at exp(-4.5) ~ 0.011, far below 1/k
        _, ok = RoundChecks("smooth", "entropy", 10, k=4.0).add(1, 3.0, 0.005)
        _, bad = RoundChecks("smooth", "entropy", 10, k=4.0).add(1, 3.0, 0.3)
        assert _held(ok) == [True] and _held(bad) == [False]

    def test_error_below_one_over_k_passes(self):
        column, checks = RoundChecks("smooth", "entropy", 10, k=4.0).add(1, 3.0, 0.2)
        assert 0.2 > column
        assert checks == [("smooth-training-error (entropy)", True)]


class TestCombined:
    def test_meets_and_breaks(self):
        # n / n_A = 2 times exp(-2) ~ 0.271
        for eps_a, ok in ((0.2, True), (0.3, False)):
            rc = RoundChecks("combined", "entropy", 10, n_a=5)
            column, checks = rc.add(1, 2.0, 0.9, eps_a=eps_a)
            assert column == pytest.approx(2.0 * math.exp(-2.0))
            assert checks == [("combined-primary-error (entropy)", ok)]

    def test_empty_subset_a_yields_no_checks(self):
        rc = RoundChecks("combined", "entropy", 10, n_a=0)
        assert rc.families == ()
        assert rc.add(1, 0.5, 1.0, eps_a=1.0) == (None, [])


class TestSparse:
    def test_bound_meets_and_breaks(self):
        # zero mode: 1/(1 + 0.5^2 * 1^2) = 0.8; half mode: 1/(1 + 0.25 * 0.25)
        for half, bound in ((False, 0.8), (True, 1.0 / 1.0625)):
            for error, ok in ((0.5, True), (0.99, False)):
                rc = RoundChecks("sparse", "quadratic", 10, half=half)
                column, checks = rc.add(1, 0.5, error, y_l1=1.0)
                assert column == pytest.approx(bound)
                assert checks[0] == ("sparse-training-error", ok)

    def test_mass_floor_meets_and_breaks(self):
        for mass, ok in ((0.5, True), (0.05, False)):
            rc = RoundChecks("sparse", "quadratic", 10)
            _, checks = rc.add(1, 0.5, 0.1, y_l1=1.0, mass_after=mass)
            assert checks[1] == ("sparse-mass-floor", ok)

    @pytest.mark.parametrize("error, mass", [(0.1, None), (0.0, 0.05)])
    def test_mass_floor_skipped(self, error, mass):
        rc = RoundChecks("sparse", "quadratic", 10)
        _, checks = rc.add(1, 0.5, error, y_l1=1.0, mass_after=mass)
        assert [family for family, _ in checks] == ["sparse-training-error"]

    def test_half_mode_has_no_mass_floor(self):
        rc = RoundChecks("sparse", "quadratic", 10, half=True)
        assert rc.families == ("sparse-training-error",)
        _, checks = rc.add(1, 0.5, 0.1, y_l1=1.0, mass_after=0.0)
        assert len(checks) == 1


class TestMada:
    def test_mass_floor_meets_and_breaks(self):
        for y_l1, ok in ((2.0, True), (0.5, False)):
            _, checks = RoundChecks("mada", "entropy", 10).add(1, 0.5, 0.1, y_l1=y_l1)
            assert checks[0] == ("mada-mass-floor", ok)

    def test_rate_meets_and_breaks(self):
        # at t = 100 with gamma_min = 0.5: error^2 <= 0.04
        for error, ok in ((0.1, True), (0.3, False)):
            rc = RoundChecks("mada", "entropy", 10)
            _, checks = rc.add(100, 0.5, error, y_l1=10.0)
            assert checks[1] == ("mada-convergence-rate", ok)

    def test_rate_uses_the_smallest_edge_so_far(self):
        rc = RoundChecks("mada", "entropy", 10)
        rc.add(99, 0.5, 0.1, y_l1=10.0)
        # 0.15^2 <= 1/(100 * 0.5^2) = 0.04, but not <= 1/(100 * 1.0^2)
        _, checks = rc.add(100, 1.0, 0.15, y_l1=10.0)
        assert checks[1] == ("mada-convergence-rate", True)

    def test_rate_with_a_huge_edge_fails_instead_of_overflowing(self):
        # gamma_min**2 would raise OverflowError; the square is inf, the rate 0
        assert mada_rate(1, 1e200) == 0.0
        _, checks = RoundChecks("mada", "entropy", 200).add(1, 1e200, 0.1, y_l1=150.0)
        assert checks == [("mada-mass-floor", True), ("mada-convergence-rate", False)]


def test_max_margin_has_no_per_round_bound():
    rc = RoundChecks("maxmargin", "entropy", 10)
    assert rc.families == ()
    assert rc.add(1, 0.5, 0.5) == (None, [])


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
    assert RoundChecks(algorithm, "entropy", 10, 4.0, n_a, half).keys == _OLD_RECORD_KEYS[algorithm]


def test_combined_without_subset_a_still_names_its_keys():
    assert RoundChecks("combined", "entropy", 10, n_a=0).keys == ("gamma", "eps_a")


class TestMassesAfter:
    def test_last_mass_known(self):
        assert masses_after([1.0, 0.8, 0.5], 0.3) == [0.8, 0.5, 0.3]

    def test_last_mass_unknown(self):
        assert masses_after([1.0, 0.8, 0.5], None) == [0.8, 0.5, None]

    def test_one_round(self):
        assert masses_after([1.0], 0.7) == [0.7]
        assert masses_after([None], None) == [None]
