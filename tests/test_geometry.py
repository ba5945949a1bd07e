"""Mirror map and divergence checks for both geometries."""

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorboost.errors import DomainError
from mirrorboost.geometry import (
    NEGATIVE_ENTROPY,
    QUADRATIC,
    divergence,
    inverse_mirror_map,
    mirror_map,
    xlogy,
)

GEOMETRIES = [QUADRATIC, NEGATIVE_ENTROPY]


def _rand_point(rng, g, dim):
    if g is QUADRATIC:
        return rng.normal(size=dim)
    return np.exp(rng.normal(size=dim))


def _rand_simplex(rng, dim):
    v = np.exp(rng.normal(size=dim))
    return v / v.sum()


class TestXlogy:
    """The NumPy xlogy keeps scipy off the import path; it must agree with scipy's."""

    EDGES = [0.0, 5e-324, 2.2e-308, 1e-300, 1.0, 1e300, math.inf, math.nan]

    def test_edge_values_equal_scipy(self):
        x, y = np.array(list(itertools.product(self.EDGES, self.EDGES))).T
        for sign in (1.0, -1.0):
            np.testing.assert_array_equal(
                xlogy(sign * x, y), scipy.special.xlogy(sign * x, y), strict=True
            )

    def test_random_pairs_within_two_ulp(self):
        # NumPy's SIMD log is not libm's log, so the last bits may differ
        rng = np.random.default_rng(7)
        x, y = 10.0 ** rng.uniform(-300.0, 300.0, size=(2, 100_000))
        expected = scipy.special.xlogy(x, y)
        assert np.all(np.abs(xlogy(x, y) - expected) <= 2 * np.spacing(np.abs(expected)))

    def test_zero_times_log_zero_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert xlogy(0.0, 0.0) == 0.0
            assert np.isnan(xlogy(1.0, -1.0))


class TestMirrorMap:
    def test_quadratic_identity(self):
        np.testing.assert_array_equal(mirror_map(QUADRATIC, [0.3, 0.7]), [0.3, 0.7])

    def test_entropy_at_ones(self):
        np.testing.assert_allclose(mirror_map(NEGATIVE_ENTROPY, [1.0, 1.0]), [1.0, 1.0])

    def test_entropy_exponential_points(self):
        np.testing.assert_allclose(
            mirror_map(NEGATIVE_ENTROPY, [math.e, math.e**2]), [2.0, 3.0]
        )

    def test_entropy_rejects_zero(self):
        with pytest.raises(DomainError):
            mirror_map(NEGATIVE_ENTROPY, [1.0, 0.0])

    def test_inverse_examples(self):
        np.testing.assert_array_equal(
            inverse_mirror_map(QUADRATIC, [0.2, -0.1]), [0.2, -0.1]
        )
        np.testing.assert_allclose(
            inverse_mirror_map(NEGATIVE_ENTROPY, [1.0, 1.0]), [1.0, 1.0]
        )

    @pytest.mark.parametrize("g", GEOMETRIES, ids=lambda g: g.value)
    def test_round_trip(self, g):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = _rand_point(rng, g, int(rng.integers(1, 8)))
            back = inverse_mirror_map(g, mirror_map(g, x))
            np.testing.assert_allclose(back, x, rtol=0, atol=1e-12 * max(1.0, x.max()))

    @given(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_entropy_hypothesis(self, xs):
        x = np.asarray(xs)
        back = inverse_mirror_map(NEGATIVE_ENTROPY, mirror_map(NEGATIVE_ENTROPY, x))
        np.testing.assert_allclose(back, x, rtol=1e-12)


class TestDivergence:
    def test_quadratic_basis_vectors(self):
        assert divergence(QUADRATIC, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_entropy_self_is_zero(self):
        assert divergence(NEGATIVE_ENTROPY, [0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_entropy_corner_vs_uniform(self):
        assert divergence(NEGATIVE_ENTROPY, [1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            math.log(2)
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            divergence(QUADRATIC, [1.0], [1.0, 2.0])

    def test_entropy_domain_errors(self):
        with pytest.raises(DomainError):
            divergence(NEGATIVE_ENTROPY, [-0.1, 1.1], [0.5, 0.5])
        with pytest.raises(DomainError):
            divergence(NEGATIVE_ENTROPY, [0.5, 0.5], [1.0, 0.0])

    @pytest.mark.parametrize("g", GEOMETRIES, ids=lambda g: g.value)
    def test_non_negativity(self, g):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            dim = int(rng.integers(1, 8))
            x = _rand_point(rng, g, dim)
            y = _rand_point(rng, g, dim)
            assert divergence(g, x, y) >= -1e-12

    def test_strong_convexity_quadratic(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            x, y = rng.normal(size=5), rng.normal(size=5)
            diff = x - y
            assert divergence(QUADRATIC, x, y) >= 0.5 * float(diff @ diff) - 1e-12

    def test_strong_convexity_entropy_on_simplex(self):
        # Pinsker-type lower bound in the l1 norm
        rng = np.random.default_rng(3)
        for _ in range(500):
            x, y = _rand_simplex(rng, 5), _rand_simplex(rng, 5)
            l1 = float(np.abs(x - y).sum())
            assert divergence(NEGATIVE_ENTROPY, x, y) >= 0.5 * l1**2 - 1e-10

    @pytest.mark.parametrize("g", GEOMETRIES, ids=lambda g: g.value)
    def test_three_point_identity(self, g):
        rng = np.random.default_rng(4)
        for _ in range(500):
            a, b, c = (_rand_point(rng, g, 4) for _ in range(3))
            lhs = float((a - b) @ (mirror_map(g, c) - mirror_map(g, b)))
            rhs = divergence(g, a, b) - divergence(g, a, c) + divergence(g, b, c)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestDualNormBound:
    def test_constants(self):
        assert QUADRATIC.dual_norm_sq_bound(7) == 7.0
        assert NEGATIVE_ENTROPY.dual_norm_sq_bound(7) == 1.0

    def test_tight_for_loss_vectors(self):
        rng = np.random.default_rng(5)
        n = 9
        for _ in range(300):
            d = rng.uniform(-1.0, 1.0, size=n)
            assert float(d @ d) <= QUADRATIC.dual_norm_sq_bound(n) + 1e-12
            assert float(np.max(np.abs(d))) ** 2 <= NEGATIVE_ENTROPY.dual_norm_sq_bound(n)
        ones = np.ones(n)
        assert float(ones @ ones) == QUADRATIC.dual_norm_sq_bound(n)
        assert float(np.max(np.abs(ones))) ** 2 == NEGATIVE_ENTROPY.dual_norm_sq_bound(n)

    def test_fenchel_young_both_pairings(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            u, v = rng.normal(size=6), rng.normal(size=6)
            assert float(u @ v) <= 0.5 * float(u @ u) + 0.5 * float(v @ v) + 1e-10
            l1 = float(np.abs(u).sum())
            linf = float(np.abs(v).max())
            assert float(u @ v) <= 0.5 * l1**2 + 0.5 * linf**2 + 1e-10
