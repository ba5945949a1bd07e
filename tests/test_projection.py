"""Projection operators: worked examples, feasibility, oracle equivalence."""

import math
import re
import signal
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mirrorboost import boosting, projection
from mirrorboost.boosting import Algorithm, BoosterConfig
from mirrorboost.data import gen_combined, gen_noisy
from mirrorboost.errors import (
    ConfigurationError,
    DegenerateInputError,
    DomainError,
    MirrorBoostError,
)
from mirrorboost.geometry import NEGATIVE_ENTROPY, QUADRATIC, divergence
from mirrorboost.oracles import (
    constrained_divergence_argmin,
    hypercube_entropic_argmin,
    orthant_l1_argmin,
)
from mirrorboost.projection import (
    _on_simplex,
    _project_mixed_quadratic,
    project_capped_simplex,
    project_hypercube_entropic,
    project_hypercube_simplex,
    project_mixed,
    project_orthant_l1,
    project_simplex,
)

GEOMETRIES = [QUADRATIC, NEGATIVE_ENTROPY]


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the body after ``seconds``: a hang fails, not stalls."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _rand_input(rng, g, dim):
    return np.exp(rng.normal(size=dim)) if g is NEGATIVE_ENTROPY else rng.normal(size=dim)


class TestSimplex:
    def test_entropic_normalization(self):
        np.testing.assert_allclose(
            project_simplex(NEGATIVE_ENTROPY, [2.0, 2.0]), [0.5, 0.5]
        )

    def test_quadratic_threshold_example(self):
        np.testing.assert_allclose(
            project_simplex(QUADRATIC, [0.8, 0.4]), [0.7, 0.3], atol=1e-12
        )

    def test_quadratic_feasible_point_unchanged(self):
        np.testing.assert_allclose(
            project_simplex(QUADRATIC, [0.25, 0.75]), [0.25, 0.75], atol=1e-12
        )

    def test_entropic_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            project_simplex(NEGATIVE_ENTROPY, [0.0, 0.0])

    def test_entropic_negative_entry_rejected(self):
        with pytest.raises(DomainError):
            project_simplex(NEGATIVE_ENTROPY, [1.0, -1.0])

    @pytest.mark.parametrize("g", GEOMETRIES, ids=lambda g: g.value)
    def test_feasibility_and_idempotence(self, g):
        rng = np.random.default_rng(0)
        for _ in range(300):
            z = _rand_input(rng, g, int(rng.integers(2, 9)))
            w = project_simplex(g, z)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w >= 0)
            np.testing.assert_allclose(project_simplex(g, w), w, atol=1e-12)

    @given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_quadratic_feasibility_hypothesis(self, zs):
        w = project_simplex(QUADRATIC, np.asarray(zs))
        assert abs(w.sum() - 1.0) <= 1e-9
        assert np.all(w >= 0)

    def test_quadratic_rounding_to_no_positive_coordinate_rejected(self):
        with pytest.raises(DegenerateInputError):
            project_simplex(QUADRATIC, [1e300, 1e300])

    @pytest.mark.parametrize("g", GEOMETRIES, ids=lambda g: g.value)
    def test_permutation_equivariance(self, g):
        rng = np.random.default_rng(1)
        z = _rand_input(rng, g, 6)
        perm = rng.permutation(6)
        np.testing.assert_allclose(
            project_simplex(g, z[perm]), project_simplex(g, z)[perm], atol=1e-12
        )


class TestCappedSimplex:
    def test_cap_one_reduces_to_simplex(self):
        rng = np.random.default_rng(2)
        for g in GEOMETRIES:
            z = _rand_input(rng, g, 5)
            np.testing.assert_allclose(
                project_capped_simplex(g, z, 1.0), project_simplex(g, z), atol=1e-10
            )

    def test_entropic_cap_example(self):
        np.testing.assert_allclose(
            project_capped_simplex(NEGATIVE_ENTROPY, [4.0, 1.0, 1.0], 0.5),
            [0.5, 0.25, 0.25],
            atol=1e-12,
        )

    def test_quadratic_cap_binds(self):
        w = project_capped_simplex(QUADRATIC, [0.9, 0.3, 0.0], 0.5)
        assert w[0] == pytest.approx(0.5, abs=1e-9)
        assert abs(w.sum() - 1.0) <= 1e-9

    def test_infeasible_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            project_capped_simplex(QUADRATIC, [0.5, 0.5], 0.4)
        # six caps of float(1/6) sum to just under 1: infeasible, not a hang
        with pytest.raises(ConfigurationError):
            project_capped_simplex(QUADRATIC, np.zeros(6), 1.0 / 6.0)

    def test_entropic_cap_leaving_no_mass_rejected(self):
        # the capped entry takes 0.5, and the others have no mass to share the rest
        with pytest.raises(DegenerateInputError, match="no mass left on uncapped coordinates"):
            project_capped_simplex(NEGATIVE_ENTROPY, [1.0, 0.0, 0.0], 0.5)

    def test_quadratic_bracket_grows_below_a_huge_max(self):
        # hi - 1.0 == hi at 1e16: the bracket must still move
        np.testing.assert_allclose(
            project_capped_simplex(QUADRATIC, [1e16, 0.0, 0.0], 0.5),
            [0.5, 0.25, 0.25],
            atol=1e-9,
        )

    def test_quadratic_result_off_the_simplex_rejected(self):
        # 200 bisection steps cannot resolve the multiplier across 1e300
        with pytest.raises(DegenerateInputError):
            project_capped_simplex(QUADRATIC, [1e300, 0.0, 0.0], 0.5)

    @pytest.mark.parametrize("g", GEOMETRIES, ids=lambda g: g.value)
    def test_caps_respected(self, g):
        rng = np.random.default_rng(3)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            cap = float(rng.uniform(1.2 / dim, 1.0))
            w = project_capped_simplex(g, _rand_input(rng, g, dim), cap)
            assert abs(w.sum() - 1.0) <= 1e-9
            assert np.all(w <= cap + 1e-12)
            assert np.all(w >= 0)


class TestMixedCaps:
    def test_all_inf_reduces_to_simplex(self):
        rng = np.random.default_rng(4)
        for g in GEOMETRIES:
            z = _rand_input(rng, g, 5)
            np.testing.assert_allclose(
                project_mixed(g, z, np.full(5, np.inf)),
                project_simplex(g, z),
                atol=1e-10,
            )

    def test_uniform_caps_reduce_to_capped(self):
        rng = np.random.default_rng(5)
        for g in GEOMETRIES:
            z = _rand_input(rng, g, 5)
            np.testing.assert_allclose(
                project_mixed(g, z, np.full(5, 0.4)),
                project_capped_simplex(g, z, 0.4),
                atol=1e-10,
            )

    def test_entropic_single_binding_cap(self):
        np.testing.assert_allclose(
            project_mixed(NEGATIVE_ENTROPY, [4.0, 1.0, 1.0], [0.5, np.inf, np.inf]),
            [0.5, 0.25, 0.25],
            atol=1e-12,
        )

    def test_infeasible_caps_rejected(self):
        with pytest.raises(ConfigurationError):
            project_mixed(QUADRATIC, [1.0, 1.0], [0.3, 0.3])
        with pytest.raises(ConfigurationError):
            project_mixed(QUADRATIC, [1.0, 1.0], [0.3])

    @pytest.mark.parametrize("g", GEOMETRIES, ids=lambda g: g.value)
    @pytest.mark.parametrize("cap", [-0.5, -5e-324, np.nan, -np.inf], ids=repr)
    def test_negative_or_nan_cap_rejected(self, g, cap):
        # the other two caps reach the sum of 1 alone, so only the cap's sign can decide
        with pytest.raises(ConfigurationError, match="negative or NaN"):
            project_mixed(g, np.ones(3), [1.0, 1.0, cap])

    @pytest.mark.parametrize("g", GEOMETRIES, ids=lambda g: g.value)
    def test_barely_feasible_caps_project_onto_the_caps(self, g):
        # 100 caps of float(0.01) sum to just over 1 exactly but to
        # 0.9999999999999999 in floats, which no theta ever passes
        with _deadline(10):
            w = project_capped_simplex(g, np.linspace(1.0, 2.0, 100), 0.01)
        np.testing.assert_array_equal(w, np.full(100, 0.01))

    @pytest.mark.parametrize("top", [np.nan, np.inf], ids=repr)
    def test_quadratic_nan_or_inf_entry_rejected(self, top):
        # the probes skip such input; its bracket's first sum is NaN, and must end the growth
        with _deadline(10), np.errstate(invalid="ignore"):
            with pytest.raises(DegenerateInputError, match="did not reach"):
                project_mixed(QUADRATIC, [top, 0.0, 0.5], [0.5, 0.5, 0.5])

    @pytest.mark.parametrize(
        "g, z, caps",
        [
            (QUADRATIC, 0.5, 1.0),
            (NEGATIVE_ENTROPY, [[0.5, 0.5]], [1.0]),
            (QUADRATIC, [[0.5, 0.5]], [1.0]),
            (QUADRATIC, [0.5, 0.5], [[1.0, 1.0], [1.0, 1.0]]),
        ],
        ids=["scalars", "2-d-z-entropic", "2-d-z-quadratic", "2-d-caps"],
    )
    def test_shapes_other_than_two_equal_vectors_rejected(self, g, z, caps):
        shapes = f"z {np.shape(z)} and caps {np.shape(caps)}"
        with pytest.raises(ConfigurationError, match=re.escape(shapes)):
            project_mixed(g, z, caps)

    def test_quadratic_minus_inf_entry_gets_zero(self):
        w = project_mixed(QUADRATIC, [-np.inf, 0.5, 0.6], [0.7, 0.7, 0.7])
        np.testing.assert_allclose(w, [0.0, 0.45, 0.55], rtol=0, atol=1e-15)


class TestOrthantL1:
    def test_positive_part(self):
        np.testing.assert_allclose(
            project_orthant_l1([0.15, -0.02], 0.0), [0.15, 0.0]
        )

    def test_soft_threshold_update_arithmetic(self):
        # one additive step z = 0.3 - 0.1 = 0.2, then penalty 0.05
        z = np.array([0.3]) + np.array([-0.1])
        np.testing.assert_allclose(project_orthant_l1(z, 0.05), [0.15], atol=1e-15)

    @pytest.mark.parametrize("lam", [-0.1, math.nan], ids=["negative", "nan"])
    def test_negative_penalty_rejected(self, lam):
        with pytest.raises(ConfigurationError):
            project_orthant_l1([0.1], lam)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            z = rng.normal(size=4)
            lam = float(rng.uniform(0.0, 1.0))
            np.testing.assert_allclose(
                project_orthant_l1(z, lam), orthant_l1_argmin(z, lam), atol=1e-6
            )


class TestHypercube:
    def test_clamp_example(self):
        np.testing.assert_allclose(
            project_hypercube_entropic([0.5, 3.0]), [0.5, 1.0]
        )

    def test_feasible_unchanged(self):
        np.testing.assert_allclose(
            project_hypercube_entropic([0.2, 0.9]), [0.2, 0.9]
        )

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            project_hypercube_entropic([0.5, 0.0])

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = np.exp(rng.uniform(-1.5, 1.5, size=5))
            np.testing.assert_allclose(
                project_hypercube_entropic(z), hypercube_entropic_argmin(z), atol=1e-6
            )


class TestDoubleProjection:
    def test_compose_example(self):
        np.testing.assert_allclose(
            project_hypercube_simplex([0.5, 3.0]),
            [1.0 / 3.0, 2.0 / 3.0],
            atol=1e-12,
        )

    def test_feasible_point_unchanged(self):
        w = np.array([0.4, 0.6])
        np.testing.assert_allclose(
            project_hypercube_simplex(w), w, atol=1e-12
        )

    def test_never_increases_divergence_to_feasible_points(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            z = np.exp(rng.uniform(-1.5, 1.5, size=5))
            x = np.exp(rng.normal(size=5))
            x /= x.sum()
            double = project_hypercube_simplex(z)
            lhs = divergence(NEGATIVE_ENTROPY, x, z)
            assert lhs >= divergence(NEGATIVE_ENTROPY, x, double) - 1e-10


class TestOracleEquivalence:
    @pytest.mark.parametrize("g", GEOMETRIES, ids=lambda g: g.value)
    def test_simplex_and_caps_match_numeric_minimizer(self, g):
        rng = np.random.default_rng(9)
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            z = _rand_input(rng, g, dim)
            cap = max(1.2 / dim, float(rng.uniform(1.0 / dim, 1.0)))
            np.testing.assert_allclose(
                project_simplex(g, z),
                constrained_divergence_argmin(g, z),
                atol=1e-6,
            )
            np.testing.assert_allclose(
                project_capped_simplex(g, z, cap),
                constrained_divergence_argmin(g, z, np.full(dim, cap)),
                atol=1e-6,
            )

    @pytest.mark.parametrize("g", GEOMETRIES, ids=lambda g: g.value)
    def test_pythagorean_inequalities(self, g):
        rng = np.random.default_rng(10)
        for _ in range(300):
            z = _rand_input(rng, g, 5)
            x = np.exp(rng.normal(size=5))
            x /= x.sum()
            proj = project_simplex(g, z)
            safe = np.maximum(proj, 1e-300) if g is NEGATIVE_ENTROPY else proj
            lhs = divergence(g, x, z)
            assert lhs >= divergence(g, x, safe) - 1e-10
            assert lhs >= divergence(g, x, safe) + divergence(g, safe, z) - 1e-10

    def test_hypercube_optimality_certificate(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            z = np.exp(rng.uniform(-1.5, 1.5, size=5))
            y = project_hypercube_entropic(z)
            v = rng.random(5)  # arbitrary feasible point in [0, 1]^5
            grad = np.log(y / z)
            assert float((v - y) @ grad) >= -1e-10


@st.composite
def _projection_problems(draw):
    """A geometry; 1-8 entries of magnitude 1e-300..1e300 drawn from a pool,
    so entries repeat; no caps, or caps down to (1 + 1e-15)/n on some or
    all coordinates; and a power of two to scale the entries by."""
    g = draw(st.sampled_from(GEOMETRIES))
    z = draw(_pooled_entries([1.0] if g is NEGATIVE_ENTROPY else [-1.0, 1.0]))
    cap, caps = None, None
    if draw(st.booleans()):
        cap, caps = draw(_caps(len(z)))
    return g, z, cap, caps, 2.0 ** draw(st.integers(-20, 20))


@st.composite
def _pooled_entries(draw, signs):
    """1-8 entries of magnitude 1e-300..1e300 drawn from a pool, so they repeat."""
    exponent = st.one_of(st.integers(-3, 2), st.integers(-300, 299))
    magnitude = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), exponent)
    entry = st.builds(lambda s, m: s * m, st.sampled_from(signs), magnitude)
    pool = draw(st.lists(entry, min_size=1, max_size=8))
    n = draw(st.integers(1, 8))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))


@st.composite
def _caps(draw, n):
    """A cap down to (1 + 1e-15)/n on some or all of n coordinates, inf elsewhere."""
    cap = draw(st.floats(1.0 + 1e-15, n + 1e-15)) / n
    capped = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return cap, np.where(capped, cap, np.inf)


def _project(g, z, caps):
    return project_simplex(g, z) if caps is None else project_mixed(g, z, caps)


@given(_projection_problems())
@example((QUADRATIC, np.full(3, -1e15), None, None, 1.0))  # theta rounds off the simplex
@example((QUADRATIC, np.array([400.0, -1.0, -1.0, 400.0]), None, None, 1.0))  # SLSQP stalls
@example((QUADRATIC, np.array([200.0, 200.0, -25.0, -10.0]), None, None, 1.0))
@settings(max_examples=300, deadline=None)
def test_projection_lands_in_the_simplex_or_raises(problem):
    g, z, cap, caps, scale = problem
    try:
        w = _project(g, z, caps)
    except MirrorBoostError:
        return
    upper = 1.0 if caps is None else np.minimum(caps, 1.0)
    assert abs(w.sum() - 1.0) <= 1e-9
    assert np.all(w >= 0.0) and np.all(w <= upper + 1e-9)
    if g is NEGATIVE_ENTROPY:
        np.testing.assert_array_equal(_project(g, z * scale, caps), w)
    moderate = np.all((np.abs(z) >= 1e-3) & (np.abs(z) <= 1e3))
    if moderate and (cap is None or cap * len(z) >= 1.2):
        np.testing.assert_allclose(w, constrained_divergence_argmin(g, z, caps), atol=1e-6)


def _caps_rejected_reference(caps):
    """project_mixed's feasibility rule, written out: a negative or NaN cap is
    rejected, and so are caps whose float sum of min(cap, 1) falls below 1 when
    the exact sum does too."""
    upper = np.minimum(caps, 1.0)
    if np.isnan(upper).any() or (upper < 0.0).any():
        return True
    return bool(upper.sum() < 1.0 and math.fsum([*upper, -1.0]) < 0.0)


@st.composite
def _odd_caps(draw):
    """0-8 caps: inf, NaN, negatives, 0, 1, values around 1, or caps within
    a few ulps of 1/n, whose sums land within a few ulps of 1."""
    n = draw(st.integers(0, 8))
    if n and draw(st.booleans()):
        base = 1.0 / n
        ulps = st.integers(-3, 3)
        return np.array([base + draw(ulps) * math.ulp(base) for _ in range(n)])
    odd = st.sampled_from([np.inf, -np.inf, np.nan, -0.5, -0.0, 0.0, 1.0, 1.0 - 2**-53])
    cap = st.one_of(odd, st.floats(-2.0, 2.0), st.floats(0.0, 1.0))
    return np.array(draw(st.lists(cap, min_size=n, max_size=n)), dtype=float)


@given(_odd_caps())
# a cap of 1 does not settle it, a negative cap can: a rule that skips np.minimum
# when some cap is 1 or more lets these through, and the quadratic bracket never closes
@example(np.array([1.0, -0.5]))
@example(np.full(6, 1.0 / 6))  # an exact sum of 1 - 2**-54, a float sum of 1
@example(np.array([np.nan, 0.1]))
@example(np.array([]))
@settings(max_examples=400, deadline=None)
def test_feasibility_decision_matches_the_minimum_rule(caps):
    """The entropic projection of ones ends in at most n steps, so the test
    sees project_mixed's decision without a quadratic bisection."""
    try:
        project_mixed(NEGATIVE_ENTROPY, np.ones(len(caps)), caps)
        rejected = False
    except ConfigurationError:
        rejected = True
    assert rejected == _caps_rejected_reference(caps)


def _project_mixed_quadratic_reference(z, caps):
    """The capped bisection before its scratch buffer: three temporaries a step.

    Kept verbatim so the buffered version can be held to its exact output.
    """
    _SUM_TOL, _MAX_BISECT = 1e-12, 200

    def _clamped_sum(z, caps, theta):
        return float(np.minimum(np.maximum(z - theta, 0.0), caps).sum())

    hi = float(z.max())
    gap = 1.0
    while _clamped_sum(z, caps, hi - gap) < 1.0:
        gap *= 3.0
    lo = hi - gap
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        s = _clamped_sum(z, caps, mid)
        if abs(s - 1.0) <= _SUM_TOL:
            lo = hi = mid
            break
        if s > 1.0:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    w = np.minimum(np.maximum(z - theta, 0.0), caps)
    s = w.sum()
    if s > 0:  # absorb residual bisection error on the free coordinates
        free = (w > 0) & (w < caps)
        if free.any():
            w[free] += (1.0 - s) / free.sum()
            w = np.minimum(np.maximum(w, 0.0), caps)
    return w


def _outcome(project, z, caps):
    """The result's bytes, or the type of the error the simplex check raises."""
    try:
        return _on_simplex(project(z, caps)).tobytes()
    except MirrorBoostError as exc:
        return type(exc)


@st.composite
def _mixed_quadratic_problems(draw):
    """Signed pooled entries and caps that the reference can bisect: below a
    float sum of 1 for min(cap, 1), its bracket would grow forever."""
    z = draw(_pooled_entries([-1.0, 1.0]))
    zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=len(z) - 1))
    z[: len(zeros)] = zeros
    _, caps = draw(_caps(len(z)))
    assume(np.minimum(caps, 1.0).sum() >= 1.0)
    return z, caps


@given(_mixed_quadratic_problems())
@example((np.array([0.9, 0.3, 0.0]), np.full(3, 0.5)))
@example((np.array([1e16, 0.0, 0.0]), np.full(3, 0.5)))
@example((np.array([1e300, 0.0, 0.0]), np.full(3, 0.5)))
# roots on a breakpoint: the bounds at a piece's end settle no step past it
@example((np.array([-0.125, -0.875]), np.array([0.875, 0.5])))
@example((np.array([-0.125, 0.625, -0.25, -0.625]), np.full(4, np.inf)))
# a root on 0.0, where -0.0 - 0.0 is -0.0, beside a free entry and a -0.0 cap
@example((np.array([1.5, -0.0, 0.1]), np.array([0.9, np.inf, np.inf])))
@example((np.array([1.5, -0.0, 0.1]), np.array([0.9, -0.0, np.inf])))
@example((np.array([1.5, -0.0, -0.0, 0.1]), np.array([0.9, np.inf, 0.5, np.inf])))
@settings(max_examples=300, deadline=None)
def test_buffered_bisection_matches_reference_exactly(problem):
    z, caps = problem
    assert _outcome(_project_mixed_quadratic, z, caps) == _outcome(
        _project_mixed_quadratic_reference, z, caps
    )


def _large_mixed_problem(rng):
    """z and caps with n from 200 to 2e5: few-valued weights plus a step,
    Gaussian entries of magnitude 1e-8..1e8, or one entry of 1 among entries
    below 2**-53, whose clamped sums a recursive sum would get wrong by up to
    n 2**-53; uniform caps from just above 1/n to many times it, the same caps
    on part of the coordinates and inf on the rest, or inf on all."""
    n = int(10.0 ** rng.uniform(np.log10(200), np.log10(2e5)))
    shape = rng.integers(3)
    if shape == 0:
        values = rng.random(rng.integers(2, 9)) * 2.0 / n
        z = rng.choice(values, n) + 10.0 ** rng.uniform(-6, 0) * rng.integers(0, 2, n)
    elif shape == 1:
        z = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8)
    else:
        z = rng.random(n) * 2.0**-53
        z[rng.integers(n)] = 1.0
    kind = rng.integers(4)
    cap = (1.0 + 10.0 ** rng.uniform(-12, -1)) / n if kind == 0 else rng.uniform(1.2, 50) / n
    caps = np.full(n, cap)
    if kind == 2:
        caps[rng.random(n) < 0.5] = np.inf
    elif kind == 3:
        caps[:] = np.inf
    return z, caps


def test_certified_bisection_matches_reference_on_large_inputs():
    rng = np.random.default_rng(20081)
    checked = 0
    while checked < 90:
        z, caps = _large_mixed_problem(rng)
        if np.minimum(caps, 1.0).sum() < 1.0:  # the reference's bracket would grow forever
            continue
        assert _outcome(_project_mixed_quadratic, z, caps) == _outcome(
            _project_mixed_quadratic_reference, z, caps
        ), (len(z), caps[0])
        checked += 1


def test_a_pass_lies_within_rho_of_the_exact_sum():
    """The certificate's premise, against exact rational sums, at a step below
    a quantile of z as wide as the cap, or as the entries."""
    rng = np.random.default_rng(2008)
    checked = 0
    while checked < 40:
        z, caps = _large_mixed_problem(rng)
        n = len(z)
        if n > 3000:
            continue
        buf, rho = np.empty(n), Fraction(projection._rho(n))
        fz = [Fraction(v) for v in z]
        fcaps = [None if c == np.inf else Fraction(c) for c in caps]
        below = min(caps[0], 1.0, 10.0 ** rng.uniform(-17, 0))
        for q in rng.random(3):
            theta = float(np.quantile(z, q)) - rng.random() * below
            ft = Fraction(theta)
            exact = sum(
                max(v - ft, 0) if c is None else min(max(v - ft, 0), c) for v, c in zip(fz, fcaps)
            )
            s = Fraction(projection._clamped_sum(z, caps, theta, buf))
            assert rho * exact <= s <= exact / rho, (n, theta)
        checked += 1


def _passes(z, caps, probes=True):
    """_clamped_sum calls of one quadratic projection, which may raise."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        clamped_sum = projection._clamped_sum
        mp.setattr(projection, "_clamped_sum", lambda *a: calls.append(1) or clamped_sum(*a))
        if not probes:  # the plain bisection: NaN bounds settle no step
            mp.setattr(projection, "_probes", lambda *a: (math.nan, math.nan))
        _outcome(_project_mixed_quadratic, z, caps)
    return len(calls)


@given(_mixed_quadratic_problems())
@settings(max_examples=200, deadline=None)
def test_probes_add_at_most_their_cap_to_the_plain_passes(problem):
    z, caps = problem
    assert _passes(z, caps) <= _passes(z, caps, probes=False) + projection._PROBES


def test_probes_add_at_most_their_cap_on_large_inputs():
    rng = np.random.default_rng(20082)
    checked = 0
    while checked < 40:
        z, caps = _large_mixed_problem(rng)
        if np.minimum(caps, 1.0).sum() < 1.0:  # the plain bracket would grow forever
            continue
        assert _passes(z, caps) <= _passes(z, caps, probes=False) + projection._PROBES
        checked += 1


@contextmanager
def _staged_passes():
    """Yield a list that gains, for each quadratic projection, the stage and
    theta of each of its _clamped_sum calls: "probe", "bisection" (the rest of
    _mixed_theta) or "result" (after _mixed_theta returns)."""
    projections, stage = [], ["result"]
    clamped_sum, probes = projection._clamped_sum, projection._probes
    mixed_theta, project = projection._mixed_theta, projection._project_mixed_quadratic

    def staged(f, name, after):
        def call(*args):
            stage[0] = name
            try:
                return f(*args)
            finally:
                stage[0] = after

        return call

    def recording_sum(z, caps, theta, out):
        projections[-1].append((stage[0], float(theta)))
        return clamped_sum(z, caps, theta, out)

    def recording_project(z, caps):
        projections.append([])
        return project(z, caps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projection, "_clamped_sum", recording_sum)
        mp.setattr(projection, "_probes", staged(probes, "probe", "bisection"))
        mp.setattr(projection, "_mixed_theta", staged(mixed_theta, "bisection", "result"))
        mp.setattr(projection, "_project_mixed_quadratic", recording_project)
        yield projections


def _assert_result_reuses_the_last_pass(passes):
    """The result makes at most one pass, and never one at the theta (the same
    float, sign included) of the bisection's last pass, which left the clamped
    vector in the buffer already. The probes and a collapsed bracket may repeat
    a pass of their own; only the result's is checked."""
    result = [theta for stage, theta in passes if stage == "result"]
    bisection = [theta for stage, theta in passes if stage == "bisection"]
    assert len(result) <= 1
    if result and bisection:
        assert result[0].hex() != bisection[-1].hex(), passes[-3:]


@given(_mixed_quadratic_problems())
@settings(max_examples=200, deadline=None)
def test_result_never_repeats_the_pass_that_ended_the_bisection(problem):
    with _staged_passes() as projections:
        _outcome(projection._project_mixed_quadratic, *problem)
    _assert_result_reuses_the_last_pass(projections[0])


def test_result_never_repeats_the_pass_that_ended_the_bisection_on_large_inputs():
    rng = np.random.default_rng(20083)
    checked = 0
    while checked < 40:
        z, caps = _large_mixed_problem(rng)
        if np.minimum(caps, 1.0).sum() < 1.0:
            continue
        with _staged_passes() as projections:
            _outcome(projection._project_mixed_quadratic, z, caps)
        _assert_result_reuses_the_last_pass(projections[0])
        checked += 1


def _assert_no_pass_repeats_the_last(passes):
    """No pass is made at the theta (the same float, sign included) of the
    pass just before it, and the probes pass at no theta twice. A pass may
    still repeat an earlier one that another pass followed, since the buffer
    holds only the last: the bisection's bracket shrinks to two adjacent
    floats and its midpoint rounds to the bound an earlier pass set, or a
    step lands on a probe's theta."""
    thetas = [theta.hex() for _, theta in passes]
    assert all(a != b for a, b in zip(thetas, thetas[1:])), passes
    probes = [theta for (stage, _), theta in zip(passes, thetas) if stage == "probe"]
    assert len(set(probes)) == len(probes), passes


@given(_mixed_quadratic_problems())
@settings(max_examples=200, deadline=None)
def test_no_pass_repeats_the_theta_of_the_pass_before_it(problem):
    with _staged_passes() as projections:
        _outcome(projection._project_mixed_quadratic, *problem)
    _assert_no_pass_repeats_the_last(projections[0])


def test_no_pass_repeats_the_theta_of_the_pass_before_it_on_large_inputs():
    """Large-magnitude entries, where an ulp of theta moves the sum past the
    stop band, leave the bracket at two adjacent floats: each remaining step
    would pass again at one midpoint, and the probes would cycle."""
    rng = np.random.default_rng(20084)
    checked = 0
    while checked < 60:
        z, caps = _large_mixed_problem(rng)
        if np.minimum(caps, 1.0).sum() < 1.0:
            continue
        with _staged_passes() as projections:
            _outcome(projection._project_mixed_quadratic, z, caps)
        _assert_no_pass_repeats_the_last(projections[0])
        checked += 1


def test_result_makes_its_own_pass_when_the_bisection_ends_off_its_last_pass():
    """Near 1e6 an ulp of theta moves the sum, with one entry free, by about
    1.2e-10, so no float stops the bisection: it runs out its steps and
    returns a theta one ulp from its last pass, and the result must clamp
    again rather than take that pass's vector."""
    z, caps = np.array([1000003.98, 1000003.12, 1000001.94]), np.array([0.62, 0.92, 0.39])
    assert projection._mixed_theta(z, caps, np.empty(3))[1] is None
    assert _outcome(_project_mixed_quadratic, z, caps) == _outcome(
        _project_mixed_quadratic_reference, z, caps
    )


def test_numpy_sums_within_the_pairwise_bound():
    """The certificate's premise: NumPy's float64 sum of n terms lies within
    gamma_h of the exact sum, h = _sum_depth(n). A recursive sum of 1 and
    2**17 - 1 terms of 0.6 u never leaves 1, about 8.7e-12 short, far outside."""
    terms = np.full(2**17, 0.6 * projection._U)
    terms[0] = 1.0
    exact = math.fsum(terms)
    hu = projection._sum_depth(len(terms)) * projection._U
    gamma = hu / (1.0 - hu)
    assert abs(float(terms.sum()) - exact) <= gamma * exact < abs(1.0 - exact)


@pytest.mark.parametrize(
    "algorithm, k, dataset, rounds",
    [
        (Algorithm.SMOOTH, 20.0, lambda: gen_noisy(0, 100_000, 0.1), 8),  # tall-capped's run
        (Algorithm.SMOOTH, 20.0, lambda: gen_noisy(0, 200, 0.1), 100),
        (Algorithm.COMBINED, 8.0, lambda: gen_combined(0, 150, 50, 0.3), 100),
    ],
    ids=["tall-capped", "smooth-200", "combined-200"],
)
def test_capped_projection_settles_most_steps_without_a_pass(
    monkeypatch, algorithm, k, dataset, rounds
):
    """Quadratic projections of boosting weights make at most 5 passes over z
    each on average; the plain bisection makes 55-57 at 1e5 samples."""
    counts = {"sums": 0, "projections": 0}
    clamped_sum, project_mixed = projection._clamped_sum, boosting.project_mixed

    def counting_sum(*args):
        counts["sums"] += 1
        return clamped_sum(*args)

    def counting_projection(*args):
        counts["projections"] += 1
        return project_mixed(*args)

    monkeypatch.setattr(projection, "_clamped_sum", counting_sum)
    monkeypatch.setattr(boosting, "project_mixed", counting_projection)
    config = BoosterConfig(algorithm, QUADRATIC, rounds=rounds, target_error=1.0 / k, k=k)
    boosting.run(config, dataset())
    assert counts["projections"] == rounds
    assert counts["sums"] <= 5 * counts["projections"]


@pytest.mark.parametrize(
    "algorithm, k, dataset, rounds",
    [
        (Algorithm.SMOOTH, 20.0, lambda: gen_noisy(0, 100_000, 0.1), 8),  # tall-capped's run
        (Algorithm.SMOOTH, 20.0, lambda: gen_noisy(0, 200, 0.1), 100),
        (Algorithm.COMBINED, 8.0, lambda: gen_combined(0, 150, 50, 0.3), 100),
    ],
    ids=["tall-capped", "smooth-200", "combined-200"],
)
def test_capped_projection_of_boosting_weights_makes_no_pass_for_its_result(
    algorithm, k, dataset, rounds
):
    """Each projection of these runs ends its bisection with a pass at the
    returned theta, so the result reuses that pass and makes none of its own."""
    config = BoosterConfig(algorithm, QUADRATIC, rounds=rounds, target_error=1.0 / k, k=k)
    with _staged_passes() as projections:
        boosting.run(config, dataset())
    assert len(projections) == rounds
    for passes in projections:
        assert all(stage != "result" for stage, _ in passes), passes


def test_probes_aim_stays_fixed_up_to_a_million_terms():
    # every bench workload and test below that size keeps its pass counts
    for n in (1, 2, 200, 100_000, 1_000_000, 1_261_568):
        assert projection._aim(n) == projection._AIM, n
    assert projection._aim(4_000_000) > projection._AIM


def test_capped_projection_of_millions_of_weights_makes_few_passes():
    """Boosting weights of 4e6 samples: a projected w plus eta d, d = +-1, with
    eta = 0.8 / N as in the first round at 10 % error. With the probes' aim fixed
    at _AIM no probe settled a step above N ~ 3.1e6, and this made 64 passes."""
    n = 4_000_000
    rng = np.random.default_rng(4)
    w = rng.uniform(0.5, 1.5, n)
    w /= w.sum()
    z = w + 0.8 / n * np.where(rng.random(n) < 0.1, 1.0, -1.0)
    del w
    assert _passes(z, np.full(n, 20.0 / n)) <= 5
