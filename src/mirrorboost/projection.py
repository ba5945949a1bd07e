"""Bregman projections onto the constraint sets used by the boosters.

Simplex, capped simplex, mixed per-coordinate caps, positive orthant with
an l1 penalty, the unit hypercube (entropic), and the hypercube then the
simplex. Quadratic projections use sort-then-threshold / multiplier
bisection; entropic projections use normalization with greedy capping. All
functions are pure.

The capped bisection settles most of its steps without a pass over z. The
exact sum T(theta) = sum_i clamp(z_i - theta, 0, cap_i) never rises with
theta. A pass rounds each term by at most u = 2**-53 relative (rounding
z_i - theta keeps its sign, and the clamps are monotone), and NumPy's
pairwise sum of nonnegative terms adds at most gamma_h = h u / (1 - h u),
h = _sum_depth(n) (Higham, SIAM J. Sci. Comput. 1993). So with
rho = 1 - 2.05 (gamma_h + 4u), a pass at theta_0 with sum s settles every
step at theta <= theta_0 as "raise lo" if _bisection_step(s rho) > 0, and
every step at theta >= theta_0 as "lower hi" if _bisection_step(s / rho) < 0.
At most _PROBES passes look for such a pair around the root: the first at
(sum z - 1)/n, the root if every coordinate is free, which boosting's
z = w + eta d from a projected w nearly is, then Newton steps with slope -m,
m the coordinates strictly between 0 and their cap (Duchi et al., ICML
2008). The bisection passes over z only strictly between the pair, so every
step, and theta, is the plain bisection's, at most _PROBES passes dearer.
A step at the theta of the last pass reuses that pass, and the probes stop
at a theta they passed at before, so no two passes in a row share a theta.
When the bisection's last pass was made at theta, the clamped vector it left
is the result, with no pass of its own. At n = 1e5 a projection of boosting
weights makes 3 passes (two probes, the step that stops) instead of 55-57.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, DomainError
from .geometry import NEGATIVE_ENTROPY, Geometry

_SUM_TOL = 1e-12
_MAX_BISECT = 200
_OFF_SIMPLEX_TOL = 1e-9  # beyond float error: the projection failed
_FLOAT_MAX = float(np.finfo(float).max)
_U = 2.0**-53  # unit roundoff of a float64
_HUGE = 2.0**1000  # beyond this the probes' arithmetic could overflow
_AIM = 1.1e-12  # how far outside the stop band a probe aims
_PROBES = 16  # passes the probes may make


def _entropic_input(z: np.ndarray) -> np.ndarray:
    """Reject negative or all-zero input; return z, divided by its largest
    entry when its sum may overflow (entropic results are scale-free)."""
    if (z < 0).any():
        raise DomainError("entropic projection requires nonnegative input")
    z_max = z.max(initial=0.0)  # unlike the sum, cannot overflow
    if z_max <= 0:
        raise DegenerateInputError("entropic projection of an all-zero vector")
    return z / z_max if z_max > _FLOAT_MAX / len(z) else z


def _on_simplex(w: np.ndarray) -> np.ndarray:
    """Return w, or raise if its sum is not 1 up to float error; a NaN sum raises."""
    if not abs(w.sum() - 1.0) <= _OFF_SIMPLEX_TOL:
        raise DegenerateInputError("projection did not reach the simplex")
    return w


def project_simplex(g: Geometry, z) -> np.ndarray:
    """Bregman projection onto the probability simplex.

    Entropic: plain normalization z / ||z||_1. Quadratic: Euclidean
    projection w_i = max(0, z_i - theta) with theta solving sum w = 1.
    """
    z = np.asarray(z, dtype=float)
    if g is NEGATIVE_ENTROPY:
        z = _entropic_input(z)
        return _on_simplex(z / z.sum())
    # sort-then-threshold (O(n log n))
    u = np.sort(z)[::-1]
    css = u.cumsum() - 1.0
    idx = np.arange(1, len(z) + 1)
    positive = (u - css / idx > 0).nonzero()[0]
    if not len(positive):
        raise DegenerateInputError("simplex projection: no coordinate stays positive")
    rho = positive[-1]
    theta = css[rho] / (rho + 1)
    return _on_simplex(np.maximum(z - theta, 0.0))


def _clamped_sum(z: np.ndarray, caps: np.ndarray, theta: float, out: np.ndarray) -> float:
    """sum_i clamp(z_i - theta, 0, cap_i), with the clamped vector left in out."""
    np.subtract(z, theta, out=out)
    np.maximum(out, 0.0, out=out)
    np.minimum(out, caps, out=out)
    return float(out.sum())


def _bisection_step(s: float) -> int:
    """The bisection's test at a sum s: 0 stops, 1 raises lo, -1 lowers hi.

    Monotone in s; a NaN sum lowers hi.
    """
    if abs(s - 1.0) <= _SUM_TOL:
        return 0
    return 1 if s > 1.0 else -1


def _sum_depth(n: int) -> int:
    """A bound on the additions any term goes through in NumPy's float64 sum
    of n terms (numpy.sum's Notes; pairwise_sum in NumPy's loops_utils.h.src).

    Up to 128 terms, 8 accumulators take every 8th term (at most 15
    additions), a tree joins them (3) and the at most 7 left over are added
    in turn: 25. Larger ranges split near the middle, one addition a level,
    fewer than log2 n levels. A reduction fed in buffers of 8192 terms adds
    each buffer's sum to the total: ceil(n / 8192) more. The true maximum is
    at most ceil(log2 n) + ceil(n / 8192) + 17; 40 leaves a margin.
    """
    return 40 + (n - 1).bit_length() + -(-n // 8192)


def _rho(n: int) -> float:
    """A factor such that a pass's sum s and the exact sum T of n terms give
    rho T <= s <= T / rho, with room for rounding s * rho and s / rho."""
    nu = _sum_depth(n) * _U
    return 1.0 - 2.05 * (nu / (1.0 - nu) + 4 * _U)


def _aim(n: int) -> float:
    """How far past 1 a probe of n terms aims its sum: _AIM up to n = 1261568,
    then _SUM_TOL + 2 (1 - rho(n)). A sum settles a step only if it clears
    _SUM_TOL once rho widens it, and 1 - rho(n) grows with n: above n ~ 3.1e6
    it passes _AIM - _SUM_TOL, and with a fixed aim no probe settles a step."""
    return max(_AIM, _SUM_TOL + 2.0 * (1.0 - _rho(n)))


def _probes(z: np.ndarray, caps: np.ndarray, buf: np.ndarray, passes: list) -> tuple[float, float]:
    """Bounds up < down: the bisection's step raises lo at every theta <= up
    and lowers hi at every theta >= down. Each pass after the first is a
    Newton step aiming _aim(n) beyond the stop band, across 1 from the last sum,
    or the midpoint of (up, down) when the step leaves it. They stop when
    that theta is outside (up, down), where its step is settled already, or
    one they passed at before, which would pass again at the thetas after it.
    Each pass appends its (theta, sum) to passes; buf holds the last one's
    clamped vector."""
    rho, aim = _rho(len(z)), _aim(len(z))
    up, down = -math.inf, math.inf
    theta = (float(z.sum()) - (1.0 + aim)) / len(z)
    for _ in range(_PROBES):
        s = _clamped_sum(z, caps, theta, buf)
        passes.append((theta, s))
        if _bisection_step(s * rho) > 0:
            up = theta
        elif _bisection_step(s / rho) < 0:
            down = theta
        m = int(np.count_nonzero((buf > 0) & (buf < caps)))
        if not m or s >= _HUGE or (down - up) * m <= 3 * aim:
            break
        theta += (s - (1.0 - aim if s > 1.0 else 1.0 + aim)) / m
        if not up < theta < down:
            theta = 0.5 * (up + down)
        if not up < theta < down or any(_same(theta, t) for t, _ in passes):
            break
    return up, down


def _same(a: float, b: float) -> bool:
    """The same float, the sign of a zero included: -0.0 and 0.0 clamp a
    -0.0 entry to zeros of different signs."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _pass(z: np.ndarray, caps: np.ndarray, theta: float, buf: np.ndarray, last: tuple) -> tuple:
    """(theta, sum) of a pass at theta; last, the pass whose clamped vector
    buf holds, when it was made at theta."""
    if _same(last[0], theta):
        return last
    return theta, _clamped_sum(z, caps, theta, buf)


def _mixed_theta(z: np.ndarray, caps: np.ndarray, buf: np.ndarray) -> tuple[float, float | None]:
    """The bisection's theta, and the sum of its last pass over z when that
    pass was made at theta: buf then holds clamp(z - theta, 0, caps) already,
    so the result needs no pass of its own. The sum is None otherwise. No
    two passes in a row are made at one theta."""
    # sum_i clamp(z_i - theta, 0, cap_i) is monotone nonincreasing in theta;
    # bisect after growing the gap below hi until the sum overshoots 1; the
    # gap grows rather than lo, since near 1e16 hi - 1.0 rounds back to hi
    hi = float(z.max())
    up = down = math.nan  # NaN bounds settle no step
    passes = [(math.nan, math.nan)]  # (theta, sum) of each probe: buf holds the last
    if hi <= _HUGE and z.min() >= -_HUGE:  # finite, moderate input: NaN takes passes
        up, down = _probes(z, caps, buf, passes)
    last = passes[-1]
    gap = 1.0
    while not (theta := hi - gap) <= up:
        if not theta >= down:
            last = _pass(z, caps, theta, buf, last)
            s = last[1]
            if not s < 1.0:
                break
            if s >= 1.0 - _SUM_TOL and (buf == caps).all():
                # barely feasible caps: all are full, so the sum grows no more
                return theta, s
        gap *= 3.0
    lo = hi - gap
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid <= up:
            step = 1
        elif mid >= down:
            step = -1
        else:
            last = _pass(z, caps, mid, buf, last)
            step = _bisection_step(last[1])
        if step == 0:
            lo = hi = mid
            break
        if step > 0:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)  # beyond 2**1023, 0.5 * (mid + mid) is inf
    return theta, (last[1] if _same(last[0], theta) else None)


def _project_mixed_quadratic(z: np.ndarray, caps: np.ndarray) -> np.ndarray:
    w = np.empty_like(z)  # scratch for every clamped sum, then the result
    theta, s = _mixed_theta(z, caps, w)
    if s is None:
        s = _clamped_sum(z, caps, theta, w)
    if s > 0:  # absorb residual bisection error on the free coordinates
        free = (w > 0) & (w < caps)
        m = np.count_nonzero(free)
        if m:
            np.add(w, (1.0 - s) / m, out=w, where=free)  # w[free] += ..., in place
            np.maximum(w, 0.0, out=w)
            np.minimum(w, caps, out=w)
    return w


def _project_mixed_entropic(z: np.ndarray, caps: np.ndarray) -> np.ndarray:
    z = _entropic_input(z)
    n = len(z)
    w = np.empty(n)
    fixed = np.zeros(n, dtype=bool)
    for _ in range(n):
        free = ~fixed
        z_free = z[free]
        if not len(z_free):  # barely feasible caps: every coordinate at its cap
            break
        budget = 1.0 - caps[fixed].sum()
        zs = z_free.sum()
        if zs <= 0:
            raise DegenerateInputError("no mass left on uncapped coordinates")
        w[free] = budget * z_free / zs
        over = free & (w > caps)
        if not over.any():
            break
        fixed |= over
    w[fixed] = caps[fixed]
    return w


def project_capped_simplex(g: Geometry, z, cap: float) -> np.ndarray:
    """Projection onto {w : sum w = 1, 0 <= w_i <= cap}."""
    return project_mixed(g, z, np.full(np.shape(z), float(cap)))


def project_mixed(g: Geometry, z, caps) -> np.ndarray:
    """Projection onto {w : sum w = 1, 0 <= w_i <= caps_i} (inf caps allowed)."""
    z = np.asarray(z, dtype=float)
    caps = np.asarray(caps, dtype=float)
    if z.ndim != 1 or caps.shape != z.shape:
        raise ConfigurationError(
            f"z must be a vector and caps of its shape, got z {z.shape} and caps {caps.shape}"
        )
    upper = np.minimum(caps, 1.0)
    if not upper.min(initial=0.0) >= 0.0:  # a NaN minimum fails the test too
        raise ConfigurationError("caps must be nonnegative numbers, not negative or NaN")
    # the exact sum decides only when the float sum falls short of 1
    if upper.sum() < 1.0 and math.fsum([*upper, -1.0]) < 0.0:
        raise ConfigurationError("caps infeasible: sum of min(cap, 1) < 1")
    project = _project_mixed_entropic if g is NEGATIVE_ENTROPY else _project_mixed_quadratic
    return _on_simplex(project(z, caps))


def project_orthant_l1(z, lam: float) -> np.ndarray:
    """Soft-threshold: the minimizer of 1/2||y - z||^2 + lam ||y||_1 over y >= 0.

    Coordinate-wise y_i = max(0, z_i - lam).
    """
    if not lam >= 0:  # a NaN penalty fails the test too
        raise ConfigurationError("l1 penalty must be a nonnegative number, not negative or NaN")
    z = np.asarray(z, dtype=float)
    return np.maximum(z - lam, 0.0)


def project_hypercube_entropic(z) -> np.ndarray:
    """Entropic Bregman projection onto [0, 1]^n: coordinate-wise min(1, z_i)."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise DomainError("hypercube projection requires strictly positive input")
    return np.minimum(z, 1.0)


def project_hypercube_simplex(z) -> np.ndarray:
    """Entropic projection onto [0, 1]^n, then onto the simplex.

    MadaBoost's double projection; for every x in the simplex it satisfies
    B(x, z) >= B(x, result).
    """
    return project_simplex(NEGATIVE_ENTROPY, project_hypercube_entropic(z))
