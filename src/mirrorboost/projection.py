"""Bregman projections onto the constraint sets used by the boosters.

Simplex, capped simplex, mixed per-coordinate caps, positive orthant with
an l1 penalty, the unit hypercube (entropic), and the hypercube then the
simplex. Quadratic projections use sort-then-threshold / multiplier
bisection; entropic projections use normalization with greedy capping. All
functions are pure.
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


def _entropic_input(z: np.ndarray) -> np.ndarray:
    """Reject negative or all-zero input; return z, divided by its largest
    entry when its sum may overflow (entropic results are scale-free)."""
    if np.any(z < 0):
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
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(z) + 1)
    positive = np.nonzero(u - css / idx > 0)[0]
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


def _mixed_theta(z: np.ndarray, caps: np.ndarray, buf: np.ndarray) -> float:
    # sum_i clamp(z_i - theta, 0, cap_i) is monotone nonincreasing in theta;
    # bisect after growing the gap below hi until the sum overshoots 1; the
    # gap grows rather than lo, since near 1e16 hi - 1.0 rounds back to hi
    hi = float(z.max())
    gap = 1.0
    while (s := _clamped_sum(z, caps, hi - gap, buf)) < 1.0:
        if s >= 1.0 - _SUM_TOL and (buf == caps).all():
            # barely feasible caps: all are full, so the sum grows no more
            return hi - gap
        gap *= 3.0
    lo = hi - gap
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        s = _clamped_sum(z, caps, mid, buf)
        if abs(s - 1.0) <= _SUM_TOL:
            lo = hi = mid
            break
        if s > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _project_mixed_quadratic(z: np.ndarray, caps: np.ndarray) -> np.ndarray:
    w = np.empty_like(z)  # scratch for every clamped sum, then the result
    _clamped_sum(z, caps, _mixed_theta(z, caps, w), w)
    s = w.sum()
    if s > 0:  # absorb residual bisection error on the free coordinates
        free = (w > 0) & (w < caps)
        if free.any():
            w[free] += (1.0 - s) / free.sum()
            w = np.minimum(np.maximum(w, 0.0), caps)
    return w


def _project_mixed_entropic(z: np.ndarray, caps: np.ndarray) -> np.ndarray:
    z = _entropic_input(z)
    n = len(z)
    w = np.empty(n)
    fixed = np.zeros(n, dtype=bool)
    for _ in range(n):
        free = ~fixed
        if not free.any():  # barely feasible caps: every coordinate at its cap
            break
        budget = 1.0 - caps[fixed].sum()
        zs = z[free].sum()
        if zs <= 0:
            raise DegenerateInputError("no mass left on uncapped coordinates")
        w[free] = budget * z[free] / zs
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
    if len(caps) != len(z):
        raise ConfigurationError("caps length must match the vector length")
    upper = np.minimum(caps, 1.0)
    # the exact sum decides only when the float sum falls short of 1
    if upper.sum() < 1.0 and math.fsum([*upper, -1.0]) < 0.0:
        raise ConfigurationError("caps infeasible: sum of min(cap, 1) < 1")
    project = _project_mixed_entropic if g is NEGATIVE_ENTROPY else _project_mixed_quadratic
    return _on_simplex(project(z, caps))


def project_orthant_l1(z, lam: float) -> np.ndarray:
    """Soft-threshold: the minimizer of 1/2||y - z||^2 + lam ||y||_1 over y >= 0.

    Coordinate-wise y_i = max(0, z_i - lam).
    """
    if lam < 0:
        raise ConfigurationError("l1 penalty must be nonnegative")
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
