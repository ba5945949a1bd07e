"""Bregman geometries: mirror maps and divergences.

Two geometries are supported. The quadratic geometry pairs the potential
R(x) = 1/2 ||x||^2 with the Euclidean norm; the negative-entropy geometry
pairs R(x) = sum_i x_i log x_i with the l1 norm on the simplex. Dual
updates are additive in the mirror (gradient) coordinates, and the
divergence of the entropic potential is the generalized KL divergence,
which reduces to plain KL on the simplex.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DomainError


class Geometry(enum.Enum):
    """A Bregman geometry, named by its potential.

    ``dual_norm_sq_bound(n)`` is the constant L with ||d||_*^2 <= L for any
    loss vector d in [-1, 1]^n: n for the quadratic geometry (dual norm l2)
    and 1 for negative entropy (dual norm l_inf).
    """

    QUADRATIC = "quadratic"
    NEGATIVE_ENTROPY = "entropy"

    def dual_norm_sq_bound(self, n: int) -> float:
        return float(n) if self is Geometry.QUADRATIC else 1.0


QUADRATIC = Geometry.QUADRATIC
NEGATIVE_ENTROPY = Geometry.NEGATIVE_ENTROPY


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def xlogy(x, y) -> np.ndarray:
    """x * log(y), exactly 0 where x == 0 and y is not NaN (as scipy.special.xlogy)."""
    x, y = _as_array(x), _as_array(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((x == 0) & ~np.isnan(y), 0.0, x * np.log(y))


def mirror_map(g: Geometry, x) -> np.ndarray:
    """Gradient of the potential, mapping primal points to dual coordinates.

    Quadratic: identity. Negative entropy: 1 + log x, requires x > 0.
    """
    x = _as_array(x)
    if g is QUADRATIC:
        return x.copy()
    if np.any(x <= 0):
        raise DomainError("entropy mirror map requires strictly positive coordinates")
    return 1.0 + np.log(x)


def inverse_mirror_map(g: Geometry, theta) -> np.ndarray:
    """Inverse of the mirror map: identity, or exp(theta - 1) for entropy."""
    theta = _as_array(theta)
    if g is QUADRATIC:
        return theta.copy()
    return np.exp(theta - 1.0)


def divergence(g: Geometry, x, y) -> float:
    """Bregman divergence B_R(x, y) = R(x) - R(y) - <grad R(y), x - y>.

    Quadratic: 1/2 ||x - y||^2. Negative entropy: the generalized KL
    divergence sum_i x_i log(x_i / y_i) - x_i + y_i (equals KL when both
    arguments lie on the simplex); requires x >= 0 and y > 0.
    """
    x = _as_array(x)
    y = _as_array(y)
    if x.shape != y.shape:
        raise DomainError("divergence arguments must have matching shapes")
    if g is QUADRATIC:
        diff = x - y
        return 0.5 * float(diff @ diff)
    if np.any(x < 0):
        raise DomainError("entropy divergence requires x >= 0")
    if np.any(y <= 0):
        raise DomainError("entropy divergence requires y > 0")
    return float(np.sum(xlogy(x, x) - xlogy(x, y) - x + y))
