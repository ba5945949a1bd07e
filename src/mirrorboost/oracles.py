"""Independent numeric reference minimizers for the projection operators.

These deliberately avoid the closed-form projection code paths: constrained
projections are solved with SLSQP on the divergence objective, and the
separable one-dimensional problems with bounded scalar minimization. They
exist so the acceptance bench's ``projection-oracles`` criterion (and the
tests) can compare the fast projections against something that knows
nothing about them.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .geometry import NEGATIVE_ENTROPY, Geometry, divergence, mirror_map

_ENTROPY_FLOOR = 1e-12


def constrained_divergence_argmin(
    g: Geometry, z: np.ndarray, caps: np.ndarray | None = None
) -> np.ndarray:
    """Numerically minimize B_R(x, z) over the (possibly capped) simplex."""
    z = np.asarray(z, dtype=float)
    n = len(z)
    if caps is None:
        caps = np.full(n, np.inf)
    caps = np.asarray(caps, dtype=float)
    if g is NEGATIVE_ENTROPY:
        lo = _ENTROPY_FLOOR
    else:
        # sum x = 1 on the feasible set, so shifting z moves the objective by a
        # constant; with max z at 0 the free coordinates' gradients are small,
        # and SLSQP's line search still sees their differences (at z ~ 400 it
        # stopped 1.5e-6 short of the minimizer)
        lo, z = 0.0, z - z.max()
    bounds = [(lo, min(c, 1.0)) for c in caps]
    x0 = np.minimum(np.full(n, 1.0 / n), caps)
    x0 = x0 / x0.sum()

    def objective(x):
        xx = np.maximum(x, lo)
        return divergence(g, xx, z)

    def gradient(x):  # analytic: finite differences at z ~ 1e3 miss the minimizer by 1e-3
        return mirror_map(g, np.maximum(x, lo)) - mirror_map(g, z)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # SLSQP clipping chatter
        res = minimize(
            objective,
            x0,
            jac=gradient,
            method="SLSQP",
            bounds=bounds,
            constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0}],
            options={"maxiter": 500, "ftol": 1e-14},
        )
    return np.asarray(res.x)


def orthant_l1_argmin(z: np.ndarray, lam: float) -> np.ndarray:
    """Coordinate-wise bounded scalar minimization of the penalized objective."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    hi = max(float(np.max(np.abs(z))) + 1.0, 1.0)
    for i, zi in enumerate(z):
        res = minimize_scalar(
            lambda y: 0.5 * (y - zi) ** 2 + lam * y,
            bounds=(0.0, hi),
            method="bounded",
            options={"xatol": 1e-12},
        )
        out[i] = res.x
    return out


def hypercube_entropic_argmin(z: np.ndarray) -> np.ndarray:
    """Coordinate-wise minimization of the generalized KL over [0, 1]."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    for i, zi in enumerate(z):
        res = minimize_scalar(
            lambda y: y * np.log(y / zi) - y + zi,
            bounds=(_ENTROPY_FLOOR, 1.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        out[i] = res.x
    return out
