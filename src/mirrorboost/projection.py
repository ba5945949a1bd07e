"""Bregman projections onto the constraint sets used by the boosters.

Simplex, capped simplex, mixed per-coordinate caps, positive orthant with
an l1 penalty, the unit hypercube (entropic), and the hypercube then the
simplex. Quadratic projections use sort-then-threshold / multiplier
bisection; entropic projections use normalization with greedy capping. All
functions are pure.

The capped bisection settles most of its steps without a pass over z. The
exact sum T(theta) = sum_i clamp(z_i - theta, 0, cap_i) is linear, with
slope -m, on each piece between consecutive breakpoints z_i and z_i - cap_i
(Duchi et al., ICML 2008); m counts the coordinates strictly between 0 and
their cap. A pass at theta_0 whose sum overshoots 1 makes theta_0 the
bisection's lo, which only rises; it classifies every coordinate, which
gives the piece from theta_0 up to the next breakpoint, its slope, and the
float sum there. A float sum of nonnegative terms, none of which goes
through more than h additions, lies within gamma_h = h u / (1 - h u) of the
exact sum, u = 2**-53 (Higham, SIAM J. Sci. Comput. 1993); NumPy sums
pairwise, so h grows like log2 n (_sum_depth). Rounding z_i - theta adds
at most u per term. So, for a midpoint on the piece, the float sum that a
pass would return lies in a known interval; above the piece's end it lies
below the interval's top there, since the sum falls as theta rises.
When the bisection's three-way test (within _SUM_TOL of 1, above, below)
gives one answer on the whole interval, the step is taken without the
pass. Every step takes the same branch as a full pass would, so theta is
the same float. At n = 1e5 the interval is about 2e-14 either side, and a
projection of boosting weights takes 3-4 passes (7-11 with h = n).
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
_HUGE = 2.0**1000  # beyond this the certificate's arithmetic could overflow
_PUSH = 2.0**20 * _HUGE  # moves an entry past every breakpoint, without overflow


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


class _Piece:
    """A stretch [lo, hi] of theta on which the exact clamped sum is
    T(theta) = T(anchor) - m (theta - anchor), with the anchor's float sum.

    Built from the buffer of a pass at lo whose sum overshot 1, so that lo
    became the bisection's lo. Zero coordinates are z <= lo, capped ones
    have a rounded z - lo >= cap, and the m others are free. The piece ends
    where the first free one reaches zero (at z) or the first capped one
    leaves its cap (at z - cap, rounded down).
    """

    def __init__(self, z, caps, buf, theta, s, mask, tmp):
        n = len(z)
        # every entry that cannot end the piece is pushed up by _PUSH
        np.less_equal(z, theta, out=mask)
        n_zero = int(np.count_nonzero(mask))
        end = math.inf
        if n_zero < n:
            np.multiply(mask, _PUSH, out=tmp)
            tmp += z
            end = float(tmp.min())
        np.less(buf, caps, out=mask)
        n_capped = n - int(np.count_nonzero(mask))
        if n_capped:
            np.multiply(mask, _PUSH, out=tmp)
            tmp += z
            tmp -= buf  # z - cap on the capped coordinates
            end = min(end, math.nextafter(float(tmp.min()), -math.inf))
        self.lo, self.hi = theta, end
        self.m = n - n_zero - n_capped
        self.anchor, self.s = theta, s
        # with eps = gamma_h + 4u, k (s + |m (x - anchor)|) covers the
        # anchor's error, the error of a pass at x, the products, the rounding
        # of c +- r, and a cap reached only by rounding (u s), for n < 9e12
        nu = _sum_depth(n) * _U
        self.k = 2.05 * (nu / (1.0 - nu) + 4 * _U) + 10 * _U

    def bounds(self, x: float) -> tuple[float, float]:
        """Floats around the sum that a pass at x in [lo, hi] would return."""
        md = self.m * (x - self.anchor)
        r = self.k * (self.s + abs(md))
        if r == math.inf:  # an overflowing product bounds nothing
            return -math.inf, math.inf
        return self.s - md - r, self.s - md + r


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
    piece, width = None, math.inf
    # certify only finite, moderate input and positive caps: NaN takes passes
    certify = s < _HUGE and hi <= _HUGE and z.min() >= -_HUGE and caps.min() > 0
    if certify:
        scratch = np.empty(len(z), dtype=bool), np.empty(len(z))
        piece = _Piece(z, caps, buf, lo, s, *scratch)
        if piece.lo < piece.hi:
            width = piece.hi - piece.lo
        else:  # empty, or a cap reached only by rounding hides a breakpoint
            piece = None
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)  # never below lo, so never below a piece
        step = None
        if piece is not None:
            # _bisection_step is monotone, so an answer it gives on both
            # bounds is the pass's; above the end only a step down is certain
            low, high = piece.bounds(min(mid, piece.hi))
            certain = _bisection_step(low)
            if certain == _bisection_step(high) and (certain < 0 or mid <= piece.hi):
                step = certain
        if step is None:
            s = _clamped_sum(z, caps, mid, buf)
            step = _bisection_step(s)
            if certify and step:
                if piece is not None and mid <= piece.hi:
                    piece.anchor, piece.s = mid, s  # a nearer anchor, a tighter bound
                elif step > 0 and hi - lo <= 4.0 * width:
                    # a piece much narrower than the bracket would be left at
                    # once; the last one's width estimates the next one's
                    new = _Piece(z, caps, buf, mid, s, *scratch)
                    if new.lo < new.hi:
                        piece, width = new, new.hi - new.lo
        if step == 0:
            lo = hi = mid
            break
        if step > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _project_mixed_quadratic(z: np.ndarray, caps: np.ndarray) -> np.ndarray:
    w = np.empty_like(z)  # scratch for every clamped sum, then the result
    s = _clamped_sum(z, caps, _mixed_theta(z, caps, w), w)
    if s > 0:  # absorb residual bisection error on the free coordinates
        free = (w > 0) & (w < caps)
        m = np.count_nonzero(free)
        if m:
            # entries at 0 or their cap gain a signed zero the clamps undo
            w += free * ((1.0 - s) / m)
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
    if len(caps) != len(z):
        raise ConfigurationError("caps length must match the vector length")
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
