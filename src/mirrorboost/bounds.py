"""Every bound the package checks, each written once.

Theorem 1 (``theorem1``) bounds five boosters: sparse is its quadratic form on
the edge gamma ||y||_1, each gamma^2 ||y||_1^2 weighed by c = 1/4 under the
half-edge penalty, else 1 (powers of two, which scale the sum exactly), and
combined is it scaled by N/N_A on subset A, at most 1. MadaBoost has its own
rate and max-margin its margin floor (``theorem2``). The trainer checks the
bounds as it runs, ``verify`` re-derives them from a stored trace and the
bench from round records, all three through a ``RoundChecks`` built from the
run's config, which keeps the running sums. A check passes within ``SLACK``.
"""

from __future__ import annotations

import math

from .data import is_integer
from .errors import ConfigurationError, shown
from .geometry import QUADRATIC, Geometry

SLACK = 1e-9


def within(value: float, bound: float) -> bool:
    """value <= bound, up to the shared slack."""
    return value <= bound + SLACK


def reaches(value: float, floor: float) -> bool:
    """value >= floor, up to the shared slack."""
    return value >= floor - SLACK


def theorem1(sum_gamma_sq: float, entropic: bool, n: int = 1, n_a: int = 1) -> float:
    """Theorem 1: error <= exp(-sum gamma^2 / 2) or 1/(1 + sum gamma^2), times n/n_a."""
    if entropic:
        return n / n_a * math.exp(-0.5 * sum_gamma_sq)
    return n / (n_a * (1.0 + sum_gamma_sq))


def mada_rate(t: int, gamma_min: float) -> float:
    """MadaBoost's rate: error^2 <= 1/(t gamma_min^2) after t rounds."""
    return 1.0 / (t * (gamma_min * gamma_min))  # ** would raise OverflowError


def theorem2(t: int, g: Geometry, n: int, gamma_min: float) -> float:
    """Theorem 2's floor gamma_min - nu(t) on the margin after t max-margin rounds on n samples:
    nu(t) = (1 + log t) / (2 sqrt(t+1) - 2) * gamma_min + L C / (gamma_min (sqrt(t+1) - 1)),
    L the geometry's dual-norm bound, C = B_R(e_i, uniform): 1/2 (1 - 1/n) or log n."""
    c = 0.5 * (1.0 - 1.0 / n) if g is QUADRATIC else math.log(n)
    root = math.sqrt(t + 1.0) - 1.0
    return gamma_min - ((1.0 + math.log(t)) / (2.0 * root) * gamma_min
                        + g.dual_norm_sq_bound(n) * c / (gamma_min * root))


# each booster's round-record keys, in the order verify names the first missing one, the
# last the error its bound covers, and its check families in report order, "{}" the geometry
_ROWS = {
    "maboost-active": (("gamma", "train_error"), ("training-error ({})",)),
    "maboost-lazy": (("gamma", "train_error"), ("training-error ({})",)),
    "smooth": (("gamma", "train_error"), ("smooth-training-error ({})",)),
    "combined": (("gamma", "eps_a"), ("combined-primary-error ({})",)),
    "sparse": (("gamma", "y_l1", "train_error"), ("sparse-training-error", "sparse-mass-floor")),
    "mada": (("gamma", "y_l1", "train_error"), ("mada-mass-floor", "mada-convergence-rate")),
    "maxmargin": ((), ()),
}


class RoundChecks:
    """The per-round bound checks of one run on n samples, n_b of them in
    subset B (combined only), with the running state they need.

    Built from the run's ``BoosterConfig``, so ``verify`` builds it from the
    config a stored header records exactly as the trainer and the bench do
    from theirs. ``families`` names every check the run can report, in report
    order, ``keys`` the round-record keys ``add`` reads and ``error_key`` the
    last of them, the error the bound covers (None for max-margin).
    """

    def __init__(self, config, n: int, n_b: int | None = None):
        # the config's fields are read once, here: add runs every round
        algorithm, geometry = config.algorithm.value, config.geometry.value
        if not is_integer(n) or not 1 <= n <= 2**53:
            raise ConfigurationError(f"n must be an integer in [1, 2**53], got {shown(n)}")
        if algorithm != "combined" and n_b is not None:
            raise ConfigurationError(f"n_b is for combined, not {algorithm}")
        if algorithm == "combined" and (not is_integer(n_b) or not 0 <= n_b <= n):
            raise ConfigurationError(f"combined checks require n_b in [0, n], got {shown(n_b)}")
        self.half = config.alpha_mode is not None and config.alpha_mode.value == "half"
        self.algorithm, self.n, self.k = algorithm, int(n), config.k
        self.n_a = None if n_b is None else self.n - int(n_b)
        self.scale = (1, 1) if n_b is None else (self.n, self.n_a)  # theorem1's n/n_a, 1/1 exact
        self.entropic = geometry == "entropy"
        self.c = (0.25 if self.half else 1.0) if algorithm == "sparse" else None
        self.sum_sq = 0.0  # theorem1's sum: of gamma^2, or for sparse of c gamma^2 ||y||_1^2
        self.gamma_min = math.inf
        self.keys, families = _ROWS[algorithm]
        self.error_key = self.keys[-1] if self.keys else None
        if self.half:  # the half-edge penalty keeps no mass floor
            families = families[:1]
        # with subset A empty, the primary bound has nothing to bound
        self.families = () if self.n_a == 0 else tuple(f.format(geometry) for f in families)
        self.reads_mass = "sparse-mass-floor" in self.families

    def add(self, rec: dict, mass_after: float | None = None
            ) -> tuple[float | None, list[tuple[str, bool]]]:
        """Check the round record ``rec``: (its bound column or None, [(family, holds), ...]).

        ``rec`` holds ``t`` and the row's ``keys``; ``mass_after`` is ||y||_1
        after the round's update, and None skips the sparse floor.
        """
        if not self.families:
            return None, []
        family, gamma, y_l1 = self.families[0], rec["gamma"], rec.get("y_l1")
        error = rec[self.error_key]
        if self.algorithm == "mada":
            self.gamma_min = min(self.gamma_min, gamma)
            return None, [
                (family, reaches(y_l1, self.n * error)),  # MadaBoost keeps ||y||_1 >= N * error
                (self.families[1], within(error * error, mada_rate(rec["t"], self.gamma_min))),
            ]
        self.sum_sq += gamma * gamma if self.c is None else self.c * (gamma * gamma * y_l1 * y_l1)
        bound = theorem1(self.sum_sq, self.entropic, *self.scale)
        if self.algorithm == "combined":
            bound = min(1.0, bound)
        # the smooth bound argument needs the error distribution inside the
        # capped simplex, which holds while error >= 1/k
        below_k = self.algorithm == "smooth" and error < 1.0 / self.k
        checks = [(family, below_k or within(error, bound))]
        # without a penalty, ||y||_1 stays >= 1/N while the ensemble errs
        if self.reads_mass and mass_after is not None and error > 0.0:
            checks.append((self.families[1], reaches(mass_after, 1.0 / self.n)))
        return bound, checks

    def replay(self, records, last_mass: float | None = None):
        """Check recorded rounds in order, yielding (record, bound, held) for each.

        A record's ``y_l1`` is ||y||_1 before its round's update, so the mass
        after round t is round t+1's ``y_l1``, and the mass after the last
        round is ``last_mass`` (None: unknown, which skips that round's floor).
        """
        records = list(records)
        after = [*(rec.get("y_l1") for rec in records[1:]), last_mass]
        for rec, mass_after in zip(records, after):
            yield (rec, *self.add(rec, mass_after))
