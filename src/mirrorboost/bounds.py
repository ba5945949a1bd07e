"""Every training-error bound the package checks, each written once.

The trainer checks the bounds as it runs, ``verify`` re-derives them from a
stored trace and the acceptance bench from a run's round records; all three
feed their rounds to one ``RoundChecks`` (the last two through ``replay``),
which decides which bound applies to a round and keeps the running sums. A
check passes within ``SLACK``.
"""

from __future__ import annotations

import math

from .geometry import QUADRATIC, Geometry

SLACK = 1e-9


def within(value: float, bound: float) -> bool:
    """value <= bound, up to the shared slack."""
    return value <= bound + SLACK


def reaches(value: float, floor: float) -> bool:
    """value >= floor, up to the shared slack."""
    return value >= floor - SLACK


def theorem1(sum_gamma_sq: float, entropic: bool) -> float:
    """Theorem 1: error <= exp(-sum gamma^2 / 2) (entropy), 1/(1 + sum gamma^2) (quadratic)."""
    if entropic:
        return math.exp(-0.5 * sum_gamma_sq)
    return 1.0 / (1.0 + sum_gamma_sq)


def combined_primary(sum_gamma_sq: float, entropic: bool, n: int, n_a: int) -> float:
    """Error bound on subset A (n_a >= 1 of n samples): Theorem 1 scaled by n/n_A, at most 1."""
    if entropic:
        return min(1.0, n / n_a * math.exp(-0.5 * sum_gamma_sq))
    return min(1.0, n / (n_a * (1.0 + sum_gamma_sq)))


def sparse(sum_term: float, half: bool) -> float:
    """Sparse bound 1/(1 + c sum gamma^2 ||y||_1^2); c = 1/4 with the half-edge penalty, else 1."""
    c = 0.25 if half else 1.0
    return 1.0 / (1.0 + c * sum_term)


def mada_rate(t: int, gamma_min: float) -> float:
    """MadaBoost's rate: error^2 <= 1/(t gamma_min^2) after t rounds."""
    return 1.0 / (t * (gamma_min * gamma_min))  # ** would raise OverflowError


class RoundChecks:
    """The per-round bound checks of one run, with the running state they need.

    Built from a trace header's strings, so ``verify`` builds it from a
    stored header exactly as the trainer and the bench do from a config.
    ``families`` names every check the run can report, in report order, and
    ``keys`` the round-record keys ``add`` reads.
    """

    def __init__(self, algorithm: str, geometry: str, n: int, k: float | None = None,
                 n_a: int | None = None, half: bool = False):
        self.algorithm, self.n, self.k, self.n_a, self.half = algorithm, n, k, n_a, half
        self.entropic = geometry == "entropy"
        self.sum_gamma_sq = 0.0
        self.sum_term = 0.0
        self.gamma_min = math.inf
        self.reads_mass = algorithm == "sparse" and not half  # the sparse floor
        # in the order verify names the first missing one
        mass = ("y_l1",) if algorithm in ("sparse", "mada") else ()
        error = "eps_a" if algorithm == "combined" else "train_error"
        self.keys = () if algorithm == "maxmargin" else ("gamma", *mass, error)
        if algorithm == "sparse":
            floor = () if half else ("sparse-mass-floor",)
            self.families = ("sparse-training-error", *floor)
        elif algorithm == "mada":
            self.families = ("mada-mass-floor", "mada-convergence-rate")
        elif algorithm == "maxmargin" or algorithm == "combined" and not n_a:
            self.families = ()
        elif algorithm == "combined":
            self.families = (f"combined-primary-error ({geometry})",)
        elif algorithm == "smooth":
            self.families = (f"smooth-training-error ({geometry})",)
        else:
            self.families = (f"training-error ({geometry})",)

    def add(self, t: int, gamma: float, error: float, y_l1: float | None = None,
            eps_a: float | None = None, mass_after: float | None = None
            ) -> tuple[float | None, list[tuple[str, bool]]]:
        """Check round t: (its bound column or None, [(family, holds), ...]).

        ``y_l1`` and ``eps_a`` are the round's trace columns; ``mass_after``
        is ||y||_1 after the round's update, and None skips the sparse floor.
        """
        family = self.families[0] if self.families else None
        if self.algorithm == "sparse":
            self.sum_term += gamma * gamma * y_l1 * y_l1
            bound = sparse(self.sum_term, self.half)
            checks = [(family, within(error, bound))]
            # without a penalty, ||y||_1 stays >= 1/N while the ensemble errs
            if self.reads_mass and mass_after is not None and error > 0.0:
                checks.append((self.families[1], reaches(mass_after, 1.0 / self.n)))
            return bound, checks
        if self.algorithm == "mada":
            self.gamma_min = min(self.gamma_min, gamma)
            return None, [
                (family, reaches(y_l1, self.n * error)),  # MadaBoost keeps ||y||_1 >= N * error
                (self.families[1], within(error * error, mada_rate(t, self.gamma_min))),
            ]
        if family is None:
            return None, []
        self.sum_gamma_sq += gamma * gamma
        if self.algorithm == "combined":
            bound = combined_primary(self.sum_gamma_sq, self.entropic, self.n, self.n_a)
            return bound, [(family, within(eps_a, bound))]
        bound = theorem1(self.sum_gamma_sq, self.entropic)
        # the smooth bound argument needs the error distribution inside the
        # capped simplex, which holds while error >= 1/k
        below_k = self.algorithm == "smooth" and error < 1.0 / self.k
        return bound, [(family, below_k or within(error, bound))]

    def replay(self, records, last_mass: float | None = None):
        """Check recorded rounds in order, yielding (record, bound, held) for each.

        A record's ``y_l1`` is ||y||_1 before its round's update, so the mass
        after round t is round t+1's ``y_l1``, and the mass after the last
        round is ``last_mass`` (None: unknown, which skips that round's floor).
        """
        records = list(records)
        after = [*(rec.get("y_l1") for rec in records[1:]), last_mass]
        for rec, mass_after in zip(records, after):
            bound, held = self.add(rec["t"], rec["gamma"], rec.get("train_error"),
                                   rec.get("y_l1"), rec.get("eps_a"), mass_after)
            yield rec, bound, held


def worst_margin_reference_divergence(g: Geometry, n: int) -> float:
    """B_R(e_i, uniform): the constant C in the margin accuracy gap."""
    if g is QUADRATIC:
        return 0.5 * (1.0 - 1.0 / n)
    return math.log(n)


def margin_accuracy_gap(t: int, dual_bound: float, c: float, gamma_min: float) -> float:
    """The accuracy level nu(T) of the max-margin schedule.

    nu = (1 + log T) / (2 sqrt(T+1) - 2) * gamma_min
         + L * C / (gamma_min * (sqrt(T+1) - 1)).
    """
    root = math.sqrt(t + 1.0) - 1.0
    return (1.0 + math.log(t)) / (2.0 * root) * gamma_min + dual_bound * c / (
        gamma_min * root
    )
