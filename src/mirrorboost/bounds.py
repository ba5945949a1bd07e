"""Every training-error bound the package checks, each written once.

The trainer checks the bounds as it runs, ``verify`` re-derives them from a
stored trace and the acceptance bench from a run's round records; all three
take the formulas from here. A check passes within the shared ``SLACK``.
"""

from __future__ import annotations

import math

from .geometry import Geometry, GeometryKind

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


def sparse_term(gamma: float, y_l1: float) -> float:
    """One round's gamma^2 ||y||_1^2, summed by the sparse bound."""
    return gamma * gamma * y_l1 * y_l1


def sparse(sum_term: float, half: bool) -> float:
    """Sparse bound 1/(1 + c sum gamma^2 ||y||_1^2); c = 1/4 with the half-edge penalty, else 1."""
    c = 0.25 if half else 1.0
    return 1.0 / (1.0 + c * sum_term)


def sparse_mass_floor(n: int) -> float:
    """Without a penalty, ||y||_1 stays >= 1/N while the ensemble errs."""
    return 1.0 / n


def mada_mass_floor(n: int, error: float) -> float:
    """MadaBoost keeps ||y||_1 >= N * error."""
    return n * error


def mada_rate(t: int, gamma_min: float) -> float:
    """MadaBoost's rate: error^2 <= 1/(t gamma_min^2) after t rounds."""
    return 1.0 / (t * gamma_min**2)


def worst_margin_reference_divergence(g: Geometry, n: int) -> float:
    """B_R(e_i, uniform): the constant C in the margin accuracy gap."""
    if g.kind is GeometryKind.QUADRATIC:
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
