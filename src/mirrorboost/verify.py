"""Re-derive every training-error bound from a stored trace and check it.

The trace carries the edge sequence (plus ||y||_1 where relevant), which is
all the bounds depend on; the verifier recomputes them from scratch with the
formulas in ``bounds`` rather than trusting the bound column written at run
time. A header or record that lacks a value the checks read is a
``ParseError`` naming the key and the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from . import bounds
from .boosting import EDGE_TOL
from .errors import ParseError
from .trace_io import TraceFile

# JSON numbers; bool is excluded on purpose
_NUMBER = (int, float)
# the record keys each algorithm's checks read (all but maxmargin read gamma)
_RECORD_KEYS = {
    "maboost-active": ("gamma", "train_error"),
    "maboost-lazy": ("gamma", "train_error"),
    "smooth": ("gamma", "train_error"),
    "combined": ("gamma", "eps_a"),
    "sparse": ("gamma", "y_l1", "train_error"),
    "mada": ("gamma", "y_l1", "train_error"),
    "maxmargin": (),
}


@dataclass
class FamilyReport:
    family: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.family}: {self.detail}"


def verify_trace(trace: TraceFile) -> list[FamilyReport]:
    header, rounds = trace.header, trace.rounds
    if not rounds:
        return [FamilyReport("empty-trace", True, "no rounds recorded; vacuous pass")]

    algo = header.get("algorithm")
    if algo not in _RECORD_KEYS:
        return [FamilyReport(str(algo), False, "unknown algorithm in header")]
    keys = _RECORD_KEYS[algo]
    for rec, line in zip(rounds, trace.lines):
        for key in keys:
            if type(rec.get(key)) not in _NUMBER:
                raise ParseError(f"key {key!r} is missing or not a number", line)
        # a round is only recorded when its edge clears the zero-edge test
        if keys and rec["gamma"] <= EDGE_TOL:
            raise ParseError(f"'gamma' must be a positive edge, got {rec['gamma']!r}", line)

    total = len(rounds)
    if algo == "maxmargin":
        detail = "no per-round error bound applies to the margin schedule; "
        return [FamilyReport("maxmargin", True, f"{detail}final margin {rounds[-1].get('margin')}")]
    if algo == "sparse":
        n = _header_int(header, "n", 1, math.inf)
        half = header.get("alpha_mode") == "half"
        sums = accumulate(bounds.sparse_term(rec["gamma"], rec["y_l1"]) for rec in rounds)
        checks = (
            (rec["t"], bounds.within(rec["train_error"], bounds.sparse(s, half)))
            for rec, s in zip(rounds, sums)
        )
        reports = [_report("sparse-training-error", total, checks)]
        if not half:
            # ||y_{t+1}||_1 >= 1/N while the ensemble still errs; round t+1's
            # y_l1 column holds the post-update mass of round t
            floor = bounds.sparse_mass_floor(n)
            checks = (
                (rec["t"], prev["train_error"] <= 0 or bounds.reaches(rec["y_l1"], floor))
                for prev, rec in zip(rounds, rounds[1:])
            )
            reports.append(_report("sparse-mass-floor", total, checks))
        return reports
    if algo == "mada":
        n = _header_int(header, "n", 1, math.inf)
        checks = (
            (rec["t"], bounds.reaches(rec["y_l1"], bounds.mada_mass_floor(n, rec["train_error"])))
            for rec in rounds
        )
        return [
            _report("mada-mass-floor", total, checks),
            _report("mada-convergence-rate", total, _mada_rate_checks(rounds)),
        ]

    geometry = header.get("geometry")
    if geometry not in ("entropy", "quadratic"):
        raise ParseError(f"header 'geometry' must be entropy or quadratic: {geometry!r}", 1)
    entropic = geometry == "entropy"
    sums = accumulate(rec["gamma"] * rec["gamma"] for rec in rounds)
    if algo == "combined":
        # the edge sequence bounds the primary-subset error, scaled by the
        # feasibility of its error distribution inside the mixed set
        family = f"combined-primary-error ({geometry})"
        n = _header_int(header, "n", 1, math.inf)
        n_a = n - _header_int(header, "n_b", 0, n)
        if not n_a:
            return [FamilyReport(family, True, "subset A is empty; the bound is vacuous")]
        checks = (
            (rec["t"], bounds.within(rec["eps_a"], bounds.combined_primary(s, entropic, n, n_a)))
            for rec, s in zip(rounds, sums)
        )
    elif algo == "smooth":
        family = f"smooth-training-error ({geometry})"
        k = header.get("k")
        if type(k) not in _NUMBER or k < 1.0:
            raise ParseError(f"header key 'k' must be a number >= 1, got {k!r}", 1)
        # as in the trainer, the bound applies while the error is >= 1/k
        checks = (
            (rec["t"], rec["train_error"] < 1.0 / k
             or bounds.within(rec["train_error"], bounds.theorem1(s, entropic)))
            for rec, s in zip(rounds, sums)
        )
    else:
        family = f"training-error ({geometry})"
        checks = (
            (rec["t"], bounds.within(rec["train_error"], bounds.theorem1(s, entropic)))
            for rec, s in zip(rounds, sums)
        )
    return [_report(family, total, checks)]


def _mada_rate_checks(rounds: list[dict]):
    gamma_min = math.inf
    for rec in rounds:
        gamma_min = min(gamma_min, rec["gamma"])
        err = rec["train_error"]
        yield rec["t"], bounds.within(err * err, bounds.mada_rate(rec["t"], gamma_min))




def _header_int(header: dict, key: str, lo: int, hi: float) -> int:
    value = header.get(key)
    if type(value) is not int or not lo <= value <= hi:
        raise ParseError(
            f"header key {key!r} must be an integer in [{lo}, {hi}], got {value!r}", 1
        )
    return value


def _report(family: str, total: int, checks) -> FamilyReport:
    """Pass, or fail at the first round t of the (t, holds) pairs that does not hold."""
    first_bad = next((t for t, holds in checks if not holds), None)
    if first_bad is None:
        return FamilyReport(family, True, f"{total} rounds within bounds")
    return FamilyReport(family, False, f"first violation at round {first_bad}")
