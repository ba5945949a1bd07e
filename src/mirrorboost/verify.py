"""Re-derive every training-error bound from a stored trace and check it.

The trace carries the edge sequence (plus ||y||_1 where relevant), which is
all the bounds depend on; the verifier replays it through ``bounds.RoundChecks``,
the same checks the trainer runs, rather than trusting the bound column
written at run time. The header is checked first, then each record for the
keys the checks read (``RoundChecks.keys``); a value that is missing or unusable
is a ``ParseError`` naming the key and the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bounds
from .boosting import EDGE_TOL, FORCED_GEOMETRY, Algorithm
from .errors import ParseError
from .trace_io import TraceFile


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
    try:
        algorithm = Algorithm(header.get("algorithm"))
    except ValueError:
        return [FamilyReport(str(header.get("algorithm")), False, "unknown algorithm in header")]
    algo = algorithm.value
    k = header.get("k")
    if k is not None and not (_number(k) and math.isfinite(k)):
        raise ParseError(f"header key 'k' must be a finite number, got {k!r}", 1)
    if algo == "maxmargin":
        detail = "no per-round error bound applies to the margin schedule; "
        return [FamilyReport("maxmargin", True, f"{detail}final margin {rounds[-1].get('margin')}")]
    geometry = header.get("geometry")
    if algorithm not in FORCED_GEOMETRY and geometry not in ("entropy", "quadratic"):
        raise ParseError(f"header 'geometry' must be entropy or quadratic: {geometry!r}", 1)
    n = _header_int(header, "n", 1, 2**53) if algo in ("sparse", "mada", "combined") else None
    n_a = None
    if algo == "combined":
        # the edge sequence bounds the primary-subset error, scaled by the
        # feasibility of its error distribution inside the mixed set
        n_a = n - _header_int(header, "n_b", 0, n)
    elif algo == "smooth" and (k is None or k < 1.0):
        raise ParseError(f"header key 'k' must be a number >= 1, got {k!r}", 1)
    checks = bounds.RoundChecks(algo, geometry, n, k, n_a, header.get("alpha_mode") == "half")
    keys = checks.keys
    for rec, line in zip(rounds, trace.lines):
        for key in keys:
            value = rec.get(key)
            if type(value) is not float and not _number(value):  # floats skip the call
                raise ParseError(f"key {key!r} is missing or not a number", line)
        # a round is only recorded when its edge clears the zero-edge test
        if rec["gamma"] <= EDGE_TOL:
            raise ParseError(f"'gamma' must be a positive edge, got {rec['gamma']!r}", line)

    if not checks.families:  # combined with an empty subset A
        family = f"combined-primary-error ({geometry})"
        return [FamilyReport(family, True, "subset A is empty; the bound is vacuous")]
    first_bad = dict.fromkeys(checks.families)
    for rec, _, held in checks.replay(rounds):
        for family, holds in held:
            if not holds and first_bad[family] is None:
                first_bad[family] = rec["t"]
    total = len(rounds)
    return [
        FamilyReport(family, True, f"{total} rounds within bounds")
        if bad is None
        else FamilyReport(family, False, f"first violation at round {bad}")
        for family, bad in first_bad.items()
    ]


def _number(value) -> bool:
    """A JSON number the checks can use: bool is not one, and neither is an
    int beyond 2**53, as float arithmetic on it or on its square could overflow."""
    return type(value) is float or type(value) is int and abs(value) <= 2**53


def _header_int(header: dict, key: str, lo: int, hi: float) -> int:
    value = header.get(key)
    if type(value) is not int or not lo <= value <= hi:
        raise ParseError(
            f"header key {key!r} must be an integer in [{lo}, {hi}], got {value!r}", 1
        )
    return value
