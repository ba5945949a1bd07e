"""JSON-lines trace files: a versioned header line, then one record per round.

One module writes a trace, reads it back and verifies it. ``read_header``
turns a header into the ``BoosterConfig`` that wrote it and the
``RoundChecks`` the trainer built from it; ``verify_trace`` then replays the
edge sequence (plus ||y||_1 where relevant), all the bounds depend on, through
those checks rather than trusting the bound column written at run time. Each
record must hold the keys the checks read (``RoundChecks.keys``); a value that
is missing, not a number or outside its domain (``_DOMAINS``) is a
``ParseError`` naming the key and the line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .boosting import EDGE_TOL, BoosterConfig, BoostResult, RoundTrace
from .bounds import RoundChecks
from .data import is_integer, is_real
from .errors import ConfigurationError, ParseError, UsageError, opens_file, shown, write_over

SCHEMA_VERSION = 1
_ENCODER = json.JSONEncoder(sort_keys=True)  # what json.dumps(..., sort_keys=True) builds
_raw_decode = json.JSONDecoder().raw_decode  # what json.loads runs, less its checks


@dataclass
class TraceFile:
    header: dict
    rounds: list[dict]
    lines: list[int]  # the file line of each round record


@opens_file("write", 2)
def write_trace(result: BoostResult, n: int, path: str, k: float | None = None) -> None:
    """Write the run's header (its config, n and n_b), then a record per round. ``n`` and ``k``
    (None: not given) must match the run, else ``UsageError``; both go once perfbench drops them."""
    config = result.config
    if n != result.n or k not in (None, config.k):
        raise UsageError(
            f"the run has n={result.n} and k={config.k!r}, not n={shown(n)} and k={shown(k)}")
    header = {"schema": SCHEMA_VERSION, "algorithm": config.algorithm.value,
              "geometry": config.geometry.value, "n": result.n, "k": config.k,
              "alpha_mode": config.alpha_mode and config.alpha_mode.value, "n_b": result.n_b}
    header = {key: value for key, value in header.items() if value is not None}
    encode = _ENCODER.encode
    lines = [encode(header), *(encode(_record(tr)) for tr in result.traces), ""]
    write_over(path, "\n".join(lines))


def _record(tr: RoundTrace) -> dict:
    """A round's record: the fields of ``RoundTrace`` that are set, and ``bound`` (null
    where no bound applies)."""
    return {key: value for key, value in vars(tr).items() if value is not None or key == "bound"}


@opens_file("read")
def read_trace(path: str) -> TraceFile:
    """The header and round records of the trace at ``path``. A record line is
    decoded by ``raw_decode`` when that takes the whole line (its ``\\n`` aside):
    ``json.loads`` would give the same value. Any other line (blank, padded,
    with a BOM, malformed, holding extra data, an int past the digit limit or
    nesting past the recursion limit) goes to ``json.loads``, whose value or
    refusal stands."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError("empty trace file", 1)
    try:
        header = json.loads(lines[0])
    except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise ParseError(f"bad header: {exc}", 1) from None
    schema = header.get("schema") if isinstance(header, dict) else None
    if not is_integer(schema) or schema != SCHEMA_VERSION:  # JSON true and 1.0 equal 1 too
        raise ParseError("missing or unsupported schema header", 1)
    rounds = []
    record_lines = []
    last_t = 0
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            rec, end = _raw_decode(line)
            whole = end == len(line) or line[end:] == "\n"
        except (ValueError, RecursionError):
            whole = False
        if not whole:
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ParseError(f"bad record: {exc}", lineno) from None
        if not isinstance(rec, dict):
            raise ParseError("a round record must be a JSON object", lineno)
        t = rec.get("t")
        if type(t) is not int and not is_integer(t) or t != last_t + 1:  # ints skip the call
            raise ParseError(f"round numbers must be consecutive integers, got {t}", lineno)
        last_t = t
        rounds.append(rec)
        record_lines.append(lineno)
    return TraceFile(header=header, rounds=rounds, lines=record_lines)


def read_header(header: dict) -> tuple[BoosterConfig, RoundChecks]:
    """The config a trace header records, and the checks of its run. The header
    holds no round budget and no target, so the config has one round and the
    default target. A config or checks that ``BoosterConfig`` or ``RoundChecks``
    refuses is a ``ParseError`` at line 1."""
    try:
        config = BoosterConfig(header.get("algorithm"), header.get("geometry"), rounds=1,
                               k=header.get("k"), alpha_mode=header.get("alpha_mode"))
        return config, RoundChecks(config, header.get("n"), header.get("n_b"))
    except ConfigurationError as exc:
        raise ParseError(f"bad header: {exc}", 1) from None


@dataclass
class FamilyReport:
    family: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.family}: {self.detail}"


def verify_trace(trace: TraceFile) -> list[FamilyReport]:
    header, rounds = trace.header, trace.rounds
    config, checks = read_header(header)
    if not rounds:
        return [FamilyReport("empty-trace", True, "no rounds recorded; vacuous pass")]
    domains = [(key, *_DOMAINS[key]) for key in checks.keys]
    for rec, line in zip(rounds, trace.lines):
        for key, lo, hi, what in domains:
            value = rec.get(key)
            if type(value) is not float and not is_real(value):  # floats skip the call
                raise ParseError(f"key {key!r} is missing or not a number", line)
            if not lo <= value <= hi:  # false for NaN too
                raise ParseError(f"key {key!r} must be {what}, got {shown(value)}", line)

    if not checks.families:  # the margin schedule, or combined with an empty subset A
        return [FamilyReport(config.algorithm.value, True, "no per-round bound; vacuous pass")]
    first_bad = dict.fromkeys(checks.families)
    for rec, _, held in checks.replay(rounds):
        for family, holds in held:
            if not holds and first_bad[family] is None:
                first_bad[family] = rec["t"]
    return [
        FamilyReport(family, True, f"{len(rounds)} rounds within bounds")
        if bad is None
        else FamilyReport(family, False, f"first violation at round {bad}")
        for family, bad in first_bad.items()
    ]


# (lo, hi, description) of each key the checks read: every value is finite, and a
# round is only recorded when its edge clears the zero-edge test
_MAX = math.nextafter(math.inf, 0.0)  # the largest finite float
_DOMAINS = {"gamma": (math.nextafter(EDGE_TOL, math.inf), _MAX, f"a finite edge > {EDGE_TOL:g}"),
            "train_error": (0.0, 1.0, "in [0, 1]"), "eps_a": (0.0, 1.0, "in [0, 1]"),
            "y_l1": (0.0, _MAX, "finite and >= 0")}

