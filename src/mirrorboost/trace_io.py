"""JSON-lines trace files: a versioned header line, then one record per round."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .boosting import BoostResult, RoundTrace
from .errors import ParseError, reads_file

SCHEMA_VERSION = 1
_ENCODER = json.JSONEncoder(sort_keys=True)  # what json.dumps(..., sort_keys=True) builds


@dataclass
class TraceFile:
    header: dict
    rounds: list[dict]
    lines: list[int]  # the file line of each round record


def write_trace(result: BoostResult, n: int, path: str, k: float | None = None,
                alpha_mode: str | None = None, n_b: int | None = None) -> None:
    header = {"schema": SCHEMA_VERSION, "algorithm": result.algorithm.value,
              "geometry": result.geometry.value, "n": n, "k": k, "alpha_mode": alpha_mode,
              "n_b": n_b}
    header = {key: value for key, value in header.items() if value is not None}
    encode = _ENCODER.encode
    lines = [encode(header), *(encode(_record(tr)) for tr in result.traces), ""]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _record(tr: RoundTrace) -> dict:
    """A round's record: the fields of ``RoundTrace`` that are set, and ``bound`` (null
    where no bound applies)."""
    return {key: value for key, value in vars(tr).items() if value is not None or key == "bound"}


@reads_file
def read_trace(path: str) -> TraceFile:
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError("empty trace file", 1)
    try:
        header = json.loads(lines[0])
    except ValueError as exc:  # a JSONDecodeError, or an int over the digit limit
        raise ParseError(f"bad header: {exc}", 1) from None
    schema = header.get("schema") if isinstance(header, dict) else None
    if type(schema) is not int or schema != SCHEMA_VERSION:  # JSON true and 1.0 equal 1 too
        raise ParseError("missing or unsupported schema header", 1)
    rounds = []
    record_lines = []
    last_t = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise ParseError(f"bad record: {exc}", lineno) from None
        if not isinstance(rec, dict):
            raise ParseError("a round record must be a JSON object", lineno)
        t = rec.get("t")
        if type(t) is not int or t != last_t + 1:
            raise ParseError(f"round numbers must be consecutive integers, got {t}", lineno)
        last_t = t
        rounds.append(rec)
        record_lines.append(lineno)
    return TraceFile(header=header, rounds=rounds, lines=record_lines)
