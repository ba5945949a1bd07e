"""The trace codec: ``read_header`` reads back the config ``train`` wrote, and
``read_trace`` reads every file as the per-line ``json.loads`` reader did.

Every ``--algo`` configuration the benchmark's ``paper-sweep`` runs is trained
through the CLI, and its header must read back into the trainer's config and
checks, and ``write_trace`` on the library's run of the same configuration must
write the same bytes. A header ``train`` can never write, because
``BoosterConfig`` or ``RoundChecks`` refuses it, is a parse error at line 1 for
``verify``.
"""

import functools
import importlib.util
import inspect
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mirrorboost import bounds
from mirrorboost.boosting import FORCED_GEOMETRY, Algorithm, AlphaMode, BoosterConfig, run
from mirrorboost.cli import main
from mirrorboost.data import gen_combined, gen_noisy, is_integer
from mirrorboost.errors import ParseError, UsageError, opens_file
from mirrorboost.geometry import NEGATIVE_ENTROPY, QUADRATIC
from mirrorboost.trace_io import (
    SCHEMA_VERSION,
    TraceFile,
    read_header,
    read_trace,
    verify_trace,
    write_trace,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _sweep_configs(monkeypatch):
    """``PaperSweep.CONFIGS``: (algo, geometry or None, extra flags) of each run."""
    path = PERFBENCH / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module.PaperSweep.CONFIGS


def test_header_reads_back_the_config_train_wrote(tmp_path, monkeypatch):
    configs = _sweep_configs(monkeypatch)
    assert len(configs) == 12
    built = []  # (config, its checks) of each RoundChecks the trainer builds

    class Recording(bounds.RoundChecks):
        def __init__(self, config, n, n_b=None):
            super().__init__(config, n, n_b)
            built.append((config, self))

    monkeypatch.setattr(bounds, "RoundChecks", Recording)
    for i, (algo, geometry, extra) in enumerate(configs):
        gen = "combined:0:150:50:0.3" if algo == "combined" else "noisy:0:200:0.1"
        trace = str(tmp_path / f"{i}.jsonl")
        argv = ["train", "--algo", algo, "--gen", gen, "--rounds", "5", "--trace", trace,
                *(["--geometry", geometry] if geometry else []), *extra]
        built.clear()
        assert main(argv) == 0, argv
        [(trained, trainer_checks)] = built
        config, read_back = read_header(read_trace(trace).header)
        fields = ("algorithm", "geometry", "k", "alpha_mode", "target_error")
        assert [getattr(config, f) for f in fields] == [getattr(trained, f) for f in fields], argv
        assert config.target_error == (1.0 / config.k if algo == "smooth" else 0.0)
        assert read_back.families == trainer_checks.families, argv
        assert read_back.keys == trainer_checks.keys, argv


# the BoosterConfig field each paper-sweep flag sets, and its type
_FLAG_FIELDS = {"--k": ("k", float), "--alpha-mode": ("alpha_mode", str),
                "--mada-eta": ("mada_eta", str)}


def test_library_run_writes_the_trace_train_writes(tmp_path, monkeypatch, capsys):
    for i, (algo, geometry, extra) in enumerate(_sweep_configs(monkeypatch)):
        combined = algo == "combined"
        gen = "combined:0:150:50:0.3" if combined else "noisy:0:200:0.1"
        cli_trace, lib_trace = tmp_path / f"{i}-cli.jsonl", tmp_path / f"{i}-lib.jsonl"
        argv = ["train", "--algo", algo, "--gen", gen, "--rounds", "100",
                "--trace", str(cli_trace), *(["--geometry", geometry] if geometry else []),
                *extra]
        assert main(argv) == 0, argv
        kw = {_FLAG_FIELDS[flag][0]: _FLAG_FIELDS[flag][1](value)
              for flag, value in zip(extra[::2], extra[1::2])}
        config = BoosterConfig(algo, geometry or FORCED_GEOMETRY[Algorithm(algo)], 100, **kw)
        data = gen_combined(0, 150, 50, 0.3) if combined else gen_noisy(0, 200, 0.1)
        write_trace(run(config, data), data.n, str(lib_trace))
        assert lib_trace.read_bytes() == cli_trace.read_bytes(), argv


@pytest.mark.parametrize("config, data", [
    (BoosterConfig(Algorithm.SMOOTH, NEGATIVE_ENTROPY, 60, k=20.0), gen_noisy(0, 200, 0.1)),
    (BoosterConfig(Algorithm.SPARSE, QUADRATIC, 60, alpha_mode=AlphaMode.HALF),
     gen_noisy(0, 200, 0.1)),
    (BoosterConfig(Algorithm.COMBINED, NEGATIVE_ENTROPY, 60, k=8.0),
     gen_combined(0, 150, 50, 0.3)),
], ids=["smooth", "sparse-half", "combined"])
def test_header_written_without_keywords_is_the_runs(tmp_path, config, data):
    path = tmp_path / "trace.jsonl"
    result = run(config, data)
    write_trace(result, data.n, str(path))
    trace = read_trace(str(path))
    read_back, checks = read_header(trace.header)
    fields = ("algorithm", "geometry", "k", "alpha_mode")
    assert [getattr(read_back, f) for f in fields] == [getattr(config, f) for f in fields]
    assert (trace.header["n"], trace.header.get("n_b")) == (result.n, result.n_b) == (
        200, 50 if config.algorithm is Algorithm.COMBINED else None)
    assert checks.half == (config.alpha_mode is AlphaMode.HALF)
    reports = verify_trace(trace)
    assert reports and all(r.passed for r in reports), [r.line() for r in reports]


def test_write_trace_takes_no_header_keyword_but_k():
    # alpha_mode and n_b come from the result alone, so a wrong one cannot be written
    assert list(inspect.signature(write_trace).parameters) == ["result", "n", "path", "k"]


@pytest.mark.parametrize("config, n, k", [
    (BoosterConfig(Algorithm.SPARSE, QUADRATIC, 5, alpha_mode="half"), 999, None),
    (BoosterConfig(Algorithm.SPARSE, QUADRATIC, 5, alpha_mode="half"), 200.5, None),
    (BoosterConfig(Algorithm.SMOOTH, QUADRATIC, 5, k=20.0), 200, 4.0),
    (BoosterConfig(Algorithm.SMOOTH, QUADRATIC, 5, k=20.0), 200, math.nan),
    (BoosterConfig(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 5), 200, 20.0),
], ids=["n", "fractional-n", "k", "nan-k", "k-off-smooth"])
def test_n_or_k_the_run_does_not_have_is_a_usage_error(tmp_path, config, n, k):
    path = tmp_path / "trace.jsonl"
    result = run(config, gen_noisy(0, 200, 0.1))
    with pytest.raises(UsageError, match=r"^the run has n=200 and k="):
        write_trace(result, n, str(path), k=k)
    assert not path.exists()


def test_header_gives_n_and_n_b_where_the_checks_read_them():
    header = {"algorithm": "combined", "geometry": "entropy", "k": 8, "n": 200, "n_b": 50}
    config, checks = read_header(header)
    assert (config.algorithm, config.geometry, config.k, checks.n, checks.n_a) == (
        Algorithm.COMBINED, NEGATIVE_ENTROPY, 8, 200, 150)
    config, checks = read_header({"algorithm": "sparse", "geometry": "quadratic",
                                  "alpha_mode": "half", "n": 7})
    assert (config.alpha_mode, config.geometry, checks.n, checks.n_a) == (
        AlphaMode.HALF, QUADRATIC, 7, None)
    _, checks = read_header({"algorithm": "maboost-lazy", "geometry": "entropy", "n": 9})
    assert (checks.n, checks.n_a) == (9, None)


@pytest.mark.parametrize("key, header", [
    ("algorithm", {"algorithm": "nope", "geometry": "entropy"}),
    ("geometry", {"algorithm": "smooth", "k": 4}),
    ("alpha_mode", {"algorithm": "sparse", "geometry": "quadratic", "alpha_mode": "quarter"}),
])
def test_name_outside_its_enum_is_a_parse_error_naming_the_key(key, header):
    with pytest.raises(ParseError, match=f"^line 1: bad header: {key} must be ") as caught:
        read_header({"n": 10, **header})
    assert caught.value.line == 1


# a record every check accepts; only the header is wrong
_RECORD = {"t": 1, "gamma": 0.5, "eta": 0.5, "train_error": 0.1, "bound": 0.9,
           "max_weight": 0.01, "nnz": 200, "y_l1": 1.0, "eps_a": 0.1}


@pytest.mark.parametrize(
    "header",
    [
        {"algorithm": "maboost-active", "geometry": "entropy", "k": 4.0},
        {"algorithm": "maboost-active", "geometry": "entropy", "alpha_mode": "zero"},
        {"algorithm": "sparse", "geometry": "entropy", "alpha_mode": "zero"},
        {"algorithm": "sparse", "geometry": "nope", "alpha_mode": "zero"},
        {"algorithm": "sparse", "geometry": "quadratic", "alpha_mode": "zero", "k": 4.0},
        {"algorithm": "maxmargin", "geometry": "nope"},
        {"algorithm": "maxmargin", "geometry": "entropy", "alpha_mode": "bogus"},
        {"algorithm": "maxmargin", "geometry": "entropy", "alpha_mode": "half"},
        {"algorithm": "combined", "geometry": "entropy", "n_b": 50},
        {"algorithm": "mada", "geometry": "quadratic"},
    ],
    ids=["active-k", "active-alpha-mode", "sparse-entropy", "sparse-nope", "sparse-k",
         "maxmargin-nope", "maxmargin-bogus-alpha-mode", "maxmargin-alpha-mode",
         "combined-no-k", "mada-quadratic"],
)
@pytest.mark.parametrize("records", [[_RECORD], []], ids=["one-round", "empty"])
def test_header_train_cannot_write_exits_one(tmp_path, capsys, header, records):
    path = tmp_path / "trace.jsonl"
    lines = [json.dumps({"schema": 1, "n": 200, **header}), *map(json.dumps, records), ""]
    path.write_text("\n".join(lines))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1: ")


@pytest.mark.parametrize("header, named", [
    ({"algorithm": "maboost-active", "geometry": "entropy", "n": "x", "n_b": -4},
     "n must be an integer"),
    ({"algorithm": "maboost-active", "geometry": "entropy", "n": 200, "n_b": 50},
     "n_b is for combined, not maboost-active"),
    ({"algorithm": "smooth", "geometry": "quadratic", "k": 4, "n": 200, "n_b": 0},
     "n_b is for combined, not smooth"),
    ({"algorithm": "maboost-lazy", "geometry": "entropy"}, "n must be an integer"),
    ({"algorithm": "combined", "geometry": "entropy", "k": 8, "n": 200},
     "combined checks require n_b"),
], ids=["n-not-a-count", "n_b-on-active", "n_b-on-smooth", "no-n", "combined-no-n_b"])
@pytest.mark.parametrize("records", [[_RECORD], []], ids=["one-round", "empty"])
def test_header_counts_are_checked(tmp_path, capsys, header, named, records):
    path = tmp_path / "trace.jsonl"
    lines = [json.dumps({"schema": 1, **header}), *map(json.dumps, records), ""]
    path.write_text("\n".join(lines))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1: ") and named in captured.err


@opens_file("read")
def _read_trace_reference(path: str) -> TraceFile:
    """``read_trace`` as it was when every line went through ``json.loads``, verbatim."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError("empty trace file", 1)
    try:
        header = json.loads(lines[0])
    except ValueError as exc:  # a JSONDecodeError, or an int over the digit limit
        raise ParseError(f"bad header: {exc}", 1) from None
    schema = header.get("schema") if isinstance(header, dict) else None
    if not is_integer(schema) or schema != SCHEMA_VERSION:  # JSON true and 1.0 equal 1 too
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
        if type(t) is not int and not is_integer(t) or t != last_t + 1:  # ints skip the call
            raise ParseError(f"round numbers must be consecutive integers, got {t}", lineno)
        last_t = t
        rounds.append(rec)
        record_lines.append(lineno)
    return TraceFile(header=header, rounds=rounds, lines=record_lines)


def _read_outcome(read, path):
    """The trace as its repr, which tells 1 from 1.0 and True and matches NaN to
    NaN, or the error's type, message and line."""
    try:
        trace = read(path)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return repr((trace.header, trace.rounds, trace.lines))


@functools.cache
def _clean_traces() -> tuple[tuple[str, ...], ...]:
    """The lines, without their newlines, that ``write_trace`` writes for runs
    of several algorithms."""
    runs = [
        (BoosterConfig(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 6), gen_noisy(0, 60, 0.1)),
        (BoosterConfig(Algorithm.SMOOTH, QUADRATIC, 6, k=4.0), gen_noisy(1, 60, 0.1)),
        (BoosterConfig(Algorithm.SPARSE, QUADRATIC, 6, alpha_mode="half"), gen_noisy(2, 60, 0.1)),
        (BoosterConfig(Algorithm.COMBINED, NEGATIVE_ENTROPY, 6, k=8.0),
         gen_combined(0, 40, 20, 0.3)),
        (BoosterConfig(Algorithm.MADA, NEGATIVE_ENTROPY, 6), gen_noisy(3, 60, 0.1)),
        (BoosterConfig(Algorithm.MAX_MARGIN, NEGATIVE_ENTROPY, 6), gen_noisy(4, 60, 0.1)),
    ]
    traces = []
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "trace.jsonl"
        for config, data in runs:
            write_trace(run(config, data), data.n, str(path))
            traces.append(tuple(path.read_text().split("\n")[:-1]))
    return tuple(traces)


_NUMBER = re.compile(r'(?<=": )-?[0-9][0-9.eE+-]*')
_ODD_VALUES = ["NaN", "Infinity", "-Infinity", "1" + "0" * 400, "9" * 5000]


def _odd_value(draw, lines, i):
    """A number of line i swapped for NaN, an infinity or a 400- or 5000-digit int."""
    spots = list(_NUMBER.finditer(lines[i]))
    if spots:
        spot = spots[draw(st.integers(0, len(spots) - 1))]
        value = draw(st.sampled_from(_ODD_VALUES))
        lines[i] = lines[i][:spot.start()] + value + lines[i][spot.end():]


def _odd_t(draw, lines, i):
    """A round number that skips one, repeats one, or is true or 1.0. A t past
    4000 digits, which _odd_value writes, is left as it is: int() and str()
    refuse ints past 4300 digits."""
    value = draw(st.sampled_from(["true", "1.0", "skip", "same"]))
    shift = {"skip": 1, "same": -1}.get(value)
    lines[i] = re.sub(r'"t": (-?\d{1,4000})\b', lambda m: '"t": ' + (
        value if shift is None else str(int(m.group(1)) + shift)), lines[i], count=1)


def _not_an_object(draw, lines, i):
    lines[i] = draw(st.sampled_from(["[1, 2]", '"x"', "3", "null", "[]"]))


def _duplicate_key(draw, lines, i):
    """A key written twice: the last value stands, the round's own or a new t."""
    if draw(st.booleans()):
        lines[i] = '{"gamma": 0.25, ' + lines[i][1:]
    else:
        lines[i] = lines[i][:-1] + ', "t": 1}'


def _padded(draw, lines, i):
    """Spaces and tabs, which JSON skips, or other whitespace, which it refuses."""
    pad = st.text(st.sampled_from(" \t\x0b\x0c\x1c\xa0\u2028"), max_size=3)
    lines[i] = draw(pad) + lines[i] + draw(pad)


def _bom(draw, lines, i):
    lines[i] = "\ufeff" + lines[i]


def _blank_line(draw, lines, i):
    lines.insert(i, draw(st.sampled_from(["", " ", "\t", " \t "])))


def _two_on_one_line(draw, lines, i):
    if i + 1 < len(lines):
        lines[i:i + 2] = [lines[i] + draw(st.sampled_from(["", " "])) + lines[i + 1]]


def _split_over_two_lines(draw, lines, i):
    at = draw(st.integers(1, max(1, len(lines[i]) - 1)))
    lines[i:i + 1] = [lines[i][:at], lines[i][at:]]


_MUTATIONS = [_odd_value, _odd_t, _not_an_object, _duplicate_key, _padded, _bom,
              _blank_line, _two_on_one_line, _split_over_two_lines]


@st.composite
def _trace_texts(draw):
    """A clean trace with up to three mutations, each at a record line (or any
    line, for the value swaps and padding), and drawn line endings."""
    lines = list(draw(st.sampled_from(_clean_traces())))
    for _ in range(draw(st.integers(0, 3))):
        mutate = draw(st.sampled_from(_MUTATIONS))
        first = 0 if mutate in (_odd_value, _padded) else 1
        if len(lines) > first:
            mutate(draw, lines, draw(st.integers(first, len(lines) - 1)))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3))
    text = "".join(line + endings[i % len(endings)] for i, line in enumerate(lines))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


_HEADER = '{"algorithm": "maboost-active", "geometry": "entropy", "n": 200, "schema": 1}'
_ROUND = '{{"bound": 0.7, "eta": 0.8, "gamma": 0.8, "nnz": 200, "t": {}, "train_error": 0.1}}'


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_trace_texts())
@example("\n".join([_HEADER, _ROUND.format(1) + _ROUND.format(2), _ROUND.format(3)[:20],
                    _ROUND.format(3)[20:], ""]))  # two objects on a line, one on two
@example("\n".join([_HEADER, "\ufeff" + _ROUND.format(1), ""]))
@example("\r".join([_HEADER, _ROUND.format(1), " ", _ROUND.format(2) + " \t", ""]))
@example("\n".join([_HEADER, _ROUND.format(1) + "\xa0", ""]))  # not JSON whitespace
@example("\n".join([_HEADER, _ROUND.format(1) + "\x0b"]))  # nor at the end of the file
@example("\n".join([_HEADER, _ROUND.format(1).replace("0.8,", "9" * 5000 + ",", 1)]))
@example("\n".join([_HEADER, _ROUND.format(1).replace("0.7", "NaN"), _ROUND.format("true")]))
def test_reads_every_file_as_the_per_line_reference(tmp_path, text):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(text.encode("utf-8"))
    assert _read_outcome(read_trace, str(path)) == _read_outcome(_read_trace_reference, str(path))


def test_records_are_decoded_without_json_loads(tmp_path, monkeypatch):
    """``json.loads`` reads the header and no clean record line."""
    path = tmp_path / "trace.jsonl"
    data = gen_noisy(0, 200, 0.1)
    write_trace(run(BoosterConfig(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 100), data),
                data.n, str(path))
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s, *a, **kw: calls.append(s) or loads(s, *a, **kw))
    trace = read_trace(str(path))
    assert len(trace.rounds) == 100
    assert calls == [path.read_text().split("\n")[0] + "\n"]
