"""The trace and model writers hold to the per-line writers they replaced.

Both now build a file's text first and write it once; the bytes must be
those of one ``json.dumps(..., sort_keys=True)`` (trace) or f-string (model)
write per line, whatever the values: None, NaN, inf and np.float64 included.
The trace reference also keeps the header and record keys written out one by
one, as they were before ``write_trace`` took them from ``RoundTrace``'s fields.
"""

import json
import os

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mirrorboost.boosting import Algorithm, BoostResult, RoundTrace, save_model
from mirrorboost.geometry import NEGATIVE_ENTROPY, QUADRATIC
from mirrorboost.stumps import Stump
from mirrorboost.trace_io import SCHEMA_VERSION, write_trace

_value = st.one_of(
    st.floats(),
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324]),
    st.floats().map(np.float64),
)
_optional = st.one_of(st.none(), _value)


def _record_reference(tr):
    """A round's record with its keys written out: the seven fixed columns, then
    each optional one only when set."""
    rec = {
        "t": tr.t,
        "gamma": tr.gamma,
        "eta": tr.eta,
        "train_error": tr.train_error,
        "bound": tr.bound,
        "max_weight": tr.max_weight,
        "nnz": tr.nnz,
    }
    for key in ("margin", "eps_a", "eps_b", "y_l1"):
        value = getattr(tr, key)
        if value is not None:
            rec[key] = value
    return rec


def _write_trace_reference(result, n, path, k=None, alpha_mode=None, n_b=None):
    """The writer before it built the file's text: one json.dumps and write per line."""
    header = {
        "schema": SCHEMA_VERSION,
        "algorithm": result.algorithm.value,
        "geometry": result.geometry.value,
        "n": n,
    }
    if k is not None:
        header["k"] = k
    if alpha_mode is not None:
        header["alpha_mode"] = alpha_mode
    if n_b is not None:
        header["n_b"] = n_b
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for tr in result.traces:
            fh.write(json.dumps(_record_reference(tr), sort_keys=True) + "\n")


def _save_model_reference(result, path):
    """The model writer before it built the file's text: one write per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# algorithm={result.algorithm.value} geometry={result.geometry.value}\n"
        )
        for h, eta in result.hypotheses:
            fh.write(f"{h.feature} {h.threshold!r} {h.polarity} {eta!r}\n")


@st.composite
def _results(draw):
    traces = [
        RoundTrace(
            t, draw(_value), draw(_value), draw(_value), draw(_optional), draw(_value),
            draw(st.integers(0, 10**6)), *(draw(_optional) for _ in range(4)),
        )
        for t in range(1, draw(st.integers(0, 6)) + 1)
    ]
    hypotheses = draw(st.lists(
        st.tuples(
            st.builds(Stump, st.integers(0, 99), _value, st.sampled_from([-1, 1])), _value
        ),
        max_size=6,
    ))
    algorithm = draw(st.sampled_from(list(Algorithm)))
    geometry = draw(st.sampled_from([NEGATIVE_ENTROPY, QUADRATIC]))
    return BoostResult(algorithm, geometry, hypotheses=hypotheses, traces=traces)


_settings = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_settings
@given(
    _results(),
    st.integers(1, 10**6),
    _optional,
    st.sampled_from([None, "zero", "half"]),
    st.one_of(st.none(), st.integers(0, 10**6)),
)
def test_write_trace_writes_the_per_line_bytes(tmp_path, result, n, k, alpha_mode, n_b):
    got, expected = tmp_path / "got.jsonl", tmp_path / "expected.jsonl"
    write_trace(result, n, str(got), k=k, alpha_mode=alpha_mode, n_b=n_b)
    _write_trace_reference(result, n, str(expected), k=k, alpha_mode=alpha_mode, n_b=n_b)
    assert got.read_bytes() == expected.read_bytes()


@_settings
@given(_results())
def test_save_model_writes_the_per_line_bytes(tmp_path, result):
    got, expected = tmp_path / "got.txt", tmp_path / "expected.txt"
    save_model(result, str(got))
    _save_model_reference(result, str(expected))
    assert got.read_bytes() == expected.read_bytes()


def _short_and_long_results():
    stump = Stump(0, 0.5, 1)
    long = BoostResult(
        Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, hypotheses=[(stump, 0.25)] * 40,
        traces=[RoundTrace(t, 0.5, 0.25, 0.1, 0.9, 0.01, 200) for t in range(1, 41)],
    )
    short = BoostResult(
        Algorithm.SMOOTH, QUADRATIC, hypotheses=[(stump, 0.5)],
        traces=[RoundTrace(1, 0.5, 0.5, 0.2, None, 0.05, 100)],
    )
    return long, short


def test_rewriting_a_longer_file_leaves_no_old_tail(tmp_path):
    long, short = _short_and_long_results()
    trace, model = tmp_path / "trace.jsonl", tmp_path / "model.txt"
    expected_trace, expected_model = tmp_path / "expected.jsonl", tmp_path / "expected.txt"
    write_trace(long, 200, str(trace))
    save_model(long, str(model))
    write_trace(short, 100, str(trace), k=20.0)
    save_model(short, str(model))
    _write_trace_reference(short, 100, str(expected_trace), k=20.0)
    _save_model_reference(short, str(expected_model))
    assert trace.read_bytes() == expected_trace.read_bytes()
    assert model.read_bytes() == expected_model.read_bytes()


def test_writers_write_to_a_device():
    long, _ = _short_and_long_results()
    write_trace(long, 200, os.devnull)
    save_model(long, os.devnull)
