"""Drawn datasets through every booster variant, and drawn damage to model files.

Each drawn run must hold its bounds while training, write a trace whose every
``verify`` family passes, and leave a model whose vote on the training
features makes exactly the error its last record states. Each damaged model
file must load and predict, or raise the package's own error.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorboost.boosting import BoosterConfig, load_model, predict, run, save_model
from mirrorboost.data import Dataset
from mirrorboost.errors import MirrorBoostError, NoWeakLearnabilityError
from mirrorboost.trace_io import read_trace, verify_trace, write_trace

# (algorithm, geometry, k, alpha_mode, mada_eta) of the 16 variants
_VARIANTS = [
    *((algorithm, geometry, None, None, None)
      for algorithm in ("maboost-active", "maboost-lazy", "maxmargin")
      for geometry in ("entropy", "quadratic")),
    *(("smooth", geometry, k, None, None) for k in (2.0, 20.0)
      for geometry in ("entropy", "quadratic")),
    ("combined", "entropy", 4.0, None, None),
    ("combined", "quadratic", 4.0, None, None),
    ("sparse", "quadratic", None, "zero", None),
    ("sparse", "quadratic", None, "half", None),
    ("mada", "entropy", None, None, "previous_error"),
    ("mada", "entropy", None, None, "fixed_point"),
]

# how a column is drawn: Gaussian, rounded to integers (ties), or scaled
_COLUMNS = ["gaussian", "integers", 1e300, 1e-300]


@st.composite
def _runs(draw):
    """A config of one of the variants, for 1-60 rounds, and a drawn dataset of
    2-60 samples and 1-4 features, with random labels (and subset B flags, each
    set with a drawn chance)."""
    algorithm, geometry, k, alpha_mode, mada_eta = draw(st.sampled_from(_VARIANTS))
    config = BoosterConfig(algorithm, geometry, draw(st.integers(1, 60)), k=k,
                           alpha_mode=alpha_mode, mada_eta=mada_eta)
    n, d = draw(st.integers(2, 60)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = rng.normal(size=(n, d))
    for j in range(d):
        kind = draw(st.sampled_from(_COLUMNS))
        if kind == "integers":
            features[:, j] = np.round(features[:, j])
        elif kind != "gaussian":
            features[:, j] *= kind
    labels = rng.choice([-1.0, 1.0], size=n)
    # a small subset A lets the primary bound's N/N_A scale matter
    share_b = draw(st.sampled_from([0.1, 0.5, 0.9]))
    flags = rng.random(n) < share_b if algorithm == "combined" else None
    return config, Dataset(features, labels, flags)


def _trained(config, data):
    """The run, or None when no stump has an edge on round 1."""
    try:
        return run(config, data)
    except NoWeakLearnabilityError:
        return None


@settings(max_examples=300, deadline=None)
@given(_runs())
def test_drawn_runs_verify_and_predict_their_recorded_error(drawn):
    config, data = drawn
    result = _trained(config, data)  # a round breaking a bound raises here
    if result is None:
        return
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "trace.jsonl")
        write_trace(result, data.n, path)
        reports = verify_trace(read_trace(path))
    assert all(report.passed for report in reports), [report.line() for report in reports]
    wrong = np.count_nonzero(predict(result.hypotheses, data.features) != data.labels)
    assert wrong / data.n == result.traces[-1].train_error


# what a damaged model file may hold in place of, or beside, a field
_TOKENS = ["NaN", "nan", "inf", "-inf", "1e308", "-1e308", "1e999", "9" * 400, "-" + "9" * 400,
           "0", "-1", "2", "0.5", "1_0", "0x10", "", "#", "=", "algorithm=x"]


def _damaged(draw, text: str) -> str:
    """``text`` with one drawn piece of damage."""
    at = draw(st.integers(0, len(text)))
    kind = draw(st.sampled_from(["delete", "insert", "replace", "swap", "stray"]))
    if kind == "delete":
        return text[:at] + text[at + draw(st.integers(1, 40)):]
    if kind == "insert":
        return text[:at] + draw(st.sampled_from(_TOKENS)) + text[at:]
    if kind == "stray":
        return text[:at] + draw(st.characters(codec="utf-8")) + text[at:]
    lines = text.split("\n")
    i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
    if kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:  # replace one whitespace-separated field of line i
        fields = lines[i].split(" ")
        fields[j % len(fields)] = draw(st.sampled_from(_TOKENS))
        lines[i] = " ".join(fields)
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(_runs(), st.data())
def test_damaged_models_predict_or_raise_a_package_error(drawn, data):
    config, dataset = drawn
    result = _trained(config, dataset)
    if result is None:
        return
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "model.txt")
        save_model(result, path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for _ in range(data.draw(st.integers(1, 4))):
            text = _damaged(data.draw, text)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            _, _, hypotheses = load_model(path)
            predict(hypotheses, dataset.features)
        except MirrorBoostError:
            pass
