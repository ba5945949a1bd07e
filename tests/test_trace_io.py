"""The trace header codec: ``read_header`` reads back the config ``train`` wrote.

Every ``--algo`` configuration the benchmark's ``paper-sweep`` runs is trained
through the CLI, and its header must read back into the trainer's config and
checks. A header ``train`` can never write, because ``BoosterConfig`` or
``RoundChecks`` refuses it, is a parse error at line 1 for ``verify``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mirrorboost import bounds
from mirrorboost.boosting import Algorithm, AlphaMode
from mirrorboost.cli import main
from mirrorboost.errors import ParseError
from mirrorboost.geometry import NEGATIVE_ENTROPY, QUADRATIC
from mirrorboost.trace_io import read_header, read_trace

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
