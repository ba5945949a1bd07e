"""End-to-end command-line checks: exit codes, trace verification, projections."""

import errno
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorboost import cli
from mirrorboost.boosting import Algorithm
from mirrorboost.cli import main
from mirrorboost.errors import NoWeakLearnabilityError
from mirrorboost.trace_io import read_trace, verify_trace


def _train(tmp_path, *extra, trace=None, model=None):
    argv = list(extra)
    if trace:
        argv += ["--trace", trace]
    if model:
        argv += ["--model", model]
    return main(["train", *argv])


class TestTrain:
    def test_separable_run_reaches_zero(self, tmp_path, capsys):
        code = main([
            "train", "--algo", "maboost-active", "--geometry", "entropy",
            "--gen", "blobs:0:100:0.5", "--rounds", "50",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "train_error=0.0" in out
        assert out.startswith("rounds=1 ")

    def test_target_out_of_range_exits_before_reading_data(self, tmp_path, capsys):
        assert main([
            "train", "--algo", "maboost-active", "--target-eps", "1.5",
            "--data", str(tmp_path / "missing.csv"), "--rounds", "5",
        ]) == 1
        assert capsys.readouterr().err == "error: target_error must be in [0, 1]\n"

    def test_infeasible_k_exits_one(self):
        assert main([
            "train", "--algo", "smooth", "--k", "0.5",
            "--gen", "blobs:0:100:0.5", "--rounds", "10",
        ]) == 1

    @pytest.mark.parametrize("target", [(), ("--target-eps", "0.5")], ids=["default", "0.5"])
    @pytest.mark.parametrize("k", ["nan", "inf"])
    def test_non_finite_k_exits_one(self, tmp_path, capsys, k, target):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "train", "--algo", "smooth", "--k", k, *target,
            "--gen", "blobs:0:100:0.5", "--rounds", "10", "--trace", str(trace),
        ]) == 1
        assert "smoothness parameter k" in capsys.readouterr().err
        assert not trace.exists()

    def test_forced_geometry_conflict_exits_one(self):
        assert main([
            "train", "--algo", "mada", "--geometry", "quadratic",
            "--gen", "blobs:0:100:0.5", "--rounds", "10",
        ]) == 1

    def test_no_weak_learnability_exits_two(self, tmp_path):
        p = tmp_path / "flat.csv"
        p.write_text("label,f1\n1,1.0\n-1,1.0\n")
        assert main([
            "train", "--algo", "maboost-active", "--data", str(p), "--rounds", "10",
        ]) == 2

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param(["-1,1.0", "1,1.0000000000000002"], id="adjacent-doubles"),
            pytest.param(["-1,1.4e308", "1,1.7e308", "1,1.6e308", "-1,1.5e308"], id="huge"),
        ],
    )
    def test_one_stump_separable_csv_trains_to_zero(self, tmp_path, capsys, rows):
        p = tmp_path / "pair.csv"
        p.write_text("label,f0\n" + "\n".join(rows) + "\n")
        assert main([
            "train", "--algo", "maboost-active", "--data", str(p), "--rounds", "5",
        ]) == 0
        assert "train_error=0.0" in capsys.readouterr().out

    def test_mada_fixed_point_separable_run_verifies(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        assert main([
            "train", "--algo", "mada", "--mada-eta", "fixed_point",
            "--gen", "blobs:0:6:0.3", "--rounds", "5", "--trace", trace,
        ]) == 0
        assert capsys.readouterr().out.startswith("rounds=1 train_error=0.0 ")
        assert main(["verify", trace]) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra, option",
        [
            (("--algo", "maboost-active", "--k", "0.5"), "k"),
            (("--algo", "mada", "--alpha-mode", "half"), "alpha_mode"),
            (("--algo", "maboost-active", "--mada-eta", "fixed_point"), "mada_eta"),
            (("--algo", "sparse", "--alpha-mode", "zero", "--mada-eta", "previous_error"),
             "mada_eta"),
        ],
    )
    def test_option_the_algorithm_ignores_exits_one(self, tmp_path, capsys, extra, option):
        trace = tmp_path / "t.jsonl"
        assert main([
            "train", *extra, "--gen", "noisy:0:50:0.1", "--rounds", "3", "--trace", str(trace),
        ]) == 1
        assert f"{option} is for" in capsys.readouterr().err
        assert not trace.exists()

    def test_bad_gen_spec_exits_one(self, capsys):
        for spec in ("spiral:1:2", "blobs:0:10.5:0.3"):
            assert main([
                "train", "--algo", "maboost-active", "--gen", spec, "--rounds", "5",
            ]) == 1
            assert f"bad --gen spec {spec!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("margin", ["0", "nan", "inf"])
    def test_generator_refusal_keeps_its_own_message(self, capsys, margin):
        assert main([
            "train", "--algo", "maboost-active", "--gen", f"blobs:0:10:{margin}",
            "--rounds", "5",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: margin must be positive") and "bad --gen spec" not in err

    @pytest.mark.parametrize("spec, message", [
        ("combined:0:0:50:0.3", "N_A must be an even number >= 2, got 0"),
        ("combined:0:150:0:0.3", "N_B must be an even number >= 2, got 0"),
        ("combined:0:151:50:0.3", "N_A must be an even number >= 2, got 151"),
        ("combined:0:150:49:0.3", "N_B must be an even number >= 2, got 49"),
    ], ids=["empty-a", "empty-b", "odd-a", "odd-b"])
    def test_combined_refusal_names_the_subset(self, capsys, spec, message):
        assert main([
            "train", "--algo", "combined", "--k", "8", "--gen", spec, "--rounds", "5",
        ]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flags, named", [
        (("--algo", "mada", "--geometry", "quadratic"), "entropy geometry"),
        (("--algo", "smooth", "--k", "0.5"), "smoothness parameter k"),
    ], ids=["geometry", "k"])
    def test_bad_config_is_reported_before_reading_data(self, tmp_path, capsys, flags, named):
        missing = str(tmp_path / "missing.csv")
        assert main(["train", *flags, "--data", missing, "--rounds", "5"]) == 1
        err = capsys.readouterr().err
        assert named in err and "missing.csv" not in err

    def test_gen_too_large_for_memory_exits_one(self, capsys):
        assert main([
            "train", "--algo", "maboost-active", "--gen", "noisy:0:100000000000:0.1",
            "--rounds", "1",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n = 100000000000 samples need" in err

    def test_data_and_gen_mutually_exclusive(self):
        assert main(["train", "--algo", "maboost-active", "--rounds", "5"]) == 1

    @pytest.mark.parametrize(
        "name,content,message",
        [
            ("big.csv", b"label,f0\n1,0.5\n-1," + b"x" * 140_000 + b"\n",
             "error: line 3: field larger than field limit"),
            ("huge.libsvm", b"+1 99999999999:0.5\n-1 1:0.2\n",
             "error: line 1: feature index 99999999999 needs a dense 2 x 99999999999 matrix"),
        ],
    )
    def test_data_the_loaders_reject_exits_one(self, tmp_path, capsys, name, content, message):
        path = tmp_path / name
        path.write_bytes(content)
        assert main([
            "train", "--algo", "maboost-active", "--data", str(path), "--rounds", "2",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1


class TestArguments:
    """argparse's errors exit 1, like every other usage error; 2 means no weak
    learnability."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["train", "--algo", "nope", "--gen", "noisy:0:50:0.1", "--rounds", "3"],
             "argument --algo: invalid choice: 'nope'"),
            (["train", "--algo", "smooth", "--gen", "noisy:0:50:0.1", "--rounds", "x"],
             "argument --rounds: invalid int value: 'x'"),
            (["verify"], "the following arguments are required: trace"),
        ],
    )
    def test_argparse_error_exits_one(self, capsys, argv, message):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["train", "--help"])
        assert e.value.code == 0 and "--algo" in capsys.readouterr().out

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()


class TestUnreadableFiles:
    """Files that cannot be opened, decoded or written exit 1 with a one-line error."""

    @pytest.mark.parametrize(
        "name,content,message",
        [
            ("missing.csv", None, "cannot read"),
            ("adir", "dir", "cannot read"),
            ("d.csv", b"label,f0\n1,0.5\n-1,\xff\n", "is not UTF-8 text"),
            ("d.libsvm", b"+1 1:0.5\n-1 1:\xe9\n", "is not UTF-8 text"),
        ],
    )
    def test_train_data(self, tmp_path, capsys, name, content, message):
        path = tmp_path / name
        if content == "dir":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        assert main([
            "train", "--algo", "maboost-active", "--data", str(path), "--rounds", "2",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and str(path) in err

    @pytest.mark.parametrize(
        "content,message",
        [(None, "cannot read"), (b'{"schema": 1}\n{"t": 1, "gamma": 0.\xb5}\n', "is not UTF-8 text")],
    )
    def test_verify_trace(self, tmp_path, capsys, content, message):
        path = tmp_path / "trace.jsonl"
        if content is not None:
            path.write_bytes(content)
        assert main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and str(path) in err


    @pytest.mark.parametrize("flag", ["--trace", "--model"])
    @pytest.mark.parametrize(
        "where,code", [("missing-dir", errno.ENOENT), ("directory", errno.EISDIR),
                       ("full-device", errno.ENOSPC)],
        ids=["missing-dir", "directory", "full-device"],
    )
    def test_train_output(self, tmp_path, capsys, flag, where, code):
        path = {"missing-dir": tmp_path / "none" / "out.txt", "directory": tmp_path,
                "full-device": Path("/dev/full")}[where]
        if where == "full-device" and not path.exists():
            pytest.skip("no full device on this platform")
        assert main([
            "train", "--algo", "maboost-active", "--gen", "noisy:0:50:0.1", "--rounds", "3",
            flag, str(path),
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {str(path)!r}: {os.strerror(code)}\n"


class TestVerify:
    def _trained_trace(self, tmp_path, algo, extra=()):
        trace = str(tmp_path / "trace.jsonl")
        argv = [
            "train", "--algo", algo, "--gen", "noisy:0:100:0.1",
            "--rounds", "60", "--trace", trace, *extra,
        ]
        assert main(argv) == 0
        return trace

    @pytest.mark.parametrize(
        "algo,extra",
        [
            ("maboost-active", ()),
            ("maboost-lazy", ()),
            ("smooth", ("--k", "10")),
            ("sparse", ("--alpha-mode", "zero")),
            ("sparse", ("--alpha-mode", "half")),
            ("mada", ()),
            ("maxmargin", ()),
            ("combined", ("--geometry", "quadratic", "--k", "8",
                          "--gen", "combined:0:150:50:0.3")),
        ],
    )
    def test_fresh_traces_pass(self, tmp_path, capsys, algo, extra):
        trace = self._trained_trace(tmp_path, algo, extra)
        assert main(["verify", trace]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_run_stopped_by_a_zero_edge_passes(self, tmp_path, capsys):
        # one constant feature: each round's stump votes -1 on every sample, and
        # its edge shrinks until round 4's is within the zero-edge tolerance
        data = tmp_path / "flat.csv"
        data.write_text("label,f0\n1,1\n-1,1\n-1,1\n")
        trace = str(tmp_path / "trace.jsonl")
        assert main(["train", "--algo", "maboost-active", "--geometry", "entropy",
                     "--data", str(data), "--rounds", "10", "--trace", trace]) == 0
        assert capsys.readouterr().out.startswith("rounds=3 ")
        assert main(["verify", trace]) == 0
        assert "PASS training-error (entropy): 3 rounds within bounds" in capsys.readouterr().out

    def test_corrupted_trace_fails_with_round(self, tmp_path, capsys):
        trace = self._trained_trace(tmp_path, "maboost-active")
        lines = open(trace).read().splitlines()
        rec = json.loads(lines[2])
        rec["train_error"] = 0.99
        lines[2] = json.dumps(rec, sort_keys=True)
        open(trace, "w").write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", trace]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and f"round {rec['t']}" in out

    def test_empty_trace_passes_with_warning(self, tmp_path, capsys):
        trace = str(tmp_path / "empty.jsonl")
        open(trace, "w").write(
            '{"algorithm": "maboost-active", "geometry": "entropy", "n": 10, "schema": 1}\n'
        )
        assert main(["verify", trace]) == 0
        out = capsys.readouterr().out
        assert "WARNING" in out and "PASS" in out

    def test_malformed_trace_exits_one(self, tmp_path):
        trace = str(tmp_path / "bad.jsonl")
        open(trace, "w").write("not json\n")
        assert main(["verify", trace]) == 1

    def test_nonconsecutive_rounds_rejected(self, tmp_path):
        trace = str(tmp_path / "gap.jsonl")
        with open(trace, "w") as fh:
            fh.write('{"schema": 1, "algorithm": "maboost-active", "geometry": "entropy", "n": 4}\n')
            fh.write('{"t": 2, "gamma": 0.5, "eta": 0.5, "train_error": 0.1, "bound": 0.9, "max_weight": 0.3, "nnz": 4}\n')
        assert main(["verify", trace]) == 1

    @pytest.mark.parametrize("value", [True, 1.0], ids=["true", "float"])
    def test_schema_must_be_a_json_integer(self, tmp_path, capsys, value):
        trace = self._trained_trace(tmp_path, "maboost-active")
        self._edit(trace, 1, lambda h: json.dumps({**h, "schema": value}))
        assert main(["verify", trace]) == 1
        assert "line 1: missing or unsupported schema header" in capsys.readouterr().err

    @pytest.mark.parametrize("line, value", [(2, True), (3, 2.0)], ids=["true", "float"])
    def test_round_number_must_be_a_json_integer(self, tmp_path, capsys, line, value):
        trace = self._trained_trace(tmp_path, "maboost-active")
        self._edit(trace, line, lambda rec: json.dumps({**rec, "t": value}))
        assert main(["verify", trace]) == 1
        err = capsys.readouterr().err
        assert f"line {line}: round numbers must be consecutive integers" in err

    @staticmethod
    def _edit(trace, line, edit):
        lines = open(trace).read().splitlines()
        lines[line - 1] = edit(json.loads(lines[line - 1]))
        open(trace, "w").write("\n".join(lines) + "\n")

    def _combined_trace(self, tmp_path):
        return self._trained_trace(
            tmp_path, "combined", ("--k", "8", "--gen", "combined:0:150:50:0.3")
        )

    @pytest.mark.parametrize("n_b", [None, "50", 50.5, -1, 201])
    def test_combined_header_needs_valid_n_b(self, tmp_path, capsys, n_b):
        trace = self._combined_trace(tmp_path)

        def edit(header):
            header.pop("n_b")
            if n_b is not None:
                header["n_b"] = n_b
            return json.dumps(header, sort_keys=True)

        self._edit(trace, 1, edit)
        assert main(["verify", trace]) == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alpha_mode", [pytest.param("missing", id="missing"), "bogus", 1, None], ids=repr
    )
    def test_sparse_header_needs_a_valid_alpha_mode(self, tmp_path, capsys, alpha_mode):
        trace = self._trained_trace(tmp_path, "sparse", ("--alpha-mode", "half"))

        def edit(header):
            header.pop("alpha_mode")
            if alpha_mode != "missing":
                header["alpha_mode"] = alpha_mode
            return json.dumps(header, sort_keys=True)

        self._edit(trace, 1, edit)
        capsys.readouterr()
        assert main(["verify", trace]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # a value outside AlphaMode is named by its field; BoosterConfig names a missing one
        named = "alpha_mode must be" if alpha_mode in ("bogus", 1) else "requires an alpha mode"
        assert "line 1" in captured.err and named in captured.err

    def test_combined_without_subset_a_is_vacuous(self, tmp_path, capsys):
        trace = self._combined_trace(tmp_path)
        self._edit(trace, 1, lambda h: json.dumps({**h, "n_b": h["n"]}, sort_keys=True))
        capsys.readouterr()
        assert main(["verify", trace]) == 0
        assert "vacuous" in capsys.readouterr().out

    def test_record_must_be_object(self, tmp_path, capsys):
        trace = self._trained_trace(tmp_path, "maboost-active")
        self._edit(trace, 3, lambda rec: "[1, 2]")
        assert main(["verify", trace]) == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", [None, "0.5", 0.0])
    def test_record_without_usable_gamma_names_key_and_line(self, tmp_path, capsys, gamma):
        trace = self._trained_trace(tmp_path, "mada")

        def edit(rec):
            rec.pop("gamma")
            if gamma is not None:
                rec["gamma"] = gamma
            return json.dumps(rec)

        self._edit(trace, 4, edit)
        assert main(["verify", trace]) == 1
        err = capsys.readouterr().err
        assert "line 4" in err and "'gamma'" in err

    @pytest.mark.parametrize(
        "algo,extra,every,change,key",
        [
            ("maboost-active", (), False, lambda rec: {"train_error": -5.0}, "train_error"),
            ("maboost-active", (), False, lambda rec: {"train_error": -math.inf}, "train_error"),
            ("maboost-active", (), False, lambda rec: {"train_error": math.nan}, "train_error"),
            ("maboost-lazy", (), False, lambda rec: {"train_error": 1.5}, "train_error"),
            ("maboost-active", (), True,
             lambda rec: {"gamma": math.inf, "train_error": 0.0}, "gamma"),
            ("sparse", ("--alpha-mode", "zero"), False, lambda rec: {"gamma": math.nan}, "gamma"),
            ("combined", ("--k", "8", "--gen", "combined:0:150:50:0.3"), True,
             lambda rec: {"eps_a": -1.0}, "eps_a"),
            ("mada", (), True, lambda rec: {"y_l1": math.inf}, "y_l1"),
            ("sparse", ("--alpha-mode", "half"), True, lambda rec: {"y_l1": -rec["y_l1"]}, "y_l1"),
        ],
        ids=["error-negative", "error-minus-inf", "error-nan", "error-above-one", "gamma-inf",
             "gamma-nan", "eps-a-negative", "y-l1-inf", "y-l1-negated"],
    )
    def test_value_outside_its_domain_names_key_and_line(
        self, tmp_path, capsys, algo, extra, every, change, key
    ):
        trace = self._trained_trace(tmp_path, algo, extra)
        n_lines = len(open(trace).read().splitlines())
        for line in range(2, n_lines + 1) if every else [3]:
            self._edit(trace, line, lambda rec: json.dumps({**rec, **change(rec)}))
        capsys.readouterr()
        assert main(["verify", trace]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: line {2 if every else 3}: key {key!r} must be ")

    @pytest.mark.parametrize(
        "algo,extra,key",
        [
            ("smooth", ("--k", "10"), "k"),
            ("sparse", ("--alpha-mode", "zero"), "n"),
            ("mada", (), "n"),
            ("maboost-active", (), "geometry"),
        ],
    )
    def test_header_missing_key_names_key(self, tmp_path, capsys, algo, extra, key):
        trace = self._trained_trace(tmp_path, algo, extra)
        self._edit(trace, 1, lambda h: json.dumps({k: v for k, v in h.items() if k != key}))
        assert main(["verify", trace]) == 1
        err = capsys.readouterr().err
        # BoosterConfig names a missing smooth k in its own words
        named = {"k": "smoothness parameter k must be", "geometry": "geometry must be",
                 "n": "n must be an integer"}[key]
        assert "line 1" in err and named in err

    @pytest.mark.parametrize(
        "algo,extra,key",
        [("smooth", ("--k", "10"), "k"), ("combined", ("--k", "8"), "n_b"),
         ("maboost-active", (), "geometry")],
    )
    def test_header_error_reported_before_a_record_error(
        self, tmp_path, capsys, algo, extra, key
    ):
        gen = ("--gen", "combined:0:150:50:0.3") if algo == "combined" else ()
        trace = self._trained_trace(tmp_path, algo, (*extra, *gen))
        self._edit(trace, 1, lambda h: json.dumps({k: v for k, v in h.items() if k != key}))
        self._edit(trace, 2, lambda rec: json.dumps({**rec, "gamma": "0.5"}))
        assert main(["verify", trace]) == 1
        err = capsys.readouterr().err
        named = {"k": "smoothness parameter k must be", "n_b": "combined checks require n_b",
                 "geometry": "geometry must be"}[key]
        assert err.startswith("error: line 1:") and named in err

    @pytest.mark.parametrize("algorithm", ["boost", None, ["smooth"], {"a": 1}], ids=repr)
    def test_unknown_algorithm_fails(self, tmp_path, capsys, algorithm):
        trace = self._trained_trace(tmp_path, "maboost-active")
        self._edit(trace, 1, lambda h: json.dumps({**h, "algorithm": algorithm}))
        capsys.readouterr()
        assert main(["verify", trace]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 1: bad header: algorithm must be ")
        assert captured.err.endswith(f", got {algorithm!r}\n")

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf], ids=repr)
    def test_header_non_finite_k_rejected(self, tmp_path, capsys, k):
        trace = self._trained_trace(tmp_path, "smooth", ("--k", "10"))
        self._edit(trace, 1, lambda h: json.dumps({**h, "k": k}))
        assert main(["verify", trace]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "parameter k" in err and "finite" in err

    def test_mada_trace_with_a_huge_gamma_fails(self, tmp_path, capsys):
        trace = tmp_path / "huge.jsonl"
        trace.write_text(
            '{"algorithm": "mada", "geometry": "entropy", "n": 200, "schema": 1}\n'
            '{"bound": null, "eta": 0.1, "gamma": 1e200, "max_weight": 0.01, "nnz": 200, '
            '"t": 1, "train_error": 0.1, "y_l1": 150.0}\n'
        )
        assert main(["verify", str(trace)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "PASS mada-mass-floor: 1 rounds within bounds",
            "FAIL mada-convergence-rate: first violation at round 1",
        ]

    @pytest.mark.parametrize(
        "k,record,message",
        [
            ("4", '"gamma": 1' + "0" * 400, "line 2: key 'gamma' is missing or not a number"),
            ("1" + "0" * 400, '"gamma": 0.5',
             "line 1: bad header: smoothness parameter k must be a finite number"),
            ("4", '"gamma": 1' + "0" * 5000, "line 2: bad record: Exceeds the limit"),
            ("1" + "0" * 5000, '"gamma": 0.5', "line 1: bad header: Exceeds the limit"),
        ],
        ids=["gamma", "k", "record-digits", "header-digits"],
    )
    def test_integer_beyond_two_to_the_53_exits_one(
        self, tmp_path, capsys, k, record, message
    ):
        trace = tmp_path / "big.jsonl"
        trace.write_text(
            f'{{"algorithm": "smooth", "geometry": "entropy", "k": {k}, "n": 200, "schema": 1}}\n'
            f'{{"t": 1, "train_error": 0.1, {record}}}\n'
        )
        assert main(["verify", str(trace)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_verify_trace_reports_round_trip(self, tmp_path):
        trace = self._trained_trace(tmp_path, "maboost-active")
        reports = verify_trace(read_trace(trace))
        assert all(r.passed for r in reports)
        assert all(r.line().startswith("PASS") for r in reports)


class TestProject:
    def _project(self, monkeypatch, capsys, geometry, set_spec, vec):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(vec)))
        code = main(["project", "--geometry", geometry, "--set", set_spec])
        out = capsys.readouterr().out.strip()
        return code, json.loads(out) if code == 0 else None

    def test_entropy_simplex(self, monkeypatch, capsys):
        code, out = self._project(monkeypatch, capsys, "entropy", "simplex", [2, 2])
        assert code == 0 and out == [0.5, 0.5]

    def test_entropy_hypercube(self, monkeypatch, capsys):
        code, out = self._project(monkeypatch, capsys, "entropy", "hypercube", [0.5, 3])
        assert code == 0 and out == [0.5, 1.0]

    def test_quadratic_simplex(self, monkeypatch, capsys):
        code, out = self._project(monkeypatch, capsys, "quadratic", "simplex", [0.8, 0.4])
        assert code == 0
        assert out[0] == pytest.approx(0.7, abs=1e-9)
        assert out[1] == pytest.approx(0.3, abs=1e-9)

    def test_capped_and_orthant(self, monkeypatch, capsys):
        code, out = self._project(monkeypatch, capsys, "entropy", "capped:0.5", [4, 1, 1])
        assert code == 0
        assert out == pytest.approx([0.5, 0.25, 0.25], abs=1e-9)
        code, out = self._project(
            monkeypatch, capsys, "quadratic", "orthant-l1:0.05", [0.2, -0.1]
        )
        assert code == 0 and out == pytest.approx([0.15, 0.0], abs=1e-12)

    def test_json_integers_read_as_floats(self, monkeypatch, capsys):
        code, out = self._project(monkeypatch, capsys, "entropy", "simplex", [2**60, 0, 2**60])
        assert code == 0 and out == [0.5, 0.0, 0.5]

    def test_double_entropy(self, monkeypatch, capsys):
        code, out = self._project(monkeypatch, capsys, "entropy", "double", [0.5, 3])
        assert code == 0 and out == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-12)

    @pytest.mark.parametrize(
        "spec, geometry, required",
        [
            ("double", "quadratic", "entropy"),
            ("hypercube", "quadratic", "entropy"),
            ("orthant-l1:0.05", "entropy", "quadratic"),
        ],
    )
    def test_double_quadratic_exits_one(self, monkeypatch, capsys, spec, geometry, required):
        # each of these sets has a projection in one geometry only
        monkeypatch.setattr("sys.stdin", io.StringIO("[-0.5, 2]"))
        assert main(["project", "--geometry", geometry, "--set", spec]) == 1
        assert f"requires --geometry {required}" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["capped:abc", "orthant-l1:abc", "orthant-l1:nan"])
    def test_bad_set_parameter_exits_one(self, monkeypatch, capsys, spec):
        code, _ = self._project(monkeypatch, capsys, "quadratic", spec, [0.5, 3])
        assert code == 1

    def test_entropy_simplex_of_huge_entries(self, monkeypatch, capsys):
        # the sum overflows; the normalization does not depend on scale
        code, out = self._project(monkeypatch, capsys, "entropy", "simplex", [1e308, 1e308])
        assert code == 0 and out == [0.5, 0.5]

    def test_entropy_capped_of_huge_entries(self, monkeypatch, capsys):
        # the sum overflows; the capped normalization does not depend on scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = self._project(
                monkeypatch, capsys, "entropy", "capped:0.5", [1e308, 1e308, 1e308]
            )
        assert code == 0 and out == [1.0 / 3.0] * 3

    def test_quadratic_simplex_off_the_simplex_exits_one(self, monkeypatch, capsys):
        # theta rounds at 1e15: the clipped result would sum to 1.125
        monkeypatch.setattr("sys.stdin", io.StringIO("[-1e15, -1e15, -1e15]"))
        assert main(["project", "--geometry", "quadratic", "--set", "simplex"]) == 1
        assert "did not reach the simplex" in capsys.readouterr().err

    def test_domain_error_exits_one(self, monkeypatch, capsys):
        code, _ = self._project(monkeypatch, capsys, "entropy", "hypercube", [-1, 2])
        assert code == 1

    def test_unknown_set_exits_one(self, monkeypatch, capsys):
        code, _ = self._project(monkeypatch, capsys, "entropy", "ball", [1, 2])
        assert code == 1

    @pytest.mark.parametrize(
        "spec, stdin, code, stdout",
        [
            ("capped:0.5", "[1e308, -1e308]", 0, "[0.5, 0.5]\n"),
            ("orthant-l1:1e308", "[-1e308, 1e308, 0.5]", 0, "[0.0, 0.0, 0.0]\n"),
            ("capped:1", "[1e308, -1e308]", 1, ""),
        ],
        ids=["capped", "orthant-l1", "capped-at-one"],
    )
    def test_overflow_prints_no_warning(self, tmp_path, spec, stdin, code, stdout):
        proc = _cli_process(["project", "--geometry", "quadratic", "--set", spec], tmp_path, stdin)
        assert (proc.returncode, proc.stdout) == (code, stdout)
        if code:
            assert proc.stderr == "error: projection did not reach the simplex\n"
        else:
            assert proc.stderr == ""

    @pytest.mark.parametrize(
        "geometry, spec, stdin",
        [
            pytest.param("entropy", "simplex", "not json", id="not-json"),
            pytest.param("entropy", "simplex", "[NaN, 1]", id="nan-entropy"),
            pytest.param("quadratic", "simplex", "[NaN, 1]", id="nan-quadratic"),
            pytest.param("entropy", "capped:0.6", "[Infinity, 1]", id="inf-capped"),
            pytest.param("quadratic", "simplex", "[]", id="empty"),
            pytest.param("entropy", "simplex", "5", id="scalar"),
            pytest.param("entropy", "simplex", "[[1, 2]]", id="nested"),
            pytest.param("quadratic", "simplex", '[1, "2"]', id="string"),
            pytest.param("quadratic", "simplex", '["0.5", "0.5"]', id="strings"),
            pytest.param("quadratic", "simplex", "[true, false, 1]", id="bools"),
            pytest.param("quadratic", "simplex", "[null, 1]", id="null"),
            pytest.param("quadratic", "simplex", '[{"a": 1}, 1]', id="object"),
            pytest.param("quadratic", "simplex", "[1" + "0" * 400 + ", 1]", id="int-past-float"),
            pytest.param("quadratic", "simplex", "[1e400, 1]", id="float-past-float"),
        ],
    )
    def test_bad_stdin_exits_one(self, monkeypatch, capsys, geometry, spec, stdin):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert main(["project", "--geometry", geometry, "--set", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: stdin must hold")


class TestBench:
    def test_criterion_filter_runs_single_check(self, capsys):
        code = main(["bench", "--criterion", "adaboost-degeneration"])
        out = capsys.readouterr().out
        assert code == 0
        assert "adaboost-degeneration" in out
        assert "bench: ALL PASS" in out
        assert len(out.strip().splitlines()) == 2  # one criterion row + summary

    def test_unknown_criterion_exits_one(self):
        assert main(["bench", "--criterion", "no-such-check"]) == 1

    def test_deterministic_tables(self, capsys):
        main(["bench", "--criterion", "adaboost-degeneration"])
        first = capsys.readouterr().out
        main(["bench", "--criterion", "adaboost-degeneration"])
        assert capsys.readouterr().out == first


class TestDeterminism:
    def test_train_outputs_byte_identical(self, tmp_path, capsys):
        blobs = []
        for tag in ("a", "b"):
            trace = str(tmp_path / f"t{tag}.jsonl")
            model = str(tmp_path / f"m{tag}.txt")
            assert main([
                "train", "--algo", "maboost-active", "--geometry", "entropy",
                "--gen", "noisy:0:100:0.1", "--rounds", "40",
                "--trace", trace, "--model", model,
            ]) == 0
            blobs.append(open(trace, "rb").read() + open(model, "rb").read())
        assert blobs[0] == blobs[1]


SRC = Path(__file__).resolve().parents[1] / "src"


def _cli_process(argv: list[str], cwd, stdin: str = "") -> subprocess.CompletedProcess:
    """``mirrorboost <argv>`` in a fresh interpreter, so stderr holds every warning."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "mirrorboost.cli", *argv], cwd=cwd, env=env, input=stdin,
        capture_output=True, text=True, timeout=120,
    )


def test_training_on_huge_features_prints_no_warning(tmp_path):
    # stump thresholds between +-1.7e308 features overflow to +-inf when compared
    (tmp_path / "huge.csv").write_text(
        "label,f0\n-1,-1.7e308\n-1,-1.6e308\n1,1.7e308\n1,1.6e308\n-1,1.65e308\n"
    )
    train = _cli_process(["train", "--algo", "maboost-active", "--rounds", "5",
                          "--data", "huge.csv", "--trace", "t.jsonl"], tmp_path)
    assert (train.returncode, train.stderr) == (0, "")
    verify = _cli_process(["verify", "t.jsonl"], tmp_path)
    assert (verify.returncode, verify.stderr) == (0, ""), verify.stdout


def _scipy_modules_after(code: str, tmp_path) -> list[str]:
    """The scipy modules a fresh interpreter holds after running ``code``."""
    script = code + (
        "\nimport json"
        "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_do_not_import_scipy(tmp_path):
    # scipy's import costs several times what training at paper scale does;
    # only the bench's numeric oracles need it
    commands = """
import io, sys
import mirrorboost
import mirrorboost.cli
from mirrorboost import cli
from mirrorboost.cli import main
assert main(["train", "--algo", "smooth", "--k", "20", "--gen", "noisy:0:200:0.1",
             "--rounds", "20", "--trace", "t.jsonl", "--model", "m.txt"]) == 0
assert main(["verify", "t.jsonl"]) == 0
sys.stdin = io.StringIO("[0.7, 0.2, 0.1]")
assert main(["project", "--geometry", "entropy", "--set", "capped:0.5"]) == 0
"""
    assert _scipy_modules_after(commands, tmp_path) == []
    # the control: the bench does load scipy, so the probe can see it
    assert "scipy.optimize" in _scipy_modules_after("import sys, mirrorboost.bench", tmp_path)


# --- drawn command lines and files ---------------------------------------------


def _mostly(draw, usual, odd):
    """One of the usual values, or one time in six one of the odd ones, if any."""
    return draw(st.sampled_from(odd if odd and draw(st.integers(0, 5)) == 0 else usual))


_ODD_CELLS = ["", " ", "x", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "1_0", '"1"',
              "١", "1,5", "A", "2"]
_GOOD_NUMBERS = [0.05, 0.1, 0.5, 1.0, 0.0, 150.0]
_ODD_NUMBERS = [-1.0, 1e-13, 1e200, 1e308, -1e308, math.nan, math.inf, -math.inf, 5e-324,
                "0.5", None, True, 10**400]


@st.composite
def _csv_bytes(draw):
    columns = ["label", "f0", *draw(st.sampled_from([[], ["f1"], ["subset"], ["f1", "subset"]]))]
    if draw(st.integers(0, 5)) == 0:
        columns = draw(st.lists(st.sampled_from(["label", "f0", "subset", ""]), max_size=3))
    usual = {"label": ["1", "-1", "0", "+1"], "subset": ["A", "B", "0", "1"]}
    odd = draw(st.sampled_from([[], _ODD_CELLS]))  # a clean file or a dirty one
    rows = [
        [_mostly(draw, usual.get(c, ["0", "1", "-1", "0.5", "3", "-0", "2.25"]), odd)
         for c in columns] + ([] if not odd or draw(st.integers(0, 7)) else ["x"])
        for _ in range(draw(st.integers(0, 6)))
    ]
    end = _mostly(draw, ["\n"], ["\r\n", "\r"])
    return end.join([",".join(columns), *(",".join(r) for r in rows), ""]).encode()


@st.composite
def _libsvm_bytes(draw):
    lines = []
    dirty = draw(st.booleans())
    for _ in range(draw(st.integers(0, 6))):
        label = _mostly(draw, ["+1", "-1", "1", "0"], dirty and ["2", "x", ""])
        entries = [
            f"{_mostly(draw, ['1', '2', '3'], dirty and ['0', '-1', 'x', '99999999999'])}:"
            f"{_mostly(draw, ['0.5', '-1', '2', '0'], dirty and _ODD_CELLS)}"
            for _ in range(draw(st.integers(0, 3)))
        ]
        lines.append(" ".join([label, *entries]) + "\n")
    return "".join(lines).encode()


@st.composite
def _trace_bytes(draw):
    algorithm = _mostly(draw, [a.value for a in Algorithm], ["nope", 7, None])
    header = {"schema": _mostly(draw, [1], [2, "1", None]), "algorithm": algorithm}
    for key, usual, odd in (
        ("geometry", ["entropy", "quadratic"], ["nope", None]),
        ("n", [1, 2, 200], [0, -1, 10**30, 1.5, "200", True]),
        ("k", [1.0, 4, 20.0], [0.5, math.nan, math.inf, "4"]),
        ("n_b", [0, 1, 100], [300, -1, "1"]),
        ("alpha_mode", ["zero", "half"], ["nope"]),
    ):
        if draw(st.booleans()):
            header[key] = _mostly(draw, usual, odd)
    lines = [json.dumps(header)]
    for t in range(1, draw(st.integers(0, 4)) + 1):
        record = {"t": _mostly(draw, [t], [t + 1, "1", None])}
        for key in ("gamma", "eta", "train_error", "bound", "max_weight", "y_l1", "eps_a"):
            if draw(st.integers(0, 7)):
                record[key] = _mostly(draw, _GOOD_NUMBERS, _ODD_NUMBERS)
        lines.append(json.dumps(record))
    if draw(st.integers(0, 5)) == 0:
        lines.append(draw(st.sampled_from(["", "{", "[1]", "null", "x", "NaN"])))
    return "\n".join(lines).encode() + _mostly(draw, [b"\n"], [b"", b"\n\n"])


# the options each algorithm takes; _ODD_OPTIONS adds one that may be wrong for it
_ALGO_OPTIONS = {
    "smooth": [("--k", ["4", "20", "1"]), ("--geometry", ["entropy", "quadratic"])],
    "combined": [("--k", ["4", "8"]), ("--subset-column", ["subset"])],
    "sparse": [("--alpha-mode", ["zero", "half"])],
    "mada": [("--mada-eta", ["previous_error", "fixed_point"])],
}
_ODD_OPTIONS = [
    ("--geometry", ["entropy", "quadratic", "nope"]),
    ("--k", ["0.5", "nan", "inf", "1e308", "-1"]),
    ("--target-eps", ["0", "0.1", "1", "2", "nan", "-0.5"]),
    ("--alpha-mode", ["zero", "half"]),
    ("--mada-eta", ["previous_error", "fixed_point"]),
    ("--label-column", ["label", "f0", "nope"]),
    ("--subset-column", ["subset", "label", "f0", "nope"]),
    ("--rounds", ["0", "-3", "x"]),
    ("--algo", ["nope"]),
]


@st.composite
def _cli_calls(draw):
    """argv and the bytes of the file it reads: train on a drawn CSV or LIBSVM
    file or a small generated set, or verify a drawn trace."""
    kind = draw(st.sampled_from(["csv", "libsvm", "gen", "trace"]))
    if kind == "trace":
        content = draw(st.one_of(_trace_bytes(), st.binary(max_size=40)))
        return ["verify", "{file}"], "trace.jsonl", content
    algo = draw(st.sampled_from([a.value for a in Algorithm]))
    argv = ["train", "--algo", algo, "--rounds", draw(st.sampled_from(["1", "2", "5"])),
            "--trace", "{dir}/t.jsonl", "--model", "{dir}/m.txt"]
    options = _ALGO_OPTIONS.get(algo, [("--geometry", ["entropy", "quadratic"])])
    if draw(st.integers(0, 3)) == 0:
        options = options + [draw(st.sampled_from(_ODD_OPTIONS))]
    for option, values in options:
        if draw(st.integers(0, 7)):
            argv += [option, draw(st.sampled_from(values))]
    if kind == "gen":
        spec = _mostly(draw, ["blobs:0:6:0.3", "noisy:1:6:0.4", "combined:0:4:4:0.3"], [
            "noisy:0:1:0.0", "noisy:0:0:0.1", "noisy:0:-2:0.1", "blobs:0:3:nan",
            "combined:0:0:0:0", "noisy:x:3:0.1", "nope",
        ])
        return argv + ["--gen", spec], None, None
    if kind == "csv":
        content = draw(st.one_of(_csv_bytes(), _csv_bytes(), st.binary(max_size=40)))
        return argv + ["--data", "{file}"], "data.csv", content
    return argv + ["--data", "{file}"], "data.libsvm", draw(_libsvm_bytes())


@settings(max_examples=250, deadline=None)
@given(_cli_calls())
@example((["train", "--algo", "maboost-active", "--rounds", "2", "--data", "{file}"],
          "data.csv", b"label,f0\n1,0.5\n-1,0.5\n"))  # no stump has an edge: exit 2
@example((["verify", "{file}"], "trace.jsonl",
          b'{"algorithm": "mada", "geometry": "entropy", "n": 200, "schema": 1}\n'
          b'{"gamma": 1e200, "t": 1, "train_error": 0.1, "y_l1": NaN}\n'))
@example((["train", "--algo", "sparse", "--alpha-mode", "zero", "--rounds", "2",
           "--data", "{file}"], "data.libsvm", b"+1 99999999999:0.5\n-1 1:1\n"))
@example((["train", "--algo", "smooth", "--k", "4", "--rounds", "2", "--data", "{file}"],
          "data.csv", b"label,f0\n1," + b"7" * 140_000 + b"\n"))  # over the CSV field limit
def test_drawn_calls_return_a_documented_exit_code(tmp_path_factory, call):
    """Every call returns 0, 1 or 2, returns 2 only for NoWeakLearnabilityError,
    and raises nothing."""
    template, name, content = call
    folder = tmp_path_factory.mktemp("drawn")
    path = folder / (name or "unused")
    if content is not None:
        path.write_bytes(content)
    argv = [a.format(file=path, dir=folder) for a in template]
    run, raised = cli.run, []

    def recording_run(*args):
        try:
            return run(*args)
        except Exception as exc:
            raised.append(exc)
            raise

    out, err = io.StringIO(), io.StringIO()
    try:
        cli.run = recording_run
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(argv)
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{argv} raised {type(exc).__name__}: {exc}")
    finally:
        cli.run = run
    assert code in (0, 1, 2), (argv, code)
    no_edge = [type(e) for e in raised] == [NoWeakLearnabilityError]
    assert (code == 2) == no_edge, (argv, code, err.getvalue())
    if code:
        assert err.getvalue().startswith("error: ") or argv[0] == "verify", err.getvalue()
