"""The benchmark tracer's contract with the package's module layout.

``perfbench/tracing.py`` times each layer by swapping the names listed in
its ``TARGETS`` on their owners. A refactor that stops calling a layer
through a module global silently drops that layer from the benchmark, so
this test installs the tracer against the current package and checks every
swap, a traced run and the restore. It only reads ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from mirrorboost.boosting import Algorithm, AlphaMode, BoosterConfig
from mirrorboost.data import gen_blobs
from mirrorboost.geometry import NEGATIVE_ENTROPY, QUADRATIC

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_swaps_every_target_and_restores_it():
    tracing = _load_tracing()
    originals = []
    for owner, attr, _name, _counter in tracing.TARGETS:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is not a module global"
        originals.append((owner, attr, owner.__dict__[attr]))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert owner.__dict__[attr].__wrapped__ is original
        data = gen_blobs(0, 40, 0.3)
        tracing.boosting.run(BoosterConfig(Algorithm.SMOOTH, NEGATIVE_ENTROPY, 3, 0.25, 4.0), data)
        tracing.boosting.run(
            BoosterConfig(Algorithm.SPARSE, QUADRATIC, 3, alpha_mode=AlphaMode.HALF), data
        )
        tracing.boosting.run(BoosterConfig(Algorithm.MABOOST_ACTIVE, QUADRATIC, 3), data)
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
    calls = tracer.totals()[2]
    for layer in ("boosting.run", "stumps.train_stump", "stumps.loss_vector",
                  "projection.simplex", "projection.mixed", "projection.orthant_l1"):
        assert calls[layer] > 0, layer
    # the threshold counter reads the feature matrix from train_stump's first
    # positional argument: every call on these features scans all their splits
    tracer.end_pass()
    per_call = sum(len(np.unique(column)) + 1 for column in data.features.T)
    scanned = tracer.counts["stumps.thresholds_scanned"]
    assert scanned == per_call * calls["stumps.train_stump"] > 0


def test_tracer_times_every_layer_of_a_run_on_an_already_trained_dataset():
    """A dataset keeps its stump index after its first run; a traced run that
    reuses it still leaves a span at every layer."""
    tracing = _load_tracing()
    data = gen_blobs(0, 40, 0.3)
    config = BoosterConfig(Algorithm.SMOOTH, NEGATIVE_ENTROPY, 3, 0.25, 4.0)
    untraced = tracing.boosting.run(config, data)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = tracing.boosting.run(config, data)
    finally:
        tracer.uninstall()
    assert traced.hypotheses == untraced.hypotheses
    calls = tracer.totals()[2]
    for layer in ("boosting.run", "stumps.train_stump", "stumps.loss_vector", "projection.mixed"):
        assert calls[layer] > 0, layer
    tracer.end_pass()
    per_call = sum(len(np.unique(column)) + 1 for column in data.features.T)
    scanned = tracer.counts["stumps.thresholds_scanned"]
    assert scanned == per_call * calls["stumps.train_stump"] > 0


def test_tracer_times_every_layer_of_a_cli_train_and_verify(tmp_path, capsys):
    """The layers ``paper-sweep`` measures each leave a span when the CLI runs."""
    tracing = _load_tracing()
    trace, model = str(tmp_path / "trace.jsonl"), str(tmp_path / "model.txt")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.cli.main([
            "train", "--algo", "maboost-active", "--gen", "noisy:0:40:0.1", "--rounds", "3",
            "--trace", trace, "--model", model,
        ]) == 0
        assert tracing.cli.main(["verify", trace]) == 0
    finally:
        tracer.uninstall()
    calls = tracer.totals()[2]
    for layer in ("cli.main", "data.gen", "boosting.run", "trace_io.write",
                  "boosting.save_model", "trace_io.read", "verify.verify_trace"):
        assert calls[layer] > 0, layer
    assert calls["cli.main"] == 2
    assert tracer.counts["data.rows"] == 40


def test_tracer_times_a_held_out_predict(tmp_path):
    """``predict_s`` times ``load_model`` then ``predict``: a traced pair leaves
    a span of each, and the vote compares columns itself, calling no
    ``Stump.predict``."""
    tracing = _load_tracing()
    data = gen_blobs(0, 40, 0.3)
    result = tracing.boosting.run(BoosterConfig(Algorithm.MABOOST_ACTIVE, QUADRATIC, 3), data)
    model = str(tmp_path / "model.txt")
    tracing.boosting.save_model(result, model)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, _, hypotheses = tracing.boosting.load_model(model)
        labels = tracing.boosting.predict(hypotheses, data.features)
    finally:
        tracer.uninstall()
    np.testing.assert_array_equal(labels, tracing.boosting.predict(result.hypotheses, data.features))
    calls = tracer.totals()[2]
    assert calls["boosting.load_model"] == calls["boosting.predict"] == 1
    assert calls.get("stumps.predict", 0) == 0


def test_traced_tall_capped_set_up_counts_each_generated_row_once(tmp_path, monkeypatch):
    """``data.ms`` sums the outermost data spans: ``tall-capped``'s set-up
    leaves two per pass, one per generated set, with none nested under
    them, and ``data.rows`` counts the 2 x 1e5 rows they return."""
    tracing = _load_tracing()
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", TRACING.with_name("workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    workload = workloads.TallCapped(0, str(tmp_path), "")
    workload.prepare()
    tracer = tracing.Tracer()
    for _ in range(2):
        tracer.pass_id += 1
        tracer.install()
        try:
            with tracer.span("harness.setup"):
                workload.setup()
        finally:
            tracer.uninstall()
        tracer.end_pass()
    names = {sid: name for sid, _parent, name, _start, _end, _pass in tracer.spans}
    for pass_id in (1, 2):
        spans = [s for s in tracer.spans if s[5] == pass_id]
        data_spans = [s for s in spans if s[2].startswith("data.")]
        assert [s[2] for s in data_spans] == ["data.gen", "data.gen"]
        assert all(names[s[1]] == "harness.setup" for s in data_spans)
    assert tracer.counts["data.rows"] == 2 * 2 * 100_000
