"""The benchmark tracer's contract with the package's module layout.

``perfbench/tracing.py`` times each layer by swapping the names listed in
its ``TARGETS`` on their owners. A refactor that stops calling a layer
through a module global silently drops that layer from the benchmark, so
this test installs the tracer against the current package and checks every
swap, a traced run and the restore. It only reads ``perfbench/``.
"""

import importlib.util
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
