"""The benchmark's three workloads.

A workload turns one reference case into generated inputs and exposes the
operations a user of mirrorboost performs: a timed set-up, then for each
item a train, a predict on held-out rows and a verify of the written trace.
Every call into the library goes through a module attribute
(``boosting.run``, ``cli.main``, ...) so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import mirrorboost.boosting as boosting
import mirrorboost.cli as cli
import mirrorboost.data as data
import mirrorboost.trace_io as trace_io
from mirrorboost.boosting import Algorithm, BoosterConfig
from mirrorboost.geometry import NEGATIVE_ENTROPY, QUADRATIC

# --seed picks reference case seed % CASES; reference.json holds the
# expected output digests of every case
CASES = 32


class OpFailed(Exception):
    """A mirrorboost command ended with a non-zero exit code."""


def run_cli(argv: list[str]) -> str:
    """Run ``mirrorboost <argv>`` in-process; return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"mirrorboost {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def dataset_digest(*datasets) -> str:
    h = hashlib.sha256()
    for ds in datasets:
        h.update(ds.features.tobytes())
        h.update(ds.labels.tobytes())
    return h.hexdigest()


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_cli_in_child(src: str) -> float:
    """Seconds a fresh interpreter spends in ``import mirrorboost.cli``."""
    code = (
        "import time; t = time.perf_counter(); import mirrorboost.cli; "
        "print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(src),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


@dataclass
class Item:
    key: str
    trace: str
    model: str
    heldout: np.ndarray  # feature rows the saved model labels


class Workload:
    name = ""

    def __init__(self, case: int, workdir: str, src: str):
        self.case = case
        self.workdir = workdir
        self.src = src
        self.items: list[Item] = []

    def path(self, stem: str) -> str:
        return os.path.join(self.workdir, f"{self.name}-{stem}")

    def prepare(self) -> None:
        """Untimed: make the inputs the program only reads."""

    def setup(self) -> str | None:
        """Timed set-up; returns a digest of what it produced, if anything."""
        raise NotImplementedError

    def train(self, item: Item) -> int:
        """Train and write the item's trace and model; return rounds run."""
        raise NotImplementedError

    def predict(self, item: Item) -> np.ndarray:
        _, _, hypotheses = boosting.load_model(item.model)
        return boosting.predict(hypotheses, item.heldout)

    def verify(self, item: Item) -> None:
        run_cli(["verify", item.trace])

    @staticmethod
    def output_digest(item: Item, labels: np.ndarray) -> str:
        h = hashlib.sha256()
        for path in (item.trace, item.model):
            with open(path, "rb") as fh:
                h.update(fh.read())
        h.update(np.asarray(labels, dtype=np.int8).tobytes())
        return h.hexdigest()


class WideActive(Workload):
    """maboost-active, entropy geometry, dense Gaussian features from a CSV."""

    name = "wide-active"
    N, D, FLIP, ROUNDS = 10_000, 50, 0.1, 10

    def _gaussian(self, stream: int, v: np.ndarray | None = None):
        rng = np.random.default_rng([0x3B1DE, self.case, stream])
        x = rng.standard_normal((self.N, self.D))
        if v is None:
            v = rng.standard_normal(self.D)
        y = np.where(x @ v >= 0.0, 1, -1)
        flip = rng.choice(self.N, size=round(self.FLIP * self.N), replace=False)
        y[flip] = -y[flip]
        return x, y, v

    def prepare(self) -> None:
        x, y, v = self._gaussian(0)
        self.csv = self.path("train.csv")
        with open(self.csv, "w", encoding="utf-8") as fh:
            fh.write("label," + ",".join(f"f{j}" for j in range(self.D)) + "\n")
            for label, row in zip(y.tolist(), x.tolist()):
                fh.write(f"{label}," + ",".join(map(repr, row)) + "\n")
        heldout, _, _ = self._gaussian(1, v)
        self.items = [Item("train", self.path("trace.jsonl"), self.path("model.txt"), heldout)]

    def setup(self) -> str:
        self.dataset = data.load_csv(self.csv)
        return dataset_digest(self.dataset)

    def train(self, item: Item) -> int:
        config = BoosterConfig(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, self.ROUNDS)
        result = boosting.run(config, self.dataset)
        trace_io.write_trace(result, self.dataset.n, item.trace)
        boosting.save_model(result, item.model)
        return len(result.traces)


class TallCapped(Workload):
    """smooth, quadratic geometry, k = 20 on gen_noisy data, held-out predict."""

    name = "tall-capped"
    N, FLIP, K, ROUNDS = 100_000, 0.1, 20.0, 8

    def prepare(self) -> None:
        self.items = [Item("train", self.path("trace.jsonl"), self.path("model.txt"), None)]

    def setup(self) -> str:
        self.dataset = data.gen_noisy(2 * self.case, self.N, self.FLIP)
        heldout = data.gen_noisy(2 * self.case + 1, self.N, self.FLIP)
        self.items[0].heldout = heldout.features
        return dataset_digest(self.dataset, heldout)

    def train(self, item: Item) -> int:
        config = BoosterConfig(
            Algorithm.SMOOTH, QUADRATIC, self.ROUNDS, target_error=1.0 / self.K, k=self.K
        )
        result = boosting.run(config, self.dataset)
        trace_io.write_trace(result, self.dataset.n, item.trace, k=self.K)
        boosting.save_model(result, item.model)
        return len(result.traces)


class PaperSweep(Workload):
    """Every --algo value at the paper's scale, through the CLI."""

    name = "paper-sweep"
    N, FLIP, ROUNDS, SEEDS = 200, 0.1, 100, 3
    # (algo, geometry or None when the algorithm forces it, extra flags)
    CONFIGS = [
        ("maboost-active", "entropy", []),
        ("maboost-active", "quadratic", []),
        ("maboost-lazy", "entropy", []),
        ("maboost-lazy", "quadratic", []),
        ("maxmargin", "entropy", []),
        ("smooth", "entropy", ["--k", "20"]),
        ("smooth", "quadratic", ["--k", "20"]),
        ("combined", "entropy", ["--k", "8"]),
        ("sparse", None, ["--alpha-mode", "zero"]),
        ("sparse", None, ["--alpha-mode", "half"]),
        ("mada", None, ["--mada-eta", "previous_error"]),
        ("mada", None, ["--mada-eta", "fixed_point"]),
    ]

    def prepare(self) -> None:
        self.argv = {}
        for s in range(self.SEEDS * self.case, self.SEEDS * (self.case + 1)):
            heldout = data.gen_noisy(1_000_000 + s, self.N, self.FLIP).features
            for n, (algo, geometry, extra) in enumerate(self.CONFIGS):
                item = Item(
                    f"{s}-{n}", self.path(f"{s}-{n}.jsonl"), self.path(f"{s}-{n}.txt"), heldout
                )
                # 30% flips on the capped subset so combined runs past round 1
                gen = (
                    f"combined:{s}:150:50:0.3" if algo == "combined"
                    else f"noisy:{s}:{self.N}:{self.FLIP}"
                )
                self.argv[item.key] = (
                    ["train", "--algo", algo, "--gen", gen, "--rounds", str(self.ROUNDS),
                     "--trace", item.trace, "--model", item.model]
                    + (["--geometry", geometry] if geometry else [])
                    + extra
                )
                self.items.append(item)

    def setup(self) -> None:
        # what every CLI command pays first: a fresh interpreter importing the CLI
        import_cli_in_child(self.src)

    def train(self, item: Item) -> int:
        out = run_cli(self.argv[item.key])
        return int(re.search(r"rounds=(\d+)", out).group(1))


WORKLOADS = {w.name: w for w in (WideActive, TallCapped, PaperSweep)}
