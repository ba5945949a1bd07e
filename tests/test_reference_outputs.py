"""Real outputs against the benchmark's recorded digests.

``perfbench/reference.json`` holds a SHA-256 of each benchmark item's trace,
model and held-out labels, recorded from the first baseline; a change that
keeps every output byte must keep reproducing them. This test re-runs one
``paper-sweep`` case (all twelve ``--algo`` configurations through the CLI)
in-process, and four ``tall-capped`` cases and one ``wide-active`` case each
in a child process with one OpenBLAS thread, as the edge's last bits depend on
the BLAS thread count. A ``Dataset`` keeps its stump index after its first run,
so each case is also checked on datasets already trained on, the path every
benchmark pass after the first takes. It only reads ``perfbench/``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mirrorboost import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SRC = str(ROOT / "src")


def _reference(workload: str, case: int) -> dict:
    with open(PERFBENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)[workload][str(case)]


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def test_paper_sweep_case_matches_its_digests(tmp_path, monkeypatch):
    sweep = _load_workloads(monkeypatch).PaperSweep(0, str(tmp_path), SRC)
    sweep.prepare()
    observed = {}
    for item in sweep.items:
        sweep.train(item)
        observed[item.key] = sweep.output_digest(item, sweep.predict(item))
        sweep.verify(item)  # a non-zero exit raises
    assert observed == _reference("paper-sweep", 0)["items"]


def test_paper_sweep_case_on_shared_datasets_matches_its_digests(tmp_path, monkeypatch):
    """All twelve configurations of a seed train in turn on one ``Dataset`` per
    ``--gen`` spec, every run after the first on its cached stump index."""
    shared = {}
    parse_gen = cli._parse_gen

    def parse_once(spec):
        if spec not in shared:
            shared[spec] = parse_gen(spec)
        return shared[spec]

    monkeypatch.setattr(cli, "_parse_gen", parse_once)
    sweep = _load_workloads(monkeypatch).PaperSweep(0, str(tmp_path), SRC)
    sweep.prepare()
    observed = {}
    for item in sweep.items:
        sweep.train(item)
        observed[item.key] = sweep.output_digest(item, sweep.predict(item))
        sweep.verify(item)
    assert len(shared) == 2 * sweep.SEEDS  # a noisy and a combined dataset per seed
    assert all("stump_index" in vars(ds) for ds in shared.values())
    assert observed == _reference("paper-sweep", 0)["items"]


# trains the item twice on one set-up: the second run takes the dataset's
# cached stump index, as every benchmark pass after the first does
_ONE_CASE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import workloads
wl = workloads.WORKLOADS[sys.argv[2]](int(sys.argv[3]), sys.argv[4], sys.argv[5])
wl.prepare()
setup = wl.setup()
item = wl.items[0]
runs = []
for _ in range(2):
    wl.train(item)
    runs.append({"setup": setup, "items": {item.key: wl.output_digest(item, wl.predict(item))}})
print(json.dumps(runs))
"""


def _digests_on_one_blas_thread(workload: str, case: int, workdir) -> list[dict]:
    """Set up one case of ``workload`` in a child process and train it twice; the
    digests of each training."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_CASE, str(PERFBENCH), workload, str(case), str(workdir), SRC],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("case", [0, 3, 17, 26])
def test_tall_capped_case_matches_its_digests_on_one_blas_thread(tmp_path, case):
    reference = _reference("tall-capped", case)
    assert _digests_on_one_blas_thread("tall-capped", case, tmp_path) == [reference, reference]


def test_wide_active_case_matches_its_digests_on_one_blas_thread(tmp_path):
    # the entropic project_simplex at 1e4 x 50 and the load_csv fast path
    reference = _reference("wide-active", 0)
    assert _digests_on_one_blas_thread("wide-active", 0, tmp_path) == [reference, reference]
