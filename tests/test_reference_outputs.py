"""Real outputs against the benchmark's recorded digests.

``perfbench/reference.json`` holds a SHA-256 of each benchmark item's trace,
model and held-out labels, recorded from the first baseline; a change that
keeps every output byte must keep reproducing them. This test re-runs one
``paper-sweep`` case (all twelve ``--algo`` configurations through the CLI)
in-process, and four ``tall-capped`` cases and one ``wide-active`` case each
in a child process with one OpenBLAS thread, as the edge's last bits depend on
the BLAS thread count. It only reads ``perfbench/``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


_ONE_CASE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import workloads
wl = workloads.WORKLOADS[sys.argv[2]](int(sys.argv[3]), sys.argv[4], sys.argv[5])
wl.prepare()
setup = wl.setup()
item = wl.items[0]
wl.train(item)
print(json.dumps({"setup": setup, "items": {item.key: wl.output_digest(item, wl.predict(item))}}))
"""


def _digests_on_one_blas_thread(workload: str, case: int, workdir) -> dict:
    """Set up and train one case of ``workload`` in a child process; its digests."""
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
    assert _digests_on_one_blas_thread("tall-capped", case, tmp_path) == _reference("tall-capped", case)


def test_wide_active_case_matches_its_digests_on_one_blas_thread(tmp_path):
    # the entropic project_simplex at 1e4 x 50 and the load_csv fast path
    assert _digests_on_one_blas_thread("wide-active", 0, tmp_path) == _reference("wide-active", 0)
