"""Benchmark harness for mirrorboost.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide-active --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --write-reference

With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import os

# a single-threaded baseline: set before numpy loads its BLAS
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, "_work")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_REPS = 8
IMPORT_REPS = 3


class Ledger:
    """Counts operations and failures; a failure never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, fn, *args):
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception as exc:  # any exception from the program is a failed op
            self.fail(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return False, None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def timed(ledger, tracer, name, fn, *args):
    """Run one operation; return (seconds, succeeded, result)."""
    ctx = tracer.span(name) if tracer is not None else nullcontext()
    start = time.perf_counter()
    with ctx:
        ok, out = ledger.run(fn, *args)
    return time.perf_counter() - start, ok, out


def check(ledger, what, observed, expected) -> None:
    if expected is not None and observed != expected:
        ledger.fail(f"{what}: digest {observed[:16]} differs from reference {expected[:16]}")


def run_pass(wl, ledger, expected, tracer=None) -> tuple[dict, dict]:
    """Train, predict and verify every item once.

    Returns the seconds of each operation kind per item key plus the rounds
    trained, and the observed output digest of each item.
    """
    result = {"train": {}, "predict": {}, "verify": {}, "rounds": 0}
    observed = {}
    for item in wl.items:
        result["train"][item.key], ok, rounds = timed(
            ledger, tracer, "harness.train", wl.train, item)
        if not ok:
            continue
        result["rounds"] += rounds
        result["predict"][item.key], ok, labels = timed(
            ledger, tracer, "harness.predict", wl.predict, item)
        if ok:
            observed[item.key] = wl.output_digest(item, labels)
            check(ledger, f"{wl.name} item {item.key}", observed[item.key],
                  None if expected is None else expected["items"].get(item.key, "missing"))
        result["verify"][item.key], _, _ = timed(
            ledger, tracer, "harness.verify", wl.verify, item)
    return result, observed


def setup_op(wl, ledger, expected, tracer=None) -> float:
    dt, ok, digest = timed(ledger, tracer, "harness.setup", wl.setup)
    if ok:
        check(ledger, f"{wl.name} set-up", digest, expected.get("setup"))
    return dt


def lowest(passes: list[dict], kind: str) -> float:
    """Each item's lowest time for one operation kind over the passes, summed.

    Other tenants of a shared machine only ever add time, in bursts that can
    outlast a whole pass; an item's fastest repetition is the steadiest
    estimate of the program's own cost.
    """
    best = {}
    for p in passes:
        for key, seconds in p[kind].items():
            best[key] = min(seconds, best.get(key, seconds))
    return sum(best.values())


def per_pass(passes: list[dict], kind: str) -> list[float]:
    return [sum(p[kind].values()) for p in passes]


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"{len(values)} samples, lowest {min(values):.6g}, "
            f"median {statistics.median(values):.6g}, quartiles {q1:.6g} .. {q3:.6g}")


def untraced_run(wl, ledger, expected, seconds) -> tuple[dict, dict]:
    setups = [setup_op(wl, ledger, expected)]
    run_pass(wl, ledger, expected)  # warm-up, checked but not timed
    passes = []
    start = time.perf_counter()
    # the other set-ups are spread evenly over the run, between passes, so
    # they sample the same machine conditions as the passes do
    while True:
        elapsed = time.perf_counter() - start
        gc.collect()
        if len(setups) < SETUP_REPS and elapsed >= len(setups) * seconds / SETUP_REPS:
            setups.append(setup_op(wl, ledger, expected))
        elif not passes or elapsed < seconds:
            passes.append(run_pass(wl, ledger, expected)[0])
        else:
            break
    rounds = max(p["rounds"] for p in passes)
    if not rounds:
        raise SystemExit(f"{wl.name}: no pass completed a training run")

    train = lowest(passes, "train")
    metrics = {
        "setup_s": (min(setups), "s"),
        "train_s": (train, "s"),
        "round_ms": (1e3 * train / rounds, "ms"),
        "predict_s": (lowest(passes, "predict"), "s"),
        "verify_s": (lowest(passes, "verify"), "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {"setup_s": setups}
    for kind in ("train", "predict", "verify"):
        samples[f"{kind}_s"] = per_pass(passes, kind)
    return metrics, samples


def traced_run(wl, ledger, expected, seconds) -> tuple[dict, dict]:
    import tracing
    import workloads

    workloads.import_cli_in_child(SRC)  # warm the bytecode cache
    import_s = [workloads.import_cli_in_child(SRC) for _ in range(IMPORT_REPS)]
    setup_op(wl, ledger, expected)
    run_pass(wl, ledger, expected)  # warm-up, checked but not timed

    tracer = tracing.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        gc.collect()
        untraced.append(run_pass(wl, ledger, expected)[0])
        gc.collect()
        tracer.pass_id += 1
        tracer.install()
        try:
            setup_op(wl, ledger, expected, tracer)
            traced.append(run_pass(wl, ledger, expected, tracer)[0])
        finally:
            tracer.uninstall()
        tracer.end_pass()

    n = len(traced)
    total, self_t, calls = tracer.totals()
    counts = tracer.counts

    def ms(*names):
        return 1e3 * sum(self_t[x] for x in names) / n

    stump_calls = calls["stumps.train_stump"]
    m = {
        "data.ms": (ms("data.load_csv", "data.gen"), "ms"),
        "data.rows": (counts["data.rows"] / n, "count"),
        "stumps.train_stump_ms": (ms("stumps.train_stump"), "ms"),
        "stumps.train_stump_calls": (stump_calls / n, "count"),
        "stumps.train_stump_us_per_call": (
            1e6 * self_t["stumps.train_stump"] / max(stump_calls, 1), "us"),
        "stumps.thresholds_scanned": (counts["stumps.thresholds_scanned"] / n, "count"),
        "stumps.loss_vector_ms": (ms("stumps.loss_vector"), "ms"),
        "stumps.predict_ms": (ms("stumps.predict"), "ms"),
        "stumps.predict_calls": (calls["stumps.predict"] / n, "count"),
        "projection.ms": (
            ms("projection.simplex", "projection.mixed", "projection.orthant_l1"), "ms"),
        "projection.simplex_calls": (calls["projection.simplex"] / n, "count"),
        "projection.mixed_calls": (calls["projection.mixed"] / n, "count"),
        "projection.orthant_l1_calls": (calls["projection.orthant_l1"] / n, "count"),
        "boosting.run_ms": (1e3 * total["boosting.run"] / n, "ms"),
        "boosting.self_ms": (ms("boosting.run"), "ms"),
        "boosting.rounds": (counts["boosting.rounds"] / n, "count"),
        "boosting.predict_ms": (ms("boosting.predict"), "ms"),
        "boosting.save_model_ms": (ms("boosting.save_model"), "ms"),
        "boosting.load_model_ms": (ms("boosting.load_model"), "ms"),
        "trace_io.write_ms": (ms("trace_io.write"), "ms"),
        "trace_io.write_bytes": (counts["trace_io.write_bytes"] / n, "count"),
        "trace_io.read_ms": (ms("trace_io.read"), "ms"),
        "verify.verify_trace_ms": (ms("verify.verify_trace"), "ms"),
        "verify.records": (counts["verify.records"] / n, "count"),
        "cli.import_ms": (1e3 * statistics.median(import_s), "ms"),
        "cli.main_self_ms": (ms("cli.main"), "ms"),
        "harness.self_ms": (ms("harness.train", "harness.predict", "harness.verify"), "ms"),
        "trace.train_s": (total["harness.train"] / n, "s"),
        # passes alternate, so pairing them cancels the machine's slow drift
        "trace.overhead_s": (statistics.median(
            t - u for t, u in zip(per_pass(traced, "train"), per_pass(untraced, "train"))), "s"),
    }
    os.makedirs(WORKDIR, exist_ok=True)
    tracer.write(os.path.join(WORKDIR, f"spans-{wl.name}.tsv"))
    print(train_breakdown(tracer, n))
    return m, {"untraced_train_s": per_pass(untraced, "train"),
               "traced_train_s": per_pass(traced, "train"), "import_s": import_s}


def train_breakdown(tracer, n) -> str:
    """Self time per layer inside the train operations; the parts sum to train."""
    total, self_t, _ = tracer.totals(under="harness.train")
    layers = defaultdict(float)
    for name, seconds in self_t.items():
        layers[name.split(".")[0]] += seconds
    train = total["harness.train"]
    parts = ", ".join(
        f"{layer} {1e3 * v / n:.1f} ({100 * v / train:.1f}%)"
        for layer, v in sorted(layers.items(), key=lambda kv: -kv[1])
    )
    return (f"train self time by layer, ms/pass: {parts}; sum "
            f"{1e3 * sum(layers.values()) / n:.1f} = traced train {1e3 * train / n:.1f}")


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "cpu": platform.machine(),
        "caches": {},
    }
    def read(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    try:
        models = [line.split(":", 1)[1].strip()
                  for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")]
        env["cpu"] = models[0] if models else env["cpu"]
        for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
            level, kind, size = (read(os.path.join(index, f)).strip()
                                 for f in ("level", "type", "size"))
            env["caches"][f"L{level} {kind}"] = size
    except OSError:
        pass
    return env


def measure(args) -> int:
    import workloads

    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    case = args.seed % workloads.CASES
    expected = reference[args.workload][str(case)]
    os.makedirs(WORKDIR, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](case, WORKDIR, SRC)
    ledger = Ledger()
    wl.prepare()
    if args.trace:
        metrics, samples = traced_run(wl, ledger, expected, args.seconds)
    else:
        metrics, samples = untraced_run(wl, ledger, expected, args.seconds)

    env = environment()
    print("environment:", json.dumps(env, sort_keys=True))
    print(f"workload {wl.name}, seed {args.seed} (reference case {case}), trace {args.trace}")
    for name, (value, unit) in metrics.items():
        extra = f"  [{summary(samples[name])}]" if name in samples else ""
        print(f"  {name} = {value:.6g} {unit}{extra}")
    for message in ledger.errors:
        print("FAILED:", message, file=sys.stderr)
    with open(os.path.join(WORKDIR, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                   "environment": env, "samples": samples,
                   "metrics": {k: v[0] for k, v in metrics.items()}}, fh, indent=1)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_reference() -> int:
    """Record the output digests of every reference case of every workload."""
    import workloads

    os.makedirs(WORKDIR, exist_ok=True)
    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        reference[name] = {}
        for case in range(workloads.CASES):
            wl = cls(case, WORKDIR, SRC)
            ledger = Ledger()
            wl.prepare()
            _, setup_digest = ledger.run(wl.setup)
            _, observed = run_pass(wl, ledger, None)
            if ledger.failed:
                print(f"{name} case {case}: {ledger.errors}", file=sys.stderr)
                return 1
            reference[name][str(case)] = {"setup": setup_digest, "items": observed}
            print(f"{name} case {case}: {len(observed)} items", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def smoke() -> int:
    """Run every workload briefly, traced and untraced, and check the output."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            label = f"{workload} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: outputs differ from the reference digests")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{label}: metrics/units {got} != {wanted[trace]}")
            for k, v in result["metrics"].items():
                if not math.isfinite(v["value"]) or (trace == 0 and v["value"] <= 0):
                    problems.append(f"{label}: {k} = {v['value']}")
            print(f"{label}: {'ok' if not problems else 'problems'}", flush=True)
    for p in problems:
        print("SMOKE:", p, file=sys.stderr)
    print("smoke:", "PASS" if not problems else "FAIL")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick self-check")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the output digests of every reference case")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mirrorboost", "__init__.py")):
        print(f"error: no mirrorboost sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()
    if args.write_reference:
        return write_reference()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
