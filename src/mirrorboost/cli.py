"""Command-line surface: train boosters, verify traces, project vectors, bench.

Exit codes: 0 success, 1 usage or parse error, 2 no weak learnability.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .boosting import (
    FORCED_GEOMETRY,
    Algorithm,
    AlphaMode,
    BoosterConfig,
    MadaEta,
    run,
    save_model,
)
from .data import Dataset, gen_blobs, gen_combined, gen_noisy, load_csv, load_libsvm
from .errors import MirrorBoostError, NoWeakLearnabilityError, UsageError
from .geometry import NEGATIVE_ENTROPY, QUADRATIC, Geometry
from .projection import (
    project_capped_simplex,
    project_hypercube_entropic,
    project_hypercube_simplex,
    project_orthant_l1,
    project_simplex,
)
from .trace_io import read_trace, verify_trace, write_trace

# the package has only the entropic hypercube projections and the Euclidean orthant-l1 one
_SET_GEOMETRY = {"hypercube": NEGATIVE_ENTROPY, "double": NEGATIVE_ENTROPY, "orthant-l1": QUADRATIC}


def _parse_gen(spec: str) -> Dataset:
    name, *fields = spec.split(":")
    # built per call, so a generator replaced on this module (the benchmark's tracer) is called
    generator, kinds = {
        "blobs": (gen_blobs, (int, int, float)),
        "noisy": (gen_noisy, (int, int, float)),
        "combined": (gen_combined, (int, int, int, float)),
    }.get(name, (None, ()))
    if generator is None or len(fields) != len(kinds):
        raise UsageError(
            f"bad --gen spec {spec!r}; expected blobs:<seed>:<N>:<margin>, "
            "noisy:<seed>:<N>:<flip> or combined:<seed>:<Na>:<Nb>:<flip>"
        )
    try:
        values = [kind(field) for kind, field in zip(kinds, fields)]
    except ValueError as exc:
        raise UsageError(f"bad --gen spec {spec!r}: {exc}") from None
    # outside the try: a generator's ConfigurationError is a ValueError with its own message
    return generator(*values)


def _load_dataset(args) -> Dataset:
    if (args.data is None) == (args.gen is None):
        raise UsageError("exactly one of --data or --gen is required")
    if args.gen is not None:
        return _parse_gen(args.gen)
    if args.data.endswith((".libsvm", ".svm", ".svmlight")):
        return load_libsvm(args.data)
    return load_csv(args.data, args.label_column, args.subset_column)


def cmd_train(args) -> int:
    geometry = args.geometry or FORCED_GEOMETRY.get(Algorithm(args.algo), NEGATIVE_ENTROPY)
    # checked on construction, before any data is read or generated
    config = BoosterConfig(args.algo, geometry, args.rounds, target_error=args.target_eps,
                           k=args.k, alpha_mode=args.alpha_mode, mada_eta=args.mada_eta)
    dataset = _load_dataset(args)
    result = run(config, dataset)
    if args.trace:
        write_trace(result, dataset.n, args.trace)
    if args.model:
        save_model(result, args.model)
    final = result.traces[-1]  # round 1 is always recorded: a zero edge there raises
    print(f"rounds={len(result.traces)} train_error={final.train_error!r} bound={final.bound!r}")
    return 0


def cmd_verify(args) -> int:
    trace = read_trace(args.trace)
    reports = verify_trace(trace)
    if len(reports) == 1 and reports[0].family == "empty-trace":
        print("WARNING: trace has no rounds")
    for report in reports:
        print(report.line())
    return 0 if all(r.passed for r in reports) else 1


def cmd_project(args) -> int:
    geometry = Geometry(args.geometry)
    try:
        values = json.loads(sys.stdin.read())
    except ValueError as exc:  # JSONDecodeError is a ValueError
        raise UsageError(f"stdin must hold a JSON array of numbers: {exc}") from None
    # bool is an int, NumPy would convert the string "2", and an int past the
    # largest float would overflow; NaN fails the test too
    if not isinstance(values, list) or not values or not all(
        type(v) in (int, float) and abs(v) <= sys.float_info.max for v in values
    ):
        raise UsageError("stdin must hold a non-empty 1-D JSON array of finite numbers")
    vec = np.array(values, dtype=float)
    spec = args.set
    name = spec.split(":", 1)[0]
    required = _SET_GEOMETRY.get(name)
    if required is not None and geometry is not required:
        raise UsageError(f"--set {name} requires --geometry {required.value}")
    if spec == "simplex":
        out = project_simplex(geometry, vec)
    elif spec.startswith("capped:"):
        out = project_capped_simplex(geometry, vec, _spec_float(spec))
    elif spec == "hypercube":
        out = project_hypercube_entropic(vec)
    elif spec == "double":
        out = project_hypercube_simplex(vec)
    elif spec.startswith("orthant-l1:"):
        out = project_orthant_l1(vec, _spec_float(spec))
    else:
        raise UsageError(f"unknown --set {spec!r}")
    print(json.dumps(list(out)))
    return 0


def _spec_float(spec: str) -> float:
    name, value = spec.split(":", 1)
    try:
        return float(value)
    except ValueError:
        raise UsageError(f"bad --set {spec!r}: {name}:<number> expected") from None


def cmd_bench(args) -> int:
    from . import bench  # its projection oracles load scipy; no other command needs it

    results = bench.run_bench(args.criterion)
    width = max(len(r.name) for r in results)
    all_passed = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_passed &= r.passed
        print(f"{r.name:<{width}}  expected {r.expected}  observed {r.observed}  {status}")
    print("bench:", "ALL PASS" if all_passed else "FAILURES PRESENT")
    return 0 if all_passed else 1


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises UsageError (exit 1) instead of exiting 2;
    its subparsers are of the same class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache  # built on the first call, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mirrorboost")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run a booster and write trace/model files")
    train.add_argument("--algo", required=True, choices=[a.value for a in Algorithm])
    train.add_argument("--geometry", choices=[g.value for g in Geometry])
    train.add_argument("--data", help="CSV (header row) or LIBSVM file")
    train.add_argument("--gen", help="blobs:<seed>:<N>:<margin> | noisy:... | combined:...")
    train.add_argument("--label-column", default="label")
    train.add_argument("--subset-column", default=None)
    train.add_argument("--rounds", type=int, required=True)
    train.add_argument("--target-eps", type=float, default=None)
    train.add_argument("--k", type=float, default=None)
    train.add_argument("--alpha-mode", choices=[m.value for m in AlphaMode])
    train.add_argument("--mada-eta", choices=[m.value for m in MadaEta])
    train.add_argument("--trace")
    train.add_argument("--model")
    train.set_defaults(func=cmd_train)

    verify = sub.add_parser("verify", help="recheck every bound stored in a trace")
    verify.add_argument("trace")
    verify.set_defaults(func=cmd_verify)

    project = sub.add_parser("project", help="project a JSON vector from stdin")
    project.add_argument("--geometry", required=True, choices=[g.value for g in Geometry])
    project.add_argument(
        "--set",
        required=True,
        help="simplex | capped:<cap> | hypercube | double | orthant-l1:<lambda>",
    )
    project.set_defaults(func=cmd_project)

    bench_p = sub.add_parser("bench", help="run the acceptance criteria")
    bench_p.add_argument("--criterion", default=None, help="run a single named criterion")
    bench_p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # overflow only makes ±inf, whose sign comparisons keep; NaN warnings stay on
        with np.errstate(over="ignore"):
            return args.func(args)
    except MirrorBoostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NoWeakLearnabilityError) else 1


if __name__ == "__main__":
    sys.exit(main())
