"""Acceptance bench: one named check per theorem-level guarantee.

Each criterion re-runs the per-round bound checks on the run's records
(independently of the bound column the booster wrote) and reports expected
vs observed. ``CRITERIA`` lists each check under its name, and ``run_bench``
runs and times them in that order. The whole bench is deterministic: fixed
seeds, fixed datasets, fixed order.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import bounds
from .boosting import Algorithm, AlphaMode, BoosterConfig, BoostResult, run
from .data import gen_blobs, gen_combined, gen_noisy
from .errors import ConfigurationError
from .geometry import NEGATIVE_ENTROPY, QUADRATIC, divergence, mirror_map
from .oracles import (
    constrained_divergence_argmin,
    hypercube_entropic_argmin,
    orthant_l1_argmin,
)
from .projection import (
    project_capped_simplex,
    project_hypercube_entropic,
    project_hypercube_simplex,
    project_mixed,
    project_orthant_l1,
    project_simplex,
)


@dataclass
class CriterionResult:
    name: str
    expected: str
    observed: str
    passed: bool
    seconds: float


def _recheck_runs(*configs: BoosterConfig, datasets=None
                  ) -> tuple[list[str], float, list[BoostResult]]:
    """Run each config on each (label, dataset) pair and re-run every round's checks.

    Returns the broken checks, each naming its run, the worst gap of the error a bound covers
    (eps_A for combined) over the bound, -inf with no bound column, and the runs. By default
    the pairs are the blobs, which the first stump separates, and the noisy set.
    """
    datasets = datasets or (("blobs", gen_blobs(0, 200, 0.3)), ("noisy", gen_noisy(0, 200, 0.1)))
    broken, worst, results = [], -math.inf, []
    for config in configs:
        mode = f"{config.alpha_mode.value}-mode " if config.alpha_mode else ""
        for label, data in datasets:
            result = run(config, data)
            checks = bounds.RoundChecks(result.config, result.n, result.n_b)
            for rec, bound, held in checks.replay(map(vars, result.traces),
                                                  float(result.weights.sum())):
                broken += [f"{mode}{family} broken at round {rec['t']} on {label}"
                           for family, holds in held if not holds]
                if bound is not None:
                    worst = max(worst, rec[checks.error_key] - bound)
            results.append(result)
    return broken, worst, results


def _rechecked(expected: str, *configs: BoosterConfig, datasets=None,
               limit: float = math.inf, extra=lambda runs: ("", "", True)):
    """Met when each config's runs on ``datasets`` (as ``_recheck_runs`` takes them) pass every
    round's checks again and the criterion's own rule ``extra(runs)`` holds, within ``limit``
    seconds. ``extra`` returns the text put before ``expected``, the text put before the rounds,
    and whether it is met. A broken Theorem 1 check is a gap above ``bounds.SLACK``."""
    t0 = time.perf_counter()
    broken, worst, results = _recheck_runs(*configs, datasets=datasets)
    elapsed = time.perf_counter() - t0
    claim, note, met = extra(results)
    gap = f"worst gap {worst:.3g} over " if worst > -math.inf else ""
    timed = f", runtime < {limit:g} s" if limit < math.inf else ""
    observed = f"{note}{gap}{sum(len(r.traces) for r in results)} rounds, {elapsed:.2f} s"
    return (claim + expected + timed, f"{observed}; violations: {broken or 'none'}",
            met and not broken and elapsed < limit)


def _smooth_budgets(runs):
    """Each run reaches error 1/k within ceil(2 ln k / gamma_min^2) + 1 rounds; no weight > k/N."""
    k, budgets, reached = runs[0].config.k, [], []
    for result in runs:
        budgets.append(math.ceil(2.0 * math.log(k) / min(tr.gamma for tr in result.traces)**2) + 1)
        reached.append(next((tr.t for tr in result.traces if tr.train_error <= 1.0 / k), None))
    cap_ok = all(tr.max_weight <= k / r.n + 1e-15 for r in runs for tr in r.traces)
    return (f"error <= 1/k within {budgets[0]} rounds on blobs, {budgets[1]} on noisy; ",
            f"reached at round {reached[0]} on blobs, {reached[1]} on noisy; "
            f"caps respected: {cap_ok}; ",
            cap_ok and all(r is not None and r <= b for r, b in zip(reached, budgets)))


def _combined_subset_b(runs):
    """The last eps_B is at most 0.25; eps_A is reported."""
    final = runs[0].traces[-1]
    return "", f"eps_B {final.eps_b:.3g}, eps_A {final.eps_a:.3g}; ", final.eps_b <= 0.25


def _sparse_half_mode(runs):
    """Half-mode on noisy (the last run) has fewer than N nonzero weights within 50 rounds."""
    min_nnz, n = min(tr.nnz for tr in runs[-1].traces[:50]), runs[-1].n
    return "", f"min nnz {min_nnz}/{n}; ", min_nnz < n


def _maxmargin_floor(runs):
    """The last margin is positive and at least Theorem 2's floor gamma_min - nu(T)."""
    [result] = runs
    floor = bounds.theorem2(len(result.traces), NEGATIVE_ENTROPY, result.n,
                            min(tr.gamma for tr in result.traces))
    margin = result.traces[-1].margin
    return (f"margin >= gamma_min - nu = {floor:.3g} and margin > 0", f"margin {margin:.4g}; ",
            margin >= floor and margin > 0)


def _random_entropic_point(rng, dim):
    return np.exp(rng.normal(size=dim))


def _random_simplex_point(rng, dim):
    v = _random_entropic_point(rng, dim)
    return v / v.sum()


def _projection_oracles():
    rng = np.random.default_rng(7)
    problems: list[str] = []

    def close(a, b, tol=1e-6):
        return float(np.max(np.abs(a - b))) <= tol

    for geometry in (QUADRATIC, NEGATIVE_ENTROPY):
        entropic = geometry is NEGATIVE_ENTROPY
        for trial in range(100):
            dim = int(rng.integers(2, 7))
            z = (
                _random_entropic_point(rng, dim)
                if entropic
                else rng.normal(size=dim)
            )
            cap = max(1.2 / dim, float(rng.uniform(1.0 / dim, 1.0)))
            caps = np.where(rng.random(dim) < 0.5, cap, np.inf)  # min(cap, 1) >= 1.2/dim: feasible
            cases = [
                ("simplex", project_simplex(geometry, z), None),
                ("capped", project_capped_simplex(geometry, z, cap), np.full(dim, cap)),
                ("mixed", project_mixed(geometry, z, caps), caps),
            ]
            for label, fast, case_caps in cases:
                reference = constrained_divergence_argmin(geometry, z, case_caps)
                if not close(fast, reference):
                    problems.append(
                        f"{geometry.value}/{label} mismatch on trial {trial}"
                    )

    for trial in range(100):
        dim = int(rng.integers(2, 7))
        z = rng.normal(size=dim)
        lam = float(rng.uniform(0.0, 1.0))
        if not close(project_orthant_l1(z, lam), orthant_l1_argmin(z, lam), 1e-6):
            problems.append(f"orthant-l1 mismatch on trial {trial}")
        zp = np.exp(rng.uniform(-1.5, 1.5, size=dim))
        if not close(
            project_hypercube_entropic(zp), hypercube_entropic_argmin(zp), 1e-6
        ):
            problems.append(f"hypercube mismatch on trial {trial}")

    problems.extend(_lemma_checks(rng))
    return (
        "all projections match numeric minimizers (1e-6); lemma checks hold",
        f"violations: {problems[:3] or 'none'} ({len(problems)} total)",
        not problems,
    )


def _lemma_checks(rng) -> list[str]:
    problems = []
    dim = 5
    sign_slack = 1e-10  # floating-point headroom on exact-sign inequalities
    for trial in range(1000):
        for geometry in (QUADRATIC, NEGATIVE_ENTROPY):
            entropic = geometry is NEGATIVE_ENTROPY
            draw = (
                (lambda: _random_entropic_point(rng, dim))
                if entropic
                else (lambda: rng.normal(size=dim))
            )
            # generalized Pythagorean inequality, relaxed and exact
            z = draw()
            x = _random_simplex_point(rng, dim)
            proj = project_simplex(geometry, z)
            safe_proj = np.maximum(proj, 1e-300) if entropic else proj
            lhs = divergence(geometry, x, z)
            if lhs < divergence(geometry, x, safe_proj) - sign_slack:
                problems.append(f"relaxed pythagorean broken ({geometry.value})")
            if lhs < divergence(geometry, x, safe_proj) + divergence(
                geometry, safe_proj, z
            ) - sign_slack:
                problems.append(f"exact pythagorean broken ({geometry.value})")
            cap = 2.0 / dim
            capped = project_capped_simplex(geometry, z, cap)
            x_capped = project_capped_simplex(geometry, _random_entropic_point(rng, dim), cap)
            safe_capped = np.maximum(capped, 1e-300) if entropic else capped
            if divergence(geometry, x_capped, z) < divergence(
                geometry, x_capped, safe_capped
            ) + divergence(geometry, safe_capped, z) - sign_slack:
                problems.append(f"capped exact pythagorean broken ({geometry.value})")
            # three-point identity
            a, b, c = draw(), draw(), draw()
            lhs3 = float((a - b) @ (mirror_map(geometry, c) - mirror_map(geometry, b)))
            rhs3 = (
                divergence(geometry, a, b)
                - divergence(geometry, a, c)
                + divergence(geometry, b, c)
            )
            if abs(lhs3 - rhs3) > 1e-10 * max(1.0, abs(rhs3)):
                problems.append(f"three-point identity broken ({geometry.value})")
        # norm / dual-norm inequality, both paired norms
        u, v = rng.normal(size=dim), rng.normal(size=dim)
        if float(u @ v) > 0.5 * float(u @ u) + 0.5 * float(v @ v) + sign_slack:
            problems.append("l2 Fenchel-Young broken")
        l1 = float(np.abs(u).sum())
        linf = float(np.abs(v).max())
        if float(u @ v) > 0.5 * l1**2 + 0.5 * linf**2 + sign_slack:
            problems.append("l1/linf Fenchel-Young broken")
        # double projection never increases the divergence to feasible points
        zp = np.exp(rng.uniform(-1.5, 1.5, size=dim))
        double = project_hypercube_simplex(zp)
        xs = _random_simplex_point(rng, dim)
        if divergence(NEGATIVE_ENTROPY, xs, zp) < divergence(
            NEGATIVE_ENTROPY, xs, double
        ) - sign_slack:
            problems.append("double-projection inequality broken")
        # variational optimality certificate for the hypercube clamp
        y = project_hypercube_entropic(zp)
        v_feasible = rng.random(dim)
        grad = np.log(y / zp)
        if float((v_feasible - y) @ grad) < -sign_slack:
            problems.append("hypercube optimality certificate broken")
    return problems


def _adaboost_degeneration():
    from .stumps import edge, loss_vector, train_stump

    data = gen_noisy(3, 60, 0.1)
    rng = np.random.default_rng(11)
    w = rng.random(60)
    w /= w.sum()
    h = train_stump(data.features, data.labels, w)
    d = loss_vector(data.features, data.labels, h)
    eta = edge(w, d)  # entropy geometry: L = 1
    # one active entropic round through the mirror-map machinery
    from .geometry import inverse_mirror_map

    stepped = project_simplex(
        NEGATIVE_ENTROPY,
        inverse_mirror_map(NEGATIVE_ENTROPY, mirror_map(NEGATIVE_ENTROPY, w) + eta * d),
    )
    # directly coded multiplicative-weights round
    direct = w * np.exp(eta * d)
    direct /= direct.sum()
    gap = float(np.max(np.abs(stepped - direct)))
    return (
        "active entropic round equals the multiplicative-weights round to 1e-10",
        f"max coordinate gap {gap:.3g}",
        gap <= 1e-10,
    )


def _cli_determinism():
    import contextlib
    import io

    from .cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for tag in ("a", "b"):
            trace = os.path.join(tmp, f"trace_{tag}.jsonl")
            model = os.path.join(tmp, f"model_{tag}.txt")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([
                    "train",
                    "--algo", "maboost-active",
                    "--geometry", "entropy",
                    "--gen", "noisy:0:100:0.1",
                    "--rounds", "50",
                    "--trace", trace,
                    "--model", model,
                ])
            with open(trace, "rb") as fh:
                trace_bytes = fh.read()
            with open(model, "rb") as fh:
                model_bytes = fh.read()
            outputs.append((code, trace_bytes, model_bytes))
    identical = outputs[0] == outputs[1] and outputs[0][0] == 0
    return (
        "two identical train invocations yield byte-identical trace and model",
        f"identical: {identical}",
        identical,
    )


CRITERIA: list[tuple[str, Callable[[], tuple[str, str, bool]]]] = [
    ("thm1-entropy", partial(
        _rechecked, f"error - exp(-sum gamma^2/2) <= {bounds.SLACK:g}",
        BoosterConfig(Algorithm.MABOOST_ACTIVE, NEGATIVE_ENTROPY, 200), limit=5.0)),
    ("thm1-quadratic", partial(
        _rechecked, f"error - 1/(1 + sum gamma^2) <= {bounds.SLACK:g}",
        BoosterConfig(Algorithm.MABOOST_ACTIVE, QUADRATIC, 500), limit=10.0)),
    ("lazy-bounds", partial(
        _rechecked, f"lazy updates meet the same round-by-round bounds, gap <= {bounds.SLACK:g}",
        BoosterConfig(Algorithm.MABOOST_LAZY, NEGATIVE_ENTROPY, 200),
        BoosterConfig(Algorithm.MABOOST_LAZY, QUADRATIC, 500))),
    ("smooth-regime", partial(
        _rechecked, "max weight <= k/N; smooth bound every round",
        BoosterConfig(Algorithm.SMOOTH, NEGATIVE_ENTROPY, 500, k=20.0), extra=_smooth_budgets)),
    ("combined-sets", lambda: _rechecked(
        "eps_B <= 0.25 within 500 rounds (hard); eps_A <= 0.02 (soft report); "
        "primary bound every round",
        BoosterConfig(Algorithm.COMBINED, NEGATIVE_ENTROPY, 500, target_error=0.02, k=4.0),
        datasets=[("combined", gen_combined(0, 150, 50, 0.3))], extra=_combined_subset_b)),
    ("sparse-thm4", partial(
        _rechecked, "c-weighted bound each round; ||y||_1 >= 1/N while erring; half-mode nnz < N",
        *(BoosterConfig(Algorithm.SPARSE, QUADRATIC, 100, alpha_mode=mode)
          for mode in (AlphaMode.ZERO, AlphaMode.HALF)), extra=_sparse_half_mode)),
    ("mada-thm5", partial(
        _rechecked, "||y||_1 >= N * error and error^2 <= 1/(t * gamma_min^2) every round",
        BoosterConfig(Algorithm.MADA, NEGATIVE_ENTROPY, 500))),
    ("maxmargin-thm2", lambda: _rechecked(  # max-margin has no per-round family yet
        "", BoosterConfig(Algorithm.MAX_MARGIN, NEGATIVE_ENTROPY, 2000),
        datasets=[("blobs", gen_blobs(1, 100, 0.4))], limit=30.0, extra=_maxmargin_floor)),
    ("projection-oracles", _projection_oracles),
    ("adaboost-degeneration", _adaboost_degeneration),
    ("cli-determinism", _cli_determinism),
]


def run_bench(criterion: str | None = None) -> list[CriterionResult]:
    """Run and time every check in ``CRITERIA`` order, or only the one named."""
    names = [name for name, _ in CRITERIA]
    if criterion is not None and criterion not in names:
        raise ConfigurationError(f"unknown criterion {criterion!r}; known: {', '.join(names)}")
    results = []
    for name, check in CRITERIA:
        if criterion in (None, name):
            t0 = time.perf_counter()
            expected, observed, passed = check()
            seconds = time.perf_counter() - t0
            results.append(CriterionResult(name, expected, observed, passed, seconds))
    return results
