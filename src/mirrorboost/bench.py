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


def _recheck_runs(*configs: BoosterConfig) -> tuple[list[str], float, list[BoostResult]]:
    """Run each config on the blobs and the noisy set and re-run every round's checks.

    Returns the broken checks, each naming its run, the worst train_error -
    bound (-inf where no round has a bound column), and the runs. The blobs
    are separated by the first stump; the noisy set runs many rounds.
    """
    datasets = (("blobs", gen_blobs(0, 200, 0.3)), ("noisy", gen_noisy(0, 200, 0.1)))
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
                    worst = max(worst, rec["train_error"] - bound)
            results.append(result)
    return broken, worst, results


def _rechecked(expected: str, *configs: BoosterConfig, limit: float = math.inf):
    """Met when every round of each config's runs passes its checks again, within
    ``limit`` seconds. For a Theorem 1 family a broken check is a gap above
    ``bounds.SLACK``."""
    t0 = time.perf_counter()
    broken, worst, results = _recheck_runs(*configs)
    elapsed = time.perf_counter() - t0
    gap = f"worst gap {worst:.3g} over " if worst > -math.inf else ""
    timed = f", runtime < {limit:g} s" if limit < math.inf else ""
    observed = f"{gap}{sum(len(r.traces) for r in results)} rounds, {elapsed:.2f} s"
    return (expected + timed, f"{observed}; violations: {broken or 'none'}",
            not broken and elapsed < limit)


def _smooth_regime():
    k = 20.0
    broken, _, results = _recheck_runs(
        BoosterConfig(Algorithm.SMOOTH, NEGATIVE_ENTROPY, 500, target_error=1.0 / k, k=k)
    )
    budgets, reached = [], []
    for result in results:
        gamma_obs = min(tr.gamma for tr in result.traces)
        budgets.append(math.ceil(2.0 * math.log(k) / gamma_obs**2) + 1)
        reached.append(next((tr.t for tr in result.traces if tr.train_error <= 1.0 / k), None))
    cap_ok = all(tr.max_weight <= k / 200 + 1e-15 for r in results for tr in r.traces)
    passed = all(r is not None and r <= b for r, b in zip(reached, budgets))
    return (
        f"error <= 1/k within {budgets[0]} rounds on blobs, {budgets[1]} on noisy; "
        "max weight <= k/N; smooth bound every round",
        f"reached at round {reached[0]} on blobs, {reached[1]} on noisy; "
        f"caps respected: {cap_ok}; violations: {broken or 'none'}",
        passed and cap_ok and not broken,
    )


def _combined_sets():
    result = run(
        BoosterConfig(Algorithm.COMBINED, NEGATIVE_ENTROPY, 500, target_error=0.02, k=4.0),
        gen_combined(0, 150, 50, 0.3),
    )
    final = result.traces[-1]
    return (
        "eps_B <= 0.25 within 500 rounds (hard); eps_A <= 0.02 (soft report)",
        f"eps_B {final.eps_b:.3g}, eps_A {final.eps_a:.3g} after {len(result.traces)} rounds",
        final.eps_b <= 0.25,
    )


def _sparse_thm4():
    n = 200
    problems, _, results = _recheck_runs(*(
        BoosterConfig(Algorithm.SPARSE, QUADRATIC, 100, alpha_mode=mode)
        for mode in (AlphaMode.ZERO, AlphaMode.HALF)
    ))
    min_nnz = min(tr.nnz for tr in results[-1].traces[:50])  # half-mode, noisy
    if min_nnz >= n:
        problems.append("half-mode produced no sparsity within 50 rounds")
    return (
        "c-weighted bound each round; ||y||_1 >= 1/N while erring; half-mode nnz < N",
        f"violations: {problems or 'none'}; min nnz {min_nnz}/{n}",
        not problems,
    )


def _maxmargin_thm2():
    t0 = time.perf_counter()
    n = 100
    result = run(
        BoosterConfig(Algorithm.MAX_MARGIN, NEGATIVE_ENTROPY, 2000),
        gen_blobs(1, n, 0.4),
    )
    gamma_min = min(tr.gamma for tr in result.traces)
    c = bounds.worst_margin_reference_divergence(NEGATIVE_ENTROPY, n)
    nu = bounds.margin_accuracy_gap(len(result.traces), 1.0, c, gamma_min)
    margin = result.traces[-1].margin
    elapsed = time.perf_counter() - t0
    return (
        f"margin >= gamma_min - nu = {gamma_min - nu:.3g} and margin > 0, runtime < 30 s",
        f"margin {margin:.4g} after {len(result.traces)} rounds, {elapsed:.1f} s",
        margin >= gamma_min - nu and margin > 0 and elapsed < 30.0,
    )


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
            caps = np.where(rng.random(dim) < 0.5, cap, np.inf)
            if np.minimum(caps, 1.0).sum() < 1.0:
                caps[:] = cap
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
    ("smooth-regime", _smooth_regime),
    ("combined-sets", _combined_sets),
    ("sparse-thm4", _sparse_thm4),
    ("mada-thm5", partial(
        _rechecked, "||y||_1 >= N * error and error^2 <= 1/(t * gamma_min^2) every round",
        BoosterConfig(Algorithm.MADA, NEGATIVE_ENTROPY, 500))),
    ("maxmargin-thm2", _maxmargin_thm2),
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
