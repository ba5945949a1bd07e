"""Acceptance bench: one named check per theorem-level guarantee.

Each criterion re-runs the per-round bound checks on the run's records
(independently of the bound column the booster wrote) and reports expected
vs observed. The whole bench is deterministic: fixed seeds, fixed datasets,
fixed order.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass

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
    seconds: float = 0.0


def _recheck(result: BoostResult, n: int, **kw) -> tuple[list[str], float]:
    """Re-run a run's bound checks: (broken checks, worst train_error - bound)."""
    checks = bounds.RoundChecks(result.algorithm.value, result.geometry.value, n, **kw)
    traces = result.traces
    # round t+1's y_l1 holds the mass after round t; the final weights after the last
    after = [tr.y_l1 for tr in traces[1:]] + [float(result.weights.sum())]
    broken, worst = [], -math.inf
    for tr, mass_after in zip(traces, after):
        bound, held = checks.add(tr.t, tr.gamma, tr.train_error, tr.y_l1, tr.eps_a, mass_after)
        broken += [f"{family} broken at round {tr.t}" for family, holds in held if not holds]
        if bound is not None:
            worst = max(worst, tr.train_error - bound)
    return broken, worst


def _thm1_criterion(name, geometry, rounds, formula, limit) -> CriterionResult:
    t0 = time.perf_counter()
    worst, ran = -math.inf, 0
    # the blobs are separated by the first stump; the noisy set runs every round
    for data in (gen_blobs(0, 200, 0.3), gen_noisy(0, 200, 0.1)):
        result = run(BoosterConfig(Algorithm.MABOOST_ACTIVE, geometry, rounds), data)
        worst = max(worst, _recheck(result, data.n)[1])
        ran += len(result.traces)
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        name,
        f"error - {formula} <= {bounds.SLACK:g}, runtime < {limit:g} s",
        f"worst gap {worst:.3g} over {ran} rounds, {elapsed:.2f} s",
        bounds.within(worst, 0.0) and elapsed < limit,
        elapsed,
    )


def criterion_thm1_entropy() -> CriterionResult:
    return _thm1_criterion("thm1-entropy", NEGATIVE_ENTROPY, 200, "exp(-sum gamma^2/2)", 5.0)


def criterion_thm1_quadratic() -> CriterionResult:
    return _thm1_criterion("thm1-quadratic", QUADRATIC, 500, "1/(1 + sum gamma^2)", 10.0)


def criterion_lazy_bounds() -> CriterionResult:
    t0 = time.perf_counter()
    worst = -math.inf
    rounds = 0
    for data in (gen_blobs(0, 200, 0.3), gen_noisy(0, 200, 0.1)):
        for geometry, budget in ((NEGATIVE_ENTROPY, 200), (QUADRATIC, 500)):
            result = run(
                BoosterConfig(Algorithm.MABOOST_LAZY, geometry, budget), data
            )
            worst = max(worst, _recheck(result, data.n)[1])
            rounds += len(result.traces)
    return CriterionResult(
        "lazy-bounds",
        f"lazy updates meet the same round-by-round bounds, gap <= {bounds.SLACK:g}",
        f"worst gap {worst:.3g} over {rounds} rounds",
        bounds.within(worst, 0.0),
        time.perf_counter() - t0,
    )


def criterion_smooth_regime() -> CriterionResult:
    t0 = time.perf_counter()
    k = 20.0
    data = gen_blobs(0, 200, 0.3)
    result = run(
        BoosterConfig(
            Algorithm.SMOOTH, NEGATIVE_ENTROPY, 500, target_error=1.0 / k, k=k
        ),
        data,
    )
    gamma_obs = min(tr.gamma for tr in result.traces)
    round_budget = math.ceil(2.0 * math.log(k) / gamma_obs**2) + 1
    reached_at = next(
        (tr.t for tr in result.traces if tr.train_error <= 1.0 / k), None
    )
    cap_ok = all(tr.max_weight <= k / 200 + 1e-15 for tr in result.traces)
    passed = reached_at is not None and reached_at <= round_budget and cap_ok
    return CriterionResult(
        "smooth-regime",
        f"error <= 1/k within {round_budget} rounds; max weight <= k/N",
        f"reached at round {reached_at}; caps respected: {cap_ok}",
        passed,
        time.perf_counter() - t0,
    )


def criterion_combined_sets() -> CriterionResult:
    t0 = time.perf_counter()
    data = gen_combined(0, 150, 50, 0.3)
    result = run(
        BoosterConfig(
            Algorithm.COMBINED, NEGATIVE_ENTROPY, 500, target_error=0.02, k=4.0
        ),
        data,
    )
    final = result.traces[-1]
    passed = final.eps_b <= 0.25
    return CriterionResult(
        "combined-sets",
        "eps_B <= 0.25 within 500 rounds (hard); eps_A <= 0.02 (soft report)",
        f"eps_B {final.eps_b:.3g}, eps_A {final.eps_a:.3g} after {len(result.traces)} rounds",
        passed,
        time.perf_counter() - t0,
    )


def criterion_sparse_thm4() -> CriterionResult:
    t0 = time.perf_counter()
    n = 200
    problems = []
    for mode in (AlphaMode.ZERO, AlphaMode.HALF):
        for data in (gen_blobs(0, n, 0.3), gen_noisy(0, n, 0.1)):
            result = run(
                BoosterConfig(Algorithm.SPARSE, QUADRATIC, 100, alpha_mode=mode),
                data,
            )
            broken, _ = _recheck(result, n, half=mode is AlphaMode.HALF)
            problems += [f"{mode.value}-mode {check}" for check in broken]
    half_noisy = run(
        BoosterConfig(Algorithm.SPARSE, QUADRATIC, 50, alpha_mode=AlphaMode.HALF),
        gen_noisy(0, n, 0.1),
    )
    min_nnz = min(tr.nnz for tr in half_noisy.traces)
    if min_nnz >= n:
        problems.append("half-mode produced no sparsity within 50 rounds")
    return CriterionResult(
        "sparse-thm4",
        "c-weighted bound each round; ||y||_1 >= 1/N while erring; half-mode nnz < N",
        f"violations: {problems or 'none'}; min nnz {min_nnz}/{n}",
        not problems,
        time.perf_counter() - t0,
    )


def criterion_mada_thm5() -> CriterionResult:
    t0 = time.perf_counter()
    n = 200
    problems = []
    for data in (gen_blobs(0, n, 0.3), gen_noisy(0, n, 0.1)):
        result = run(BoosterConfig(Algorithm.MADA, NEGATIVE_ENTROPY, 500), data)
        problems += _recheck(result, n)[0]
    return CriterionResult(
        "mada-thm5",
        "||y||_1 >= N * error and error^2 <= 1/(t * gamma_min^2) every round",
        f"violations: {problems or 'none'}",
        not problems,
        time.perf_counter() - t0,
    )


def criterion_maxmargin_thm2() -> CriterionResult:
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
    passed = margin >= gamma_min - nu and margin > 0 and elapsed < 30.0
    return CriterionResult(
        "maxmargin-thm2",
        f"margin >= gamma_min - nu = {gamma_min - nu:.3g} and margin > 0, runtime < 30 s",
        f"margin {margin:.4g} after {len(result.traces)} rounds, {elapsed:.1f} s",
        passed,
        elapsed,
    )


def _random_entropic_point(rng, dim):
    return np.exp(rng.normal(size=dim))


def _random_simplex_point(rng, dim):
    v = _random_entropic_point(rng, dim)
    return v / v.sum()


def criterion_projection_oracles() -> CriterionResult:
    t0 = time.perf_counter()
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
    return CriterionResult(
        "projection-oracles",
        "all projections match numeric minimizers (1e-6); lemma checks hold",
        f"violations: {problems[:3] or 'none'} ({len(problems)} total)",
        not problems,
        time.perf_counter() - t0,
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


def criterion_adaboost_degeneration() -> CriterionResult:
    t0 = time.perf_counter()
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
    return CriterionResult(
        "adaboost-degeneration",
        "active entropic round equals the multiplicative-weights round to 1e-10",
        f"max coordinate gap {gap:.3g}",
        gap <= 1e-10,
        time.perf_counter() - t0,
    )


def criterion_cli_determinism() -> CriterionResult:
    t0 = time.perf_counter()
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
    return CriterionResult(
        "cli-determinism",
        "two identical train invocations yield byte-identical trace and model",
        f"identical: {identical}",
        identical,
        time.perf_counter() - t0,
    )


CRITERIA = [
    ("thm1-entropy", criterion_thm1_entropy),
    ("thm1-quadratic", criterion_thm1_quadratic),
    ("lazy-bounds", criterion_lazy_bounds),
    ("smooth-regime", criterion_smooth_regime),
    ("combined-sets", criterion_combined_sets),
    ("sparse-thm4", criterion_sparse_thm4),
    ("mada-thm5", criterion_mada_thm5),
    ("maxmargin-thm2", criterion_maxmargin_thm2),
    ("projection-oracles", criterion_projection_oracles),
    ("adaboost-degeneration", criterion_adaboost_degeneration),
    ("cli-determinism", criterion_cli_determinism),
]


def run_bench(criterion: str | None = None) -> list[CriterionResult]:
    names = [name for name, _ in CRITERIA]
    if criterion is not None:
        if criterion not in names:
            raise ConfigurationError(
                f"unknown criterion {criterion!r}; known: {', '.join(names)}"
            )
        selected = [(n, f) for n, f in CRITERIA if n == criterion]
    else:
        selected = CRITERIA
    return [fn() for _, fn in selected]
