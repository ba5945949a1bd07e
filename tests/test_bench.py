"""The acceptance bench's criterion table and its recheck of broken bounds."""

import re

from mirrorboost import bench, bounds
from mirrorboost.bench import CRITERIA, run_bench
from mirrorboost.boosting import Algorithm, AlphaMode, BoosterConfig
from mirrorboost.data import gen_combined
from mirrorboost.geometry import NEGATIVE_ENTROPY


def test_criterion_table_is_pinned():
    assert [name for name, _ in CRITERIA] == [
        "thm1-entropy",
        "thm1-quadratic",
        "lazy-bounds",
        "smooth-regime",
        "combined-sets",
        "sparse-thm4",
        "mada-thm5",
        "maxmargin-thm2",
        "projection-oracles",
        "adaboost-degeneration",
        "cli-determinism",
    ]
    [result] = run_bench("thm1-entropy")
    assert result.name == "thm1-entropy" and result.seconds > 0


def _corrupted(monkeypatch, damage):
    """Make the bench's runs pass through ``damage(result)`` after the trainer checked them."""
    train = bench.run

    def damaged_run(config, data):
        result = train(config, data)
        damage(result)
        return result

    monkeypatch.setattr(bench, "run", damaged_run)


def _set_last(key, value):
    return lambda result: setattr(result.traces[-1], key, value)


def test_broken_check_names_its_run(monkeypatch):
    # the trainer checks its own rounds, so the records are corrupted after it
    _corrupted(monkeypatch, _set_last("train_error", 1.0))
    [result] = run_bench("sparse-thm4")
    assert not result.passed
    assert "half-mode sparse-training-error broken at round 100 on noisy" in result.observed


def test_combined_sets_names_a_broken_primary_bound(monkeypatch):
    _corrupted(monkeypatch, _set_last("eps_a", 1.0))
    [result] = run_bench("combined-sets")
    assert not result.passed
    assert "combined-primary-error (entropy) broken at round 500 on combined" in result.observed


def test_recheck_criteria_report_rounds_and_time_without_infinities():
    # mada and max-margin have no bound column, so no gap; combined-sets is red on eps_B alone
    names = ["thm1-entropy", "thm1-quadratic", "lazy-bounds", "smooth-regime", "combined-sets",
             "sparse-thm4", "mada-thm5", "maxmargin-thm2"]
    results = {name: run_bench(name)[0] for name in names}
    for name, result in results.items():
        assert "inf" not in result.expected + result.observed
        assert " rounds, " in result.observed and result.observed.endswith("violations: none")
        assert result.passed == (name != "combined-sets")
    gap = re.search(r"worst gap (\S+) over", results["combined-sets"].observed)
    assert float(gap.group(1)) <= bounds.SLACK
    assert "worst gap" in results["lazy-bounds"].observed
    assert "worst gap" not in results["mada-thm5"].observed + results["maxmargin-thm2"].observed
    assert "runtime" not in results["mada-thm5"].expected + results["lazy-bounds"].expected


def test_smooth_regime_fails_on_a_weight_above_k_over_n(monkeypatch):
    _corrupted(monkeypatch, _set_last("max_weight", 21.0 / 200))
    [result] = run_bench("smooth-regime")
    assert not result.passed and "caps respected: False" in result.observed


def test_sparse_thm4_fails_when_half_mode_keeps_every_weight(monkeypatch):
    def dense(result):
        if result.config.alpha_mode is AlphaMode.HALF:
            for tr in result.traces:
                tr.nnz = result.n

    _corrupted(monkeypatch, dense)
    [result] = run_bench("sparse-thm4")
    assert not result.passed and "min nnz 200/200" in result.observed


def test_maxmargin_thm2_fails_on_a_last_margin_below_its_floor(monkeypatch):
    _corrupted(monkeypatch, _set_last("margin", 0.5))  # the floor is 0.796
    [result] = run_bench("maxmargin-thm2")
    assert not result.passed and "margin 0.5" in result.observed


def test_combined_sets_is_red_on_eps_b_alone(monkeypatch):
    _corrupted(monkeypatch, _set_last("eps_b", 0.25))
    [result] = run_bench("combined-sets")
    assert result.passed and "eps_B 0.25" in result.observed


def test_combined_worst_gap_is_on_the_error_its_bound_covers():
    # combined-sets' run: its primary bound covers eps_A, which it never exceeds,
    # while its train_error stands 0.075 above it
    config = BoosterConfig(Algorithm.COMBINED, NEGATIVE_ENTROPY, 500, target_error=0.02, k=4.0)
    broken, worst, [result] = bench._recheck_runs(
        config, datasets=[("combined", gen_combined(0, 150, 50, 0.3))])
    assert not broken and worst <= bounds.SLACK
    assert max(tr.train_error - tr.bound for tr in result.traces) > 0.05
