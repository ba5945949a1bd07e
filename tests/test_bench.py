"""The acceptance bench's criterion table and its recheck of broken bounds."""

from mirrorboost import bench, bounds
from mirrorboost.bench import CRITERIA, run_bench
from mirrorboost.boosting import Algorithm, BoosterConfig
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


def test_broken_check_names_its_run(monkeypatch):
    # the trainer checks its own rounds, so the records are corrupted after it
    train = bench.run

    def run_ending_in_error(config, data):
        result = train(config, data)
        result.traces[-1].train_error = 1.0
        return result

    monkeypatch.setattr(bench, "run", run_ending_in_error)
    [result] = run_bench("sparse-thm4")
    assert not result.passed
    assert "half-mode sparse-training-error broken at round 100 on noisy" in result.observed


def test_combined_sets_names_a_broken_primary_bound(monkeypatch):
    train = bench.run

    def run_ending_in_error(config, data):
        result = train(config, data)
        result.traces[-1].eps_a = 1.0
        return result

    monkeypatch.setattr(bench, "run", run_ending_in_error)
    [result] = run_bench("combined-sets")
    assert not result.passed
    assert "combined-primary-error (entropy) broken at round 500 on combined" in result.observed


def test_recheck_criteria_report_rounds_and_time_without_infinities():
    # mada has no bound column, so no gap; only the thm1 criteria have a time limit
    [mada, lazy] = [run_bench(name)[0] for name in ("mada-thm5", "lazy-bounds")]
    for result in (mada, lazy):
        assert result.passed and "inf" not in result.expected + result.observed
        assert " rounds, " in result.observed and result.observed.endswith("violations: none")
    assert "worst gap" in lazy.observed and "worst gap" not in mada.observed
    assert "runtime" not in mada.expected + lazy.expected


def test_combined_worst_gap_is_on_the_error_its_bound_covers():
    # combined-sets' run: its primary bound covers eps_A, which it never exceeds,
    # while its train_error stands 0.075 above it
    config = BoosterConfig(Algorithm.COMBINED, NEGATIVE_ENTROPY, 500, target_error=0.02, k=4.0)
    broken, worst, [result] = bench._recheck_runs(
        config, datasets=[("combined", gen_combined(0, 150, 50, 0.3))])
    assert not broken and worst <= bounds.SLACK
    assert max(tr.train_error - tr.bound for tr in result.traces) > 0.05
