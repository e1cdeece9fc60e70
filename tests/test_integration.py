"""End-to-end integration tests: the paper's headline claims.

These tie the whole stack together — zoo -> cost model -> hardware ->
runtime -> scoring — and assert the qualitative *shapes* of the paper's
evaluation (Sections 4.2-4.4), which this reproduction targets.
"""

from __future__ import annotations

import pytest

from repro import RunSpec, execute
from repro.workload import SCENARIO_ORDER


def run(scenario, acc, pes, **fields):
    return execute(
        RunSpec(scenario=scenario, accelerator=acc, pes=pes, **fields)
    )


def run_suite(acc, pes):
    return execute(RunSpec.for_suite(acc, pes=pes))


@pytest.fixture(scope="module")
def sweep():
    """Overall scores for all 13 accelerators x 7 scenarios x 2 budgets."""
    return {
        (acc, pes, scenario): run(scenario, acc, pes).score.overall
        for pes in (4096, 8192)
        for acc in "ABCDEFGHIJKLM"
        for scenario in SCENARIO_ORDER
    }


class TestSection422_OverallScoreNecessary:
    """4.2: single metrics mislead; the overall score composes them."""

    def test_4k_j_ar_gaming_fails(self):
        report = run("ar_gaming", "J", 4096)
        s = report.score
        # Heavy drops, deep deadline violations, low overall (paper: 0).
        assert report.simulation.frame_drop_rate() > 0.25
        assert s.rt < 0.45
        assert s.overall < 0.35

    def test_8k_j_ar_gaming_works(self):
        report = run("ar_gaming", "J", 8192)
        s = report.score
        # Few/no drops; PD still misses its deadline (paper RT 0.68).
        assert report.simulation.frame_drop_rate() < 0.15
        assert s.qoe > 0.9
        assert s.model("PD").mean_unit("rt") < 0.1
        assert s.overall > 0.3

    def test_high_rt_does_not_imply_high_overall(self, sweep):
        # An accelerator can ace real-time yet lose on energy/QoE: compare
        # per-unit breakdowns on a light scenario.
        report = run("outdoor_activity_a", "A", 8192)
        s = report.score
        assert s.rt > 0.95
        assert s.overall < s.rt  # energy multiplies in


class TestSection422_UtilizationWrongMetric:
    def test_utilization_anticorrelates_with_experience(self):
        small = run("ar_gaming", "J", 4096)
        big = run("ar_gaming", "J", 8192)
        # The busier system delivers the worse experience.
        assert small.simulation.mean_utilization() >= (
            big.simulation.mean_utilization() - 0.02
        )
        assert small.score.overall < big.score.overall

    def test_pd_starves_on_4k(self):
        report = run("ar_gaming", "J", 4096)
        pd = report.score.model("PD")
        assert pd.qoe < 0.75  # paper: PD QoE collapses on the 4K system


class TestSection43_ScenarioDiversity:
    def test_different_scenarios_prefer_different_accelerators(self, sweep):
        # Observation 1: the best style differs across workloads.
        winners = set()
        for scenario in SCENARIO_ORDER:
            best = max("ABCDEFGHIJKLM",
                       key=lambda a: sweep[(a, 4096, scenario)])
            winners.add(best)
        assert len(winners) >= 3

    def test_quads_collapse_on_eye_scenarios_at_4k(self, sweep):
        # 1K-PE engines cannot hold the 60 FPS eye pipeline.
        for quad in "GHI":
            assert sweep[(quad, 4096, "vr_gaming")] < 0.35
        assert sweep[("A", 4096, "vr_gaming")] > 0.7

    def test_scenarios_recover_at_8k(self, sweep):
        for scenario in SCENARIO_ORDER:
            for acc in "ABCDEFGHIJKLM":
                assert (
                    sweep[(acc, 8192, scenario)]
                    >= sweep[(acc, 4096, scenario)] - 0.12
                )


class TestSection44_Observations:
    def test_obs2_winner_changes_with_chip_size(self, sweep):
        # Observation 2: optimal styles depend on the PE budget for at
        # least one scenario.
        changed = [
            scenario
            for scenario in SCENARIO_ORDER
            if max("ABCDEFGHIJKLM", key=lambda a: sweep[(a, 4096, scenario)])
            != max("ABCDEFGHIJKLM", key=lambda a: sweep[(a, 8192, scenario)])
        ]
        assert changed

    def test_obs3_multi_acc_wins_many_model_scenario(self, sweep):
        # AR assistant (6 models): some multi-accelerator style beats the
        # single-engine FDA of the same dataflow family.
        assert sweep[("I", 4096, "ar_assistant")] > sweep[("C", 4096, "ar_assistant")] - 0.02
        best_multi = max(sweep[(a, 4096, "ar_assistant")] for a in "DEFGHIJKLM")
        best_fda = max(sweep[(a, 4096, "ar_assistant")] for a in "ABC")
        assert best_multi >= best_fda - 0.01

    def test_obs3_fda_wins_few_model_scenario(self, sweep):
        # VR gaming (3 models): the monolithic FDA A tops the quads.
        a = sweep[("A", 4096, "vr_gaming")]
        for quad in "GHIM":
            assert a > sweep[(quad, 4096, "vr_gaming")]


class TestSuiteLevel:
    def test_xrbench_score_reproducible(self):
        a = run_suite("J", 8192).xrbench_score
        b = run_suite("J", 8192).xrbench_score
        assert a == pytest.approx(b)

    def test_8k_beats_4k_overall(self):
        for acc in ("A", "J", "M"):
            small = run_suite(acc, 4096)
            big = run_suite(acc, 8192)
            assert big.xrbench_score >= small.xrbench_score - 0.02

    def test_all_scores_in_unit_interval(self, sweep):
        assert all(0.0 <= v <= 1.0 for v in sweep.values())


class TestSchedulerAblation:
    """The scheduler is a first-class knob (Section 3.5)."""

    def test_edf_competitive_with_greedy(self):
        results = {
            sched: run("ar_gaming", "J", 8192, scheduler=sched).score.overall
            for sched in ("latency_greedy", "edf", "round_robin")
        }
        assert results["edf"] > 0.2
        # Round-robin ignores engine fit on the heterogeneous system.
        assert results["round_robin"] <= max(
            results["latency_greedy"], results["edf"]
        ) + 0.02
