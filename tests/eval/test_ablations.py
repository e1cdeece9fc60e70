"""Tests for the ablation drivers and Pareto analysis."""

from __future__ import annotations

import pytest

from repro.eval import (
    DesignPoint,
    dvfs_ablation,
    enmax_sensitivity,
    evaluate_designs,
    jitter_ablation,
    pareto_frontier,
    quantization_ablation,
    rt_k_sensitivity,
    scheduler_ablation,
)


class TestSchedulerAblation:
    def test_three_rows(self):
        rows = scheduler_ablation()
        assert [r.setting for r in rows] == [
            "latency_greedy", "round_robin", "edf",
        ]

    def test_scores_bounded(self):
        for row in scheduler_ablation():
            assert 0.0 <= row.overall <= 1.0


class TestJitterAblation:
    def test_rows(self):
        rows = jitter_ablation(seeds=5)
        assert [r.setting for r in rows] == ["jitter_mean", "jitter_spread"]

    def test_spread_small_but_measurable(self):
        mean, spread = jitter_ablation(seeds=8)
        # Sub-ms jitter perturbs scores only mildly on a stable scenario.
        assert 0.0 <= spread.overall < 0.3
        assert 0.3 < mean.overall <= 1.0


class TestRtKSensitivity:
    def test_rows_per_k(self):
        rows = rt_k_sensitivity(ks=(1.0, 50.0))
        assert [r.detail for r in rows] == [1.0, 50.0]

    def test_softer_k_boosts_violating_workload(self):
        # AR gaming on J misses deadlines; a soft sigmoid forgives more.
        rows = rt_k_sensitivity(ks=(1.0, 50.0))
        soft, sharp = rows
        assert soft.rt >= sharp.rt


class TestEnmaxSensitivity:
    def test_larger_budget_higher_score(self):
        rows = enmax_sensitivity(enmaxes=(500.0, 4500.0))
        tight, loose = rows
        assert loose.overall >= tight.overall


class TestDvfsAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return dvfs_ablation()

    def test_covers_all_models(self, result):
        assert len(result) == 11

    def test_savings_nonnegative_when_feasible(self, result):
        for code, row in result.items():
            if row["chosen_frequency"] <= 1.0:
                assert row["energy_saving"] >= -1e-9, code

    def test_light_models_run_eco(self, result):
        # KD has 333 ms of slack and sub-ms latency: eco always fits.
        assert result["KD"]["chosen_frequency"] == 0.5
        assert result["KD"]["energy_saving"] > 0.3

    def test_pd_cannot_slow_down(self, result):
        # PD barely misses its deadline at nominal: DVFS must not pick a
        # slower point.
        assert result["PD"]["chosen_frequency"] >= 1.0

    def test_suite_saves_on_average(self, result):
        # Most models have slack to burn.
        savings = [row["energy_saving"] for row in result.values()]
        assert sum(savings) / len(savings) > 0.1

    def test_scaled_latency_consistent(self, result):
        for row in result.values():
            expected = row["nominal_latency_ms"] / row["chosen_frequency"]
            assert row["scaled_latency_ms"] == pytest.approx(expected)


class TestQuantizationAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return quantization_ablation(codes=("KD", "AS"), bit_widths=(8, 4))

    def test_structure(self, result):
        assert set(result) == {"KD", "AS"}
        assert set(result["KD"]) == {8, 4}

    def test_int8_passes_int4_degrades(self, result):
        int8, int4 = result["KD"][8], result["KD"][4]
        assert int8["accuracy_score"] >= int4["accuracy_score"]
        assert int8["meets_goal"] == 1.0

    def test_int8_scores_at_least_int4(self, result):
        assert result["AS"][8]["accuracy_score"] >= (
            result["AS"][4]["accuracy_score"]
        )


class TestPareto:
    def make(self, score, energy, drops, acc="X"):
        return DesignPoint(acc, 4096, score, energy, drops)

    def test_dominance(self):
        good = self.make(0.9, 100.0, 0.0)
        bad = self.make(0.5, 200.0, 0.1)
        assert good.dominates(bad)
        assert not bad.dominates(good)

    def test_tradeoff_points_incomparable(self):
        fast = self.make(0.9, 300.0, 0.0)
        frugal = self.make(0.6, 100.0, 0.0)
        assert not fast.dominates(frugal)
        assert not frugal.dominates(fast)

    def test_frontier_excludes_dominated(self):
        a = self.make(0.9, 100.0, 0.0, "A")
        b = self.make(0.8, 150.0, 0.1, "B")  # dominated by A
        c = self.make(0.5, 50.0, 0.0, "C")   # cheaper: on the frontier
        frontier = pareto_frontier([a, b, c])
        ids = [p.acc_id for p in frontier]
        assert ids == ["A", "C"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no design"):
            pareto_frontier([])

    def test_duplicate_points_both_survive(self):
        # Dominance needs strict improvement somewhere, so exact ties
        # never knock each other out.
        a = self.make(0.9, 100.0, 0.0, "A")
        b = self.make(0.9, 100.0, 0.0, "B")
        assert not a.dominates(b)
        assert not b.dominates(a)
        frontier = pareto_frontier([a, b])
        assert {p.acc_id for p in frontier} == {"A", "B"}

    def test_single_point_frontier(self):
        only = self.make(0.5, 500.0, 0.3, "Z")
        assert pareto_frontier([only]) == [only]

    def test_axis_tie_resolved_by_other_axes(self):
        # Equal score; the cheaper design dominates on the remaining
        # axes and the tie does not save the loser.
        cheap = self.make(0.7, 100.0, 0.0, "A")
        dear = self.make(0.7, 200.0, 0.0, "B")
        assert cheap.dominates(dear)
        assert not dear.dominates(cheap)
        assert [p.acc_id for p in pareto_frontier([cheap, dear])] == ["A"]

    def test_dominates_is_irreflexive(self):
        p = self.make(0.7, 100.0, 0.1)
        assert not p.dominates(p)

    def test_dominates_is_antisymmetric(self):
        pool = [
            self.make(0.9, 100.0, 0.0),
            self.make(0.9, 100.0, 0.1),
            self.make(0.5, 100.0, 0.0),
            self.make(0.9, 200.0, 0.0),
            self.make(0.5, 200.0, 0.1),
        ]
        for p in pool:
            for q in pool:
                assert not (p.dominates(q) and q.dominates(p))

    def test_qoe_point_space(self):
        from repro.eval import QoePoint

        better = QoePoint("degrade", qoe=0.5, throughput_rps=400.0,
                          energy_mj=100.0)
        worse = QoePoint("shed", qoe=0.3, throughput_rps=300.0,
                         energy_mj=120.0)
        trade = QoePoint("none", qoe=0.45, throughput_rps=420.0,
                         energy_mj=130.0)
        assert better.dominates(worse)
        assert not better.dominates(trade)  # higher throughput saves it
        frontier = pareto_frontier([better, worse, trade])
        assert [p.label for p in frontier] == ["degrade", "none"]

    def test_evaluate_designs_small(self):
        points = evaluate_designs(
            acc_ids=("A", "C"), total_pes=4096
        )
        assert len(points) == 2
        frontier = pareto_frontier(points)
        assert frontier  # at least one non-dominated design
        for p in points:
            assert 0.0 <= p.xrbench_score <= 1.0
            assert p.mean_energy_mj > 0
