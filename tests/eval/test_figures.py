"""Tests for the figure drivers (reduced sizes for speed)."""

from __future__ import annotations

import pytest

from repro.api import RunSpec
from repro.eval import (
    best_accelerator,
    format_figure5,
    format_figure6,
    format_figure7,
    format_figure8,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure8,
)
from repro.workload import FramePlan


class TestFigure3:
    """The Social Interaction A deep dive (Section 3.6)."""

    def test_all_models_appear(self, figure3):
        rows, _ = figure3
        assert {r.model_code for r in rows} == {"HT", "ES", "GE", "DR"}

    def test_ge_follows_es(self, figure3):
        """The data dependency: GE frame f starts after ES frame f ends."""
        rows, _ = figure3
        es_end = {
            r.model_frame: r.end_ms for r in rows if r.model_code == "ES"
        }
        for ge in (r for r in rows if r.model_code == "GE"):
            assert ge.model_frame in es_end
            assert ge.start_ms >= es_end[ge.model_frame] - 1e-9

    def test_half_rate_models_skip_frames(self, figure3):
        """HT and DR at 30 FPS consume every other 60 FPS sensor frame."""
        rows, report = figure3
        plan = FramePlan(report.simulation.scenario.get("HT"))
        assert plan.sensor_frame_for(1) == 2
        ht = sorted(
            (r for r in rows if r.model_code == "HT"),
            key=lambda r: r.model_frame,
        )
        assert len(ht) >= 2
        # Consecutive HT frames are ~1/30 s apart in input time.
        assert ht[1].request_ms - ht[0].request_ms == pytest.approx(
            1000 / 30, abs=2.0
        )

    def test_dr_waits_for_lidar(self, figure3):
        """DR's request time is the max of its camera and lidar arrivals."""
        rows, report = figure3
        dr = [r for r in rows if r.model_code == "DR"]
        assert dr
        plan = FramePlan(report.simulation.scenario.get("DR"))
        for row in dr:
            expected = plan.request_time_s(row.model_frame, seed=0) * 1e3
            assert row.request_ms == pytest.approx(expected, abs=1e-6)


class TestFigure5Grid:
    """The full Figure 5 sweep: 13 accelerators x 2 budgets."""

    def test_row_count(self, figure5_grid):
        # 13 accelerators x 2 budgets x (7 scenarios + 1 average).
        assert len(figure5_grid) == 13 * 2 * 8

    def test_ar_gaming_hardest_at_4k(self, figure5_grid):
        """AR gaming (the PD-saturated scenario) has the lowest 4K scores."""
        by_scenario: dict[str, list[float]] = {}
        for row in figure5_grid:
            if row.pe_budget == "4K" and row.scenario != "average":
                by_scenario.setdefault(row.scenario, []).append(row.overall)
        means = {s: sum(v) / len(v) for s, v in by_scenario.items()}
        assert min(means, key=means.get) == "ar_gaming"

    def test_average_panel(self, figure5_grid):
        """Subplot (h): the averages exist for every accelerator."""
        averages = [r for r in figure5_grid if r.scenario == "average"]
        assert len(averages) == 26
        assert all(0.0 < r.overall <= 1.0 for r in averages)


@pytest.fixture(scope="module")
def fig5_rows():
    # Reduced sweep: 3 accelerators, one budget, 2 scenarios.
    return run_figure5(
        acc_ids=("A", "B", "J"),
        pe_budgets={"4K": 4096},
        scenarios=("vr_gaming", "ar_gaming"),
    )


class TestFigure5:
    def test_row_count(self, fig5_rows):
        # 3 accs x (2 scenarios + 1 average).
        assert len(fig5_rows) == 9

    def test_scores_bounded(self, fig5_rows):
        for row in fig5_rows:
            for v in (row.rt, row.energy, row.qoe, row.overall):
                assert 0.0 <= v <= 1.0

    def test_average_rows_present(self, fig5_rows):
        averages = [r for r in fig5_rows if r.scenario == "average"]
        assert len(averages) == 3

    def test_average_is_mean(self, fig5_rows):
        for acc in ("A", "B", "J"):
            per = [r for r in fig5_rows
                   if r.acc_id == acc and r.scenario != "average"]
            avg = next(r for r in fig5_rows
                       if r.acc_id == acc and r.scenario == "average")
            assert avg.overall == pytest.approx(
                sum(r.overall for r in per) / len(per)
            )

    def test_format(self, fig5_rows):
        text = format_figure5(fig5_rows)
        assert "Figure 5" in text and "vr_gaming" in text

    def test_format_rejects_bad_metric(self, fig5_rows):
        with pytest.raises(ValueError, match="metric"):
            format_figure5(fig5_rows, "speed")

    def test_best_accelerator(self, fig5_rows):
        best = best_accelerator(fig5_rows, "vr_gaming", "4K")
        assert best in ("A", "B", "J")

    def test_best_accelerator_missing(self, fig5_rows):
        with pytest.raises(KeyError):
            best_accelerator(fig5_rows, "nope", "4K")

    def test_bars_overwrite_the_base_grid_fields(self, fig5_rows):
        base = RunSpec(scenario="outdoor_activity_b", accelerator="M",
                       pes=8192)
        rows = run_figure5(
            base, acc_ids=("A", "B", "J"), pe_budgets={"4K": 4096},
            scenarios=("vr_gaming", "ar_gaming"),
        )
        assert rows == fig5_rows

    def test_base_score_preset_reaches_every_bar(self, fig5_rows):
        rows = run_figure5(
            RunSpec(scenario="ar_gaming", score_preset="low_power"),
            acc_ids=("A", "B", "J"), pe_budgets={"4K": 4096},
            scenarios=("vr_gaming", "ar_gaming"),
        )
        for low_power, default in zip(rows, fig5_rows):
            assert low_power.energy < default.energy
            assert low_power.rt == default.rt

    def test_rejects_a_session_group_base(self):
        with pytest.raises(ValueError, match="is a sessions run"):
            run_figure5(RunSpec(scenario="ar_gaming", sessions=2))


class TestFigure6:
    def test_both_budgets(self, figure6_results):
        assert set(figure6_results) == {"4K", "8K"}

    def test_paper_shape(self, figure6_results):
        # Section 4.2.2: the 4K system utilises more but drops more and
        # scores worse overall.
        small, big = figure6_results["4K"], figure6_results["8K"]
        assert small.drop_rate > big.drop_rate
        assert small.utilization >= big.utilization - 0.02
        assert small.report.overall < big.report.overall

    def test_drop_rates(self, figure6_results):
        """Paper: 47.1% drops at 4K vs 2.3% at 8K."""
        assert figure6_results["4K"].drop_rate > 0.25
        assert figure6_results["8K"].drop_rate < 0.10

    def test_pd_fails_on_4k(self, figure6_results):
        """The 4K system starves PD (the paper: 'completely fails to run')."""
        pd_4k = figure6_results["4K"].report.score.model("PD")
        assert pd_4k.mean_unit("rt") < 0.05
        assert pd_4k.qoe < 0.75

    def test_8k_rt_limited_by_pd_only(self, figure6_results):
        """8K panel: PD misses deadlines, DE is fine (paper RT 0.68)."""
        score = figure6_results["8K"].report.score
        assert score.model("PD").mean_unit("rt") < 0.1
        assert score.model("DE").mean_unit("rt") > 0.9
        assert 0.3 < score.rt < 0.9

    def test_format(self, figure6_results):
        text = format_figure6(figure6_results)
        assert "4K PEs" in text and "8K PEs" in text
        assert "Realtime" in text and "QoE" in text

    def test_base_score_preset_reaches_both_panels(self, figure6_results):
        low_power = run_figure6(
            RunSpec(scenario="ar_gaming", score_preset="low_power")
        )
        for budget, result in low_power.items():
            default = figure6_results[budget].report.score
            assert result.report.score.energy < default.energy
            assert result.report.score.rt == default.rt

    def test_base_accelerator_runs_both_panels(self):
        results = run_figure6(RunSpec(scenario="ar_gaming", accelerator="A"))
        for budget, total_pes in (("4K", 4096), ("8K", 8192)):
            system = results[budget].report.simulation.system
            assert (system.acc_id, system.total_pes) == ("A", total_pes)

    def test_rejects_a_suite_base(self):
        with pytest.raises(ValueError, match="is a suite run"):
            run_figure6(RunSpec.for_suite("J"))


class TestFigure7:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_figure7(
            acc_ids=("B", "J"), probabilities=(0.25, 1.0), trials=5,
        )

    def test_row_count(self, rows):
        assert len(rows) == 4

    def test_scores_bounded(self, rows):
        for r in rows:
            assert 0.0 <= r.overall <= 1.0

    def test_j_beats_b(self, rows):
        # The paper picked B as the low-score and J as the high-score
        # design for VR gaming.
        b = [r for r in rows if r.acc_id == "B"]
        j = [r for r in rows if r.acc_id == "J"]
        assert min(x.overall for x in j) > max(x.overall for x in b)

    def test_overall_roughly_stable(self, rows):
        """Both designs keep their overall score across the sweep."""
        for acc in ("B", "J"):
            scores = [r.overall for r in rows if r.acc_id == acc]
            assert max(scores) - min(scores) < 0.15, acc

    def test_j_qoe_flat(self, rows):
        qoe = [r.qoe for r in rows if r.acc_id == "J"]
        assert max(qoe) - min(qoe) < 0.05

    def test_qoe_declines_with_probability_on_b(self):
        rows = run_figure7(
            acc_ids=("B",), probabilities=(0.25, 1.0), trials=10,
        )
        assert rows[1].qoe <= rows[0].qoe + 0.01

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            run_figure7(trials=0)

    def test_trials_overwrite_the_base_grid_fields(self, rows):
        base = RunSpec(scenario="ar_gaming", accelerator="M", pes=8192,
                       seed=9)
        assert run_figure7(
            base, acc_ids=("B", "J"), probabilities=(0.25, 1.0), trials=5,
        ) == rows

    @pytest.mark.parametrize("field, value", [
        ("score_preset", "low_power"),
        ("frame_loss", 0.2),
    ])
    def test_base_settings_reach_run_group(self, rows, field, value):
        base = RunSpec(scenario="vr_gaming", **{field: value})
        changed = run_figure7(
            base, acc_ids=("B", "J"), probabilities=(0.25, 1.0), trials=5,
        )
        assert changed != rows

    @pytest.mark.parametrize("field, value", [
        ("dvfs_policy", "race_to_idle"),
        ("sessions", 2),
    ])
    def test_rejects_a_base_that_is_not_single(self, field, value):
        base = RunSpec(scenario="vr_gaming", **{field: value})
        with pytest.raises(ValueError, match="is a sessions run"):
            run_figure7(base, trials=1)

    def test_format(self, rows):
        text = format_figure7(rows)
        assert "Figure 7" in text and "100%" in text


class TestFigure8:
    def test_series_count(self):
        series = run_figure8()
        assert [s.k for s in series] == [0.0, 1.0, 15.0, 50.0]

    def test_k0_flat(self):
        series = run_figure8(ks=(0.0,))
        assert all(s == 0.5 for s in series[0].scores)

    def test_monotone_decreasing(self):
        series = run_figure8(ks=(15.0,))[0]
        assert list(series.scores) == sorted(series.scores, reverse=True)

    def test_larger_k_sharper_at_deadline(self):
        mild, sharp = run_figure8(ks=(1.0, 50.0), points=201)
        # Just past the deadline (latency 1.1 x slack 1.0).
        idx = next(i for i, lat in enumerate(mild.latencies_s) if lat > 1.1)
        assert sharp.scores[idx] < mild.scores[idx]

    def test_curves_cross_half_at_deadline(self):
        """Every sigmoid passes through 0.5 where latency equals the window."""
        for series in run_figure8(ks=(1.0, 15.0, 50.0)):
            idx = series.latencies_s.index(1.0)
            assert series.scores[idx] == pytest.approx(0.5)

    def test_saturates(self):
        (k15,) = run_figure8(ks=(15.0,))
        assert k15.scores[0] > 0.999      # latency 0
        assert k15.scores[-1] < 0.001     # latency 2 s vs 1 s window

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError, match="points"):
            run_figure8(points=1)

    def test_format(self):
        assert "k=15" in format_figure8(run_figure8())
