"""Tests for the benchmark harness."""

from __future__ import annotations

import pytest

from repro.core import Harness, HarnessConfig, ScoreConfig
from repro.workload import SCENARIO_ORDER, get_scenario


class TestConfigValidation:
    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError, match="duration"):
            HarnessConfig(duration_s=0.0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            HarnessConfig(seed=-1)

    def test_rejects_bad_score_config(self):
        with pytest.raises(ValueError, match="rt_k"):
            ScoreConfig(rt_k=-1)
        with pytest.raises(ValueError, match="energy_max"):
            ScoreConfig(energy_max_mj=0)
        with pytest.raises(ValueError, match="acc_epsilon"):
            ScoreConfig(acc_epsilon=0)


class TestRunScenario:
    def test_accepts_name_or_object(self, short_harness, fda_ws_4k):
        by_name = short_harness.run_scenario("vr_gaming", fda_ws_4k)
        by_obj = short_harness.run_scenario(
            get_scenario("vr_gaming"), fda_ws_4k
        )
        assert by_name.overall == pytest.approx(by_obj.overall)

    def test_unknown_scenario_raises(self, short_harness, fda_ws_4k):
        with pytest.raises(KeyError, match="unknown scenario"):
            short_harness.run_scenario("nope", fda_ws_4k)

    def test_seed_override(self, short_harness, fda_ws_4k):
        a = short_harness.run_scenario("vr_gaming", fda_ws_4k, seed=1)
        b = short_harness.run_scenario("vr_gaming", fda_ws_4k, seed=1)
        assert a.overall == pytest.approx(b.overall)

    def test_scheduler_choice_affects_results(self, hda_j_4k):
        greedy = Harness(
            config=HarnessConfig(scheduler="latency_greedy"),
        ).run_scenario("ar_gaming", hda_j_4k)
        rr = Harness(
            config=HarnessConfig(scheduler="round_robin")
        ).run_scenario("ar_gaming", hda_j_4k)
        # Round-robin ignores engine fit; on a heterogeneous (HDA) system
        # under load it cannot beat latency-greedy.
        assert rr.overall <= greedy.overall + 0.05


class TestRunSessions:
    def test_four_session_multiplex_reports_per_session_qoe(
        self, short_harness, hda_j_4k
    ):
        report = short_harness.run_sessions("vr_gaming", hda_j_4k,
                                            num_sessions=4)
        assert len(report.session_reports) == 4
        for session_report in report.session_reports:
            assert 0.0 <= session_report.score.qoe <= 1.0
        summary = report.summary()
        assert "4 sessions of vr_gaming" in summary
        assert "session 3:" in summary
        assert 0.0 <= report.mean_overall <= 1.0

    def test_session_lookup(self, short_harness, hda_j_4k):
        report = short_harness.run_sessions("vr_gaming", hda_j_4k,
                                            num_sessions=2)
        assert report.session(1).simulation.session_id == 1
        with pytest.raises(KeyError):
            report.session(9)

    def test_mixed_scenario_sequence(self, short_harness, hda_j_4k):
        report = short_harness.run_sessions(
            ["vr_gaming", "ar_assistant"], hda_j_4k
        )
        names = [
            r.simulation.scenario.name for r in report.session_reports
        ]
        assert names == ["vr_gaming", "ar_assistant"]

    def test_segment_granularity_through_harness(
        self, short_harness, hda_j_4k
    ):
        report = short_harness.run_sessions(
            "ar_gaming", hda_j_4k, num_sessions=2, granularity="segment"
        )
        assert any(
            r.num_segments > 1 for r in report.result.records
        )

    def test_cost_cache_layered_over_harness_table(
        self, short_harness, hda_j_4k
    ):
        report = short_harness.run_sessions("vr_gaming", hda_j_4k,
                                            num_sessions=2)
        stats = report.result.cost_stats
        assert stats is not None and stats.hit_rate > 0.5

    def test_empty_sequence_rejected(self, short_harness, hda_j_4k):
        with pytest.raises(ValueError, match="at least one session"):
            short_harness.run_sessions([], hda_j_4k)


class TestRunSuite:
    def test_covers_all_scenarios(self, short_harness, fda_ws_4k):
        report = short_harness.run_suite(fda_ws_4k)
        names = [r.simulation.scenario.name for r in report.scenario_reports]
        assert names == list(SCENARIO_ORDER)

    def test_xrbench_score_is_mean(self, short_harness, fda_ws_4k):
        report = short_harness.run_suite(fda_ws_4k)
        mean = sum(r.overall for r in report.scenario_reports) / 7
        assert report.xrbench_score == pytest.approx(mean)

    def test_scenario_lookup(self, short_harness, fda_ws_4k):
        report = short_harness.run_suite(fda_ws_4k)
        assert report.scenario("ar_gaming").simulation.scenario.name == (
            "ar_gaming"
        )
        with pytest.raises(KeyError):
            report.scenario("nope")

    def test_runs_share_the_cost_store(self, fda_ws_4k):
        # The cost store is process-wide: a second run of the same
        # workload analyses nothing new.
        from repro.costmodel import cached

        harness = Harness(config=HarnessConfig(duration_s=0.5))
        harness.run_scenario("vr_gaming", fda_ws_4k)
        size_before = len(cached._STORE)
        harness.run_scenario("vr_gaming", fda_ws_4k)
        assert len(cached._STORE) == size_before
