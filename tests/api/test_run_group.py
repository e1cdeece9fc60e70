"""Runs through both doors of the one runner.

A named scenario runs as a :class:`RunSpec` through ``execute``; a live
scenario object a spec cannot name runs as a :class:`SessionSpec`
through ``run_group``, the runner ``execute`` ends in.
"""

from __future__ import annotations

import pytest

from repro.api import RunSpec, execute, run_group
from repro.runtime import SessionSpec
from repro.workload import SCENARIO_ORDER, get_scenario

SHORT = RunSpec(scenario="vr_gaming", accelerator="J", duration_s=0.5)


class TestSingleScenario:
    def test_named_spec_matches_scenario_object(self, hda_j_4k):
        by_name = execute(SHORT)
        by_object = run_group(
            [SessionSpec(session_id=0, scenario=get_scenario("vr_gaming"))],
            hda_j_4k, duration_s=0.5,
        ).session_reports[0]
        assert by_name.overall == by_object.overall

    def test_scheduler_choice_affects_results(self):
        spec = RunSpec(scenario="ar_gaming", accelerator="J")
        greedy = execute(spec)
        rr = execute(spec.replace(scheduler="round_robin"))
        # Round-robin ignores engine fit; on a heterogeneous (HDA) system
        # under load it cannot beat latency-greedy.
        assert rr.overall <= greedy.overall + 0.05


class TestSessionGroups:
    def test_four_session_multiplex_reports_per_session_qoe(self):
        report = execute(SHORT.replace(sessions=4))
        assert len(report.session_reports) == 4
        for session_report in report.session_reports:
            assert 0.0 <= session_report.score.qoe <= 1.0
        summary = report.summary()
        assert "4 sessions of vr_gaming" in summary
        assert "session 3:" in summary
        assert 0.0 <= report.mean_overall <= 1.0

    def test_session_lookup(self):
        report = execute(SHORT.replace(sessions=2))
        assert report.session(1).simulation.session_id == 1
        with pytest.raises(KeyError):
            report.session(9)

    def test_mixed_scenario_tuple(self):
        report = execute(SHORT.replace(scenario=("vr_gaming", "ar_assistant")))
        names = [
            r.simulation.scenario.name for r in report.session_reports
        ]
        assert names == ["vr_gaming", "ar_assistant"]

    def test_segment_granularity(self):
        report = execute(SHORT.replace(
            scenario="ar_gaming", sessions=2, granularity="segment",
        ))
        assert any(r.num_segments > 1 for r in report.result.records)

    def test_cost_cache_hits_within_a_run(self):
        report = execute(SHORT.replace(sessions=2))
        stats = report.result.cost_stats
        assert stats is not None and stats.hit_rate > 0.5

    def test_empty_group_rejected(self, hda_j_4k):
        with pytest.raises(ValueError, match="at least one session"):
            run_group([], hda_j_4k)


class TestSuite:
    @pytest.fixture(scope="class")
    def suite(self):
        return execute(RunSpec.for_suite("A", duration_s=0.5))

    def test_covers_all_scenarios(self, suite):
        names = [r.simulation.scenario.name for r in suite.scenario_reports]
        assert names == list(SCENARIO_ORDER)

    def test_xrbench_score_is_mean(self, suite):
        mean = sum(r.overall for r in suite.scenario_reports) / 7
        assert suite.xrbench_score == pytest.approx(mean)

    def test_scenario_lookup(self, suite):
        assert suite.scenario("ar_gaming").simulation.scenario.name == (
            "ar_gaming"
        )
        with pytest.raises(KeyError):
            suite.scenario("nope")

    def test_runs_share_the_cost_store(self):
        # The cost store is process-wide: a second run of the same
        # workload analyses nothing new.
        from repro.costmodel import cached

        spec = SHORT.replace(accelerator="A")
        execute(spec)
        size_before = len(cached._STORE)
        execute(spec)
        assert len(cached._STORE) == size_before
