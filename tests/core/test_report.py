"""Tests for scenario and benchmark reports."""

from __future__ import annotations

import pytest

from repro.api import RunSpec, execute


@pytest.fixture(scope="module")
def vr_report():
    return execute(RunSpec(scenario="vr_gaming", accelerator="A", duration_s=0.5))


@pytest.fixture(scope="module")
def suite_report():
    return execute(RunSpec.for_suite("A", duration_s=0.5))


class TestScenarioReport:
    def test_summary_mentions_everything(self, vr_report):
        text = vr_report.summary()
        assert "vr_gaming" in text
        assert "overall=" in text
        assert "missed deadlines" in text
        for code in ("HT", "ES", "GE"):
            assert code in text

    def test_delay_over_deadline_keys(self, vr_report):
        delays = vr_report.delay_over_deadline_ms()
        assert set(delays) == {"HT", "ES", "GE"}
        assert all(v >= 0 for v in delays.values())

    def test_timeline_renders(self, vr_report):
        text = vr_report.timeline(width=30)
        assert "ms/char" in text

    def test_overall_matches_score(self, vr_report):
        assert vr_report.overall == vr_report.score.overall


class TestBenchmarkReport:
    def test_breakdown_rows(self, suite_report):
        rows = suite_report.breakdown_rows()
        assert len(rows) == 7
        for row in rows:
            for key in ("rt", "energy", "qoe", "overall"):
                assert 0.0 <= row[key] <= 1.0

    def test_summary(self, suite_report):
        text = suite_report.summary()
        assert "XRBench SCORE" in text
        assert "ar_gaming" in text

    def test_score_bounded(self, suite_report):
        assert 0.0 <= suite_report.xrbench_score <= 1.0
