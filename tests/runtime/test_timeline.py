"""Tests for timeline extraction and rendering."""

from __future__ import annotations

import pytest
from sim_helpers import run_single

from repro.costmodel import CostTable
from repro.hardware import build_accelerator
from repro.runtime import (
    LatencyGreedyScheduler,
    extract_timeline,
    render_timeline,
)
from repro.workload import get_scenario


@pytest.fixture(scope="module")
def result():
    return run_single(
        get_scenario("ar_gaming"),
        build_accelerator("J", 8192),
        LatencyGreedyScheduler(),
        duration_s=1.0,
        costs=CostTable(),
    )


class TestExtract:
    def test_one_lane_per_engine(self, result):
        lanes = extract_timeline(result)
        assert set(lanes) == {0, 1}

    def test_segments_sorted_and_disjoint(self, result):
        for segments in extract_timeline(result).values():
            for a, b in zip(segments, segments[1:]):
                assert a.start_s <= b.start_s
                assert a.end_s <= b.start_s + 1e-12

    def test_segment_count_matches_completions(self, result):
        lanes = extract_timeline(result)
        total = sum(len(s) for s in lanes.values())
        assert total == len(result.completed())

    def test_segment_durations_positive(self, result):
        for segments in extract_timeline(result).values():
            assert all(s.duration_s > 0 for s in segments)


class TestRender:
    def test_has_row_per_engine(self, result):
        text = render_timeline(result, width=50)
        assert text.count("|") == 2 * result.system.num_subs

    def test_row_width(self, result):
        lines = render_timeline(result, width=40).splitlines()[1:]
        for line in lines:
            start = line.index("|")
            assert line[start:].count("|") == 2
            assert len(line[start + 1 : line.rindex("|")]) == 40

    def test_model_initials_present(self, result):
        text = render_timeline(result, width=80)
        # AR gaming runs HT, DE, PD: H, D, P initials must appear.
        assert "P" in text and "D" in text and "H" in text

    def test_invalid_until_raises(self, result):
        with pytest.raises(ValueError, match="until_s"):
            render_timeline(result, until_s=0.0)
