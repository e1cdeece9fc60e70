"""Tests for the multi-tenant runtime engine."""

from __future__ import annotations

from collections import Counter

import pytest
from sim_helpers import replicate, run_single

from repro.core import score_sessions
from repro.hardware import build_accelerator
from repro.runtime import (
    LatencyGreedyScheduler,
    MultiScenarioSimulator,
    SessionSpec,
)
from repro.workload import get_scenario


def multi(scenario="vr_gaming", acc="J", pes=8192, sessions=4, seed=0,
          duration=1.0, **kwargs):
    return replicate(
        get_scenario(scenario),
        build_accelerator(acc, pes),
        LatencyGreedyScheduler(),
        sessions,
        base_seed=seed,
        duration_s=duration,
        **kwargs,
    ).run()


def signature(result):
    return [
        (s.session_id, r.model_code, r.model_frame, r.end_time_s, r.dropped)
        for s in result.sessions
        for r in s.requests
    ]


@pytest.fixture(scope="module")
def four_sessions():
    return multi()


class TestConstruction:
    def test_needs_a_session(self):
        with pytest.raises(ValueError, match="at least one session"):
            MultiScenarioSimulator(
                sessions=[],
                system=build_accelerator("J", 4096),
                scheduler=LatencyGreedyScheduler(),
            )

    def test_rejects_duplicate_ids(self):
        scenario = get_scenario("vr_gaming")
        with pytest.raises(ValueError, match="duplicate session ids"):
            MultiScenarioSimulator(
                sessions=[SessionSpec(0, scenario), SessionSpec(0, scenario)],
                system=build_accelerator("J", 4096),
                scheduler=LatencyGreedyScheduler(),
            )

    def test_rejects_unknown_granularity(self):
        with pytest.raises(ValueError, match="granularity"):
            MultiScenarioSimulator(
                sessions=[SessionSpec(0, get_scenario("vr_gaming"))],
                system=build_accelerator("J", 4096),
                scheduler=LatencyGreedyScheduler(),
                granularity="layer",
            )

    @pytest.mark.parametrize("segments", [1, 3])
    def test_rejects_segment_count_off_segment_granularity(self, segments):
        # Model dispatch splits nothing, so the count would be ignored:
        # one ar_gaming session on J gave identical records with 2 and 3.
        message = (
            f"segments_per_model={segments} only acts at segment granularity"
        )
        with pytest.raises(ValueError, match=message):
            MultiScenarioSimulator(
                sessions=[SessionSpec(0, get_scenario("ar_gaming"))],
                system=build_accelerator("J", 8192),
                scheduler=LatencyGreedyScheduler(),
                duration_s=0.25,
                segments_per_model=segments,
            )

    def test_run_group_rejects_segment_count_off_segment_granularity(self):
        from repro.api import run_group

        with pytest.raises(ValueError, match="only acts at segment"):
            run_group(
                [SessionSpec(0, get_scenario("ar_gaming"))],
                build_accelerator("J", 8192), segments_per_model=3,
            )


class TestMultiplexing:
    def test_per_session_results_and_qoe(self, four_sessions):
        assert four_sessions.num_sessions == 4
        scores = score_sessions(four_sessions)
        assert len(scores) == 4
        for score in scores:
            assert 0.0 <= score.overall <= 1.0
            assert 0.0 <= score.qoe <= 1.0

    def test_sessions_have_distinct_jitter(self, four_sessions):
        times = [
            tuple(r.request_time_s for r in s.requests)
            for s in four_sessions.sessions
        ]
        assert len(set(times)) == 4  # distinct seeds -> distinct streams

    def test_system_busy_is_sum_of_session_busy(self, four_sessions):
        for i in range(four_sessions.system.num_subs):
            contributed = sum(
                s.busy_time_s[i] for s in four_sessions.sessions
            )
            assert four_sessions.busy_time_s[i] == pytest.approx(contributed)

    def test_shared_system_shows_contention(self):
        alone = multi(sessions=1)
        crowded = multi(sessions=4)
        drop = lambda res: sum(  # noqa: E731
            len(s.dropped()) for s in res.sessions
        ) / max(1, sum(len(s.requests) for s in res.sessions))
        assert drop(crowded) >= drop(alone)
        assert crowded.mean_system_utilization() >= (
            alone.mean_system_utilization()
        )

    def test_records_cover_all_sessions(self, four_sessions):
        sessions_seen = {r.session_id for r in four_sessions.records}
        assert sessions_seen == {0, 1, 2, 3}

    def test_no_engine_overlap_across_sessions(self, four_sessions):
        by_engine: dict[int, list] = {}
        for record in four_sessions.records:
            by_engine.setdefault(record.sub_index, []).append(record)
        for records in by_engine.values():
            records.sort(key=lambda r: r.start_s)
            for a, b in zip(records, records[1:]):
                assert a.end_s <= b.start_s + 1e-12

    def test_mixed_scenarios(self):
        specs = [
            SessionSpec(0, get_scenario("vr_gaming"), seed=0),
            SessionSpec(1, get_scenario("ar_assistant"), seed=1),
        ]
        result = MultiScenarioSimulator(
            sessions=specs,
            system=build_accelerator("J", 8192),
            scheduler=LatencyGreedyScheduler(),
        ).run()
        assert result.session(0).scenario.name == "vr_gaming"
        assert result.session(1).scenario.name == "ar_assistant"
        assert all(len(s.completed()) > 0 for s in result.sessions)

    def test_session_lookup_by_id(self, four_sessions):
        for sid in range(4):
            assert four_sessions.session(sid).session_id == sid

    def test_session_lookup_unknown_id_raises(self, four_sessions):
        with pytest.raises(KeyError, match="no session 99"):
            four_sessions.session(99)
        with pytest.raises(KeyError, match="no session -1"):
            four_sessions.session(-1)

    def test_session_index_tracks_mutation(self, four_sessions):
        # The id index is rebuilt if the sessions list changes size
        # (results are plain dataclasses; callers may extend them).
        import copy

        result = copy.copy(four_sessions)
        result.sessions = list(result.sessions)
        extra = copy.copy(result.sessions[0])
        extra.session_id = 42
        result.session(0)  # build the index
        result.sessions.append(extra)
        assert result.session(42) is extra

    def test_session_index_not_stale_after_replace(self, four_sessions):
        # dataclasses.replace with a same-size sessions list must not
        # inherit the original's id index.
        import copy
        import dataclasses

        four_sessions.session(0)  # ensure the index is built
        renumbered = []
        for offset, session in enumerate(four_sessions.sessions):
            clone = copy.copy(session)
            clone.session_id = 100 + offset
            renumbered.append(clone)
        swapped = dataclasses.replace(four_sessions, sessions=renumbered)
        assert swapped.session(100) is renumbered[0]
        with pytest.raises(KeyError, match="no session 0"):
            swapped.session(0)
        # The original is untouched.
        assert four_sessions.session(0).session_id == 0


class TestDeterminism:
    def test_same_seeds_same_outcome(self):
        assert signature(multi(seed=3)) == signature(multi(seed=3))

    def test_different_seed_differs(self):
        assert signature(multi(seed=0)) != signature(multi(seed=100))

    def test_single_session_matches_legacy_simulator(self):
        # One session built directly matches the same session built
        # through the shared helper.
        legacy = MultiScenarioSimulator(
            sessions=[SessionSpec(0, get_scenario("vr_gaming"), seed=5)],
            system=build_accelerator("J", 8192),
            scheduler=LatencyGreedyScheduler(),
        ).run().sessions[0]
        result = multi(sessions=1, seed=5)
        [session] = result.sessions
        legacy_sig = [
            (r.model_code, r.model_frame, r.end_time_s, r.dropped)
            for r in legacy.requests
        ]
        multi_sig = [
            (r.model_code, r.model_frame, r.end_time_s, r.dropped)
            for r in session.requests
        ]
        assert legacy_sig == multi_sig


class TestSegmentGranularity:
    def test_single_engine_counts_match_model_granularity(self):
        by_granularity = {}
        for granularity in ("model", "segment"):
            result = multi(
                scenario="ar_gaming",
                acc="A",
                pes=8192,
                sessions=1,
                granularity=granularity,
            )
            by_granularity[granularity] = Counter(
                r.model_code for r in result.sessions[0].completed()
            )
        assert by_granularity["model"] == by_granularity["segment"]

    def test_segment_records_emitted(self):
        result = multi(granularity="segment", sessions=2)
        segmented = [r for r in result.records if r.num_segments > 1]
        assert segmented, "expected at least one segment-level execution"
        # Segment indices within a (session, model, frame) group chain up.
        groups: dict[tuple, list[int]] = {}
        for record in segmented:
            key = (record.session_id, record.model_code, record.model_frame)
            groups.setdefault(key, []).append(record.segment_index)
        for indices in groups.values():
            assert sorted(indices) == list(range(len(indices)))

    def test_segment_requests_span_their_records(self):
        result = multi(granularity="segment", sessions=1)
        [session] = result.sessions
        spans: dict[tuple, list] = {}
        for record in session.records:
            spans.setdefault(
                (record.model_code, record.model_frame), []
            ).append(record)
        for request in session.completed():
            records = spans[(request.model_code, request.model_frame)]
            assert min(r.start_s for r in records) == pytest.approx(
                request.start_time_s
            )
            assert max(r.end_s for r in records) == pytest.approx(
                request.end_time_s
            )

    def test_simulator_facade_plumbs_split_count(self):
        result = run_single(
            get_scenario("ar_gaming"),
            build_accelerator("J", 8192),
            LatencyGreedyScheduler(),
            granularity="segment",
            segments_per_model=3,
        )
        assert max(r.num_segments for r in result.records) == 3

    def test_split_counts_never_share_pieces(self):
        # Piece codes embed the split count and pieces are memoised per
        # (graph, count), so a 2-way run leaves nothing that a later
        # 3-way run could price a segment against.
        def signature_of(result):
            return [
                (r.model_code, r.model_frame, r.end_time_s)
                for r in result.sessions[0].completed()
            ]

        three_way = dict(scenario="ar_gaming", acc="A", sessions=1,
                         granularity="segment", segments_per_model=3)
        first = multi(**three_way)
        multi(scenario="ar_gaming", acc="A", sessions=1,
              granularity="segment")
        assert signature_of(multi(**three_way)) == signature_of(first)


class TestCostCache:
    def test_cache_stats_reported(self, four_sessions):
        stats = four_sessions.cost_stats
        assert stats is not None
        assert stats.lookups > 0
        assert stats.hit_rate > 0.9  # hot path is dominated by hits

    def test_each_run_counts_its_own_lookups(self):
        # Every run builds its own price table: a second run of one
        # simulator reports its own lookups, not the first run's as
        # well.  Fill: 3 codes x 2 engines at nominal, 6 misses.
        sim = replicate(
            get_scenario("vr_gaming"), build_accelerator("J", 8192),
            LatencyGreedyScheduler(), 1, duration_s=0.1,
        )
        for _ in range(2):
            stats = sim.run().cost_stats
            assert (stats.hits, stats.misses) == (24, 6)

