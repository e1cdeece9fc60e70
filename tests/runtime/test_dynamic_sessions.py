"""Tests for dynamic multi-tenancy: churn, lifetimes, phases, preemption.

The three acceptance properties of the dynamic-session subsystem:

(a) no work of a session is *dispatched* outside its
    ``[arrival_s, departure_s)`` window;
(b) per-session QoE normalises by the session's *active* (not streamed)
    duration;
(c) two identical churned runs are bit-identical.

Static sessions staying bit-identical to the pre-churn runtime is pinned
separately by the golden checksums in ``test_schedule_equivalence.py``.
"""

from __future__ import annotations

import pytest
from sim_helpers import replicate

from repro.api import RunSpec, execute
from repro.hardware import build_accelerator
from repro.runtime import (
    MultiScenarioSimulator,
    SessionPhase,
    SessionSpec,
    make_scheduler,
)
from repro.workload import churn_windows, get_scenario

DURATION_S = 0.5


@pytest.fixture(scope="module")
def vr():
    return get_scenario("vr_gaming")


@pytest.fixture(scope="module")
def system():
    return build_accelerator("J", 8192)


def churned_result(scheduler="latency_greedy", granularity="model",
                   sessions=4, churn=0.4, seed=0):
    windows = churn_windows(sessions, DURATION_S, churn, seed)
    return replicate(
        get_scenario("vr_gaming"),
        build_accelerator("J", 8192),
        make_scheduler(scheduler),
        sessions,
        base_seed=seed,
        duration_s=DURATION_S,
        granularity=granularity,
        windows=windows,
    ).run(), windows


class TestWindowContainment:
    @pytest.mark.parametrize("granularity", ["model", "segment"])
    @pytest.mark.parametrize(
        "scheduler", ["latency_greedy", "round_robin", "edf",
                      "rate_monotonic"],
    )
    def test_no_dispatch_outside_window(self, scheduler, granularity):
        result, windows = churned_result(scheduler, granularity)
        assert result.records, "churned run dispatched nothing"
        for record in result.records:
            window = windows[record.session_id]
            assert record.start_s >= window.arrival_s, (
                f"session {record.session_id} dispatched {record} before "
                f"its arrival {window.arrival_s}"
            )
            assert record.start_s < window.departure_s, (
                f"session {record.session_id} dispatched {record} after "
                f"its departure {window.departure_s}"
            )

    def test_every_session_gets_work(self):
        result, _ = churned_result()
        for session in result.sessions:
            assert session.records, (
                f"session {session.session_id} never ran"
            )

    def test_departure_retires_waiting_work(self, vr, system):
        # One engine, two sessions: overload guarantees work is waiting
        # when session 1 departs, and that work must be marked dropped.
        small = build_accelerator("A", 1024)
        result = MultiScenarioSimulator(
            sessions=[
                SessionSpec(0, vr, seed=0),
                SessionSpec(1, vr, seed=1, departure_s=DURATION_S / 2),
            ],
            system=small,
            scheduler=make_scheduler("latency_greedy"),
            duration_s=DURATION_S,
        ).run()
        late = result.session(1)
        cutoff = DURATION_S / 2
        for record in late.records:
            assert record.start_s < cutoff
        # Frames streamed before departure that never got to run are
        # dropped, not silently forgotten.
        undispatched = [
            r for r in late.requests if r.dropped and r.start_time_s is None
        ]
        assert undispatched, "expected retired waiting work at departure"
        # And nothing of session 1 completes past the cutoff's drain:
        # started work may finish late, but never *starts* late.
        assert all(
            r.start_time_s is None or r.start_time_s < cutoff
            for r in late.requests
        )


class TestActiveDurationNormalisation:
    def test_streamed_frames_scale_with_window(self, vr, system):
        # A session online for ~half the run streams ~half the frames of
        # a full-run session with the same scenario.
        result = MultiScenarioSimulator(
            sessions=[
                SessionSpec(0, vr, seed=0),
                SessionSpec(
                    1, vr, seed=0,
                    arrival_s=DURATION_S / 4,
                    departure_s=3 * DURATION_S / 4,
                ),
            ],
            system=system,
            scheduler=make_scheduler("latency_greedy"),
            duration_s=DURATION_S,
        ).run()
        full, half = result.session(0), result.session(1)
        assert half.active_duration_s == pytest.approx(DURATION_S / 2)
        assert half.window_s == pytest.approx(DURATION_S / 2)
        assert full.active_duration_s is None
        assert full.window_s == DURATION_S
        for code in ("HT", "ES"):
            assert half.num_frames(code) <= full.num_frames(code)
            assert half.num_frames(code) == pytest.approx(
                full.num_frames(code) / 2, abs=2
            )

    def test_qoe_not_punished_for_inactive_time(self, vr, system):
        # On an uncontended system the half-window session executes all
        # its (fewer) frames: QoE ~1 despite being online half the run.
        from repro.core.aggregate import score_simulation

        result = MultiScenarioSimulator(
            sessions=[
                SessionSpec(
                    0, vr, seed=0,
                    arrival_s=DURATION_S / 4,
                    departure_s=3 * DURATION_S / 4,
                ),
            ],
            system=system,
            scheduler=make_scheduler("latency_greedy"),
            duration_s=DURATION_S,
        ).run()
        score = score_simulation(result.sessions[0])
        assert score.qoe > 0.9

    def test_window_lengths_add_left_to_right(self, vr):
        """Session 0's windows in the dynamic session group of
        ``tests/core/test_aggregate.py`` at seed 2, after a degrade.  The
        built-in ``sum()`` of CPython 3.12 compensates and gives
        1.8255381039999998; adding left to right gives what 3.11 and
        3.10 give, so every interpreter scores the same denominator."""
        from repro.runtime.multisim import _SessionState

        state = _SessionState(
            spec=SessionSpec(0, vr),
            windows=[(0.102556605, 0.18, vr), (0.18, 0.4, vr),
                     (0.4, 1.928094709, vr)],
            requests=[],
            busy_time_s={},
            spawned={},
        )
        assert state.active_duration_s == 1.825538104

    def test_utilization_normalises_by_active_window(self, vr, system):
        result = MultiScenarioSimulator(
            sessions=[SessionSpec(
                0, vr, seed=0,
                arrival_s=DURATION_S / 4,
                departure_s=3 * DURATION_S / 4,
            )],
            system=system,
            scheduler=make_scheduler("latency_greedy"),
            duration_s=DURATION_S,
        ).run()
        session = result.sessions[0]
        busy = session.busy_time_s[0]
        assert session.utilization(0) == pytest.approx(
            busy / (DURATION_S / 2)
        )


class TestDeterminism:
    def test_identical_churned_specs_are_bit_identical(self):
        spec = RunSpec(
            scenario="vr_gaming", sessions=4, duration_s=DURATION_S,
            churn=0.4, accelerator="J", pes=8192,
        )
        a, b = execute(spec), execute(spec)
        ra = [
            (r.start_s, r.end_s, r.sub_index, r.session_id, r.model_code)
            for r in a.result.records
        ]
        rb = [
            (r.start_s, r.end_s, r.sub_index, r.session_id, r.model_code)
            for r in b.result.records
        ]
        assert ra == rb
        assert [s.score.overall for s in a.session_reports] == [
            s.score.overall for s in b.session_reports
        ]
        assert a.summary() == b.summary()

    def test_zero_churn_matches_static_path(self, vr, system):
        spec = RunSpec(
            scenario="vr_gaming", sessions=4, duration_s=DURATION_S,
            accelerator="J", pes=8192,
        )
        static = execute(spec)
        churned = execute(spec.replace(churn=0.0))
        assert [
            (r.start_s, r.sub_index, r.model_code)
            for r in static.result.records
        ] == [
            (r.start_s, r.sub_index, r.model_code)
            for r in churned.result.records
        ]


class TestPhases:
    def phased_result(self, system):
        return MultiScenarioSimulator(
            sessions=[SessionSpec(
                0,
                get_scenario("ar_gaming"),
                seed=0,
                phases=(SessionPhase(
                    at_s=DURATION_S / 2,
                    scenario=get_scenario("social_interaction_a"),
                ),),
            )],
            system=system,
            scheduler=make_scheduler("latency_greedy"),
            duration_s=DURATION_S,
        ).run()

    def test_scored_against_merged_scenario(self, system):
        session = self.phased_result(system).sessions[0]
        assert session.scenario.name == (
            "ar_gaming+social_interaction_a"
        )
        codes = {sm.code for sm in session.scenario.models}
        ar = {sm.code for sm in get_scenario("ar_gaming").models}
        social = {
            sm.code for sm in get_scenario("social_interaction_a").models
        }
        assert codes == ar | social

    def test_phase_switch_changes_streamed_models(self, system):
        session = self.phased_result(system).sessions[0]
        ar_only = {
            sm.code for sm in get_scenario("ar_gaming").models
        } - {
            sm.code for sm in get_scenario("social_interaction_a").models
        }
        social_only = {
            sm.code for sm in get_scenario("social_interaction_a").models
        } - {sm.code for sm in get_scenario("ar_gaming").models}
        assert ar_only and social_only, "scenarios must differ for this test"
        switch = DURATION_S / 2
        for record in session.records:
            if record.model_code in ar_only:
                assert record.start_s < switch
        late_models = {
            r.model_code for r in session.records if r.start_s >= switch
        }
        assert late_models & social_only, (
            "second phase never streamed its own models"
        )

    def test_phased_session_is_scorable(self, system):
        from repro.core.aggregate import score_simulation

        score = score_simulation(self.phased_result(system).sessions[0])
        assert 0.0 <= score.overall <= 1.0

    def test_phase_change_retires_stale_segment_chains(self):
        # Segment granularity on a slow system: chains from the first
        # activity must not have new segments dispatched after the
        # switch (the running segment finishes; the chain stops).
        switch = DURATION_S / 2
        result = MultiScenarioSimulator(
            sessions=[SessionSpec(
                0,
                get_scenario("ar_gaming"),
                seed=0,
                phases=(SessionPhase(
                    at_s=switch,
                    scenario=get_scenario("social_interaction_a"),
                ),),
            )],
            system=build_accelerator("A", 1024),
            scheduler=make_scheduler("latency_greedy"),
            duration_s=DURATION_S,
            granularity="segment",
        ).run()
        ar_only = {
            sm.code for sm in get_scenario("ar_gaming").models
        } - {sm.code for sm in get_scenario("social_interaction_a").models}
        for record in result.records:
            if record.model_code in ar_only:
                assert record.start_s < switch, (
                    f"stale first-activity segment dispatched after the "
                    f"phase change: {record}"
                )


class TestPreemption:
    def run_spec(self, preemptive):
        # 4096 PEs keeps the system contended enough that resumable
        # chains and urgent fresh work actually compete for engines.
        return execute(RunSpec(
            scenario="vr_gaming", sessions=4, duration_s=DURATION_S,
            granularity="segment", scheduler="edf",
            preemptive=preemptive, accelerator="J", pes=4096,
        ))

    def test_preemption_changes_the_schedule(self):
        on = self.run_spec(True).result
        off = self.run_spec(False).result
        assert [
            (r.start_s, r.sub_index, r.model_code, r.segment_index)
            for r in on.records
        ] != [
            (r.start_s, r.sub_index, r.model_code, r.segment_index)
            for r in off.records
        ]

    def test_preemption_never_splits_a_running_segment(self):
        # Records on one engine never overlap: preemption only happens
        # at segment boundaries, so occupancy intervals stay disjoint.
        result = self.run_spec(True).result
        by_engine: dict[int, list] = {}
        for record in result.records:
            by_engine.setdefault(record.sub_index, []).append(record)
        for records in by_engine.values():
            records.sort(key=lambda r: r.start_s)
            for a, b in zip(records, records[1:]):
                assert a.end_s <= b.start_s + 1e-12

    def test_preemption_is_deterministic(self):
        a = self.run_spec(True).result
        b = self.run_spec(True).result
        assert [
            (r.start_s, r.sub_index, r.model_code) for r in a.records
        ] == [
            (r.start_s, r.sub_index, r.model_code) for r in b.records
        ]

    def test_non_hook_scheduler_rejected(self):
        with pytest.raises(ValueError, match="should_preempt"):
            RunSpec(
                scenario="vr_gaming", scheduler="latency_greedy",
                granularity="segment", preemptive=True,
            )

    def test_preemptive_requires_segment_granularity(self):
        # Whole-model dispatch has no preemption points; accepting the
        # flag there would be a silent no-op.
        with pytest.raises(ValueError, match="segment boundaries"):
            RunSpec(
                scenario="vr_gaming", scheduler="edf", preemptive=True,
            )
        with pytest.raises(ValueError, match="segment boundaries"):
            RunSpec(suite=True, scheduler="edf", preemptive=True)


class TestValidation:
    def test_zero_duration_rejected(self, vr, system):
        with pytest.raises(ValueError, match="duration_s must be > 0"):
            MultiScenarioSimulator(
                sessions=[SessionSpec(0, vr)],
                system=system,
                scheduler=make_scheduler("latency_greedy"),
                duration_s=0.0,
            )

    def test_arrival_past_duration_rejected(self, vr, system):
        with pytest.raises(ValueError, match="arrives at"):
            MultiScenarioSimulator(
                sessions=[SessionSpec(0, vr, arrival_s=1.0)],
                system=system,
                scheduler=make_scheduler("latency_greedy"),
                duration_s=0.5,
            )

    def test_departure_before_arrival_rejected(self, vr):
        with pytest.raises(ValueError, match="departs"):
            SessionSpec(0, vr, arrival_s=0.5, departure_s=0.25)

    def test_unordered_phases_rejected(self, vr):
        other = get_scenario("ar_gaming")
        with pytest.raises(ValueError, match="strictly increasing"):
            SessionSpec(0, vr, phases=(
                SessionPhase(0.4, other), SessionPhase(0.2, other),
            ))

    def test_phase_after_departure_rejected(self, vr):
        other = get_scenario("ar_gaming")
        with pytest.raises(ValueError, match="departure"):
            SessionSpec(
                0, vr, departure_s=0.3,
                phases=(SessionPhase(0.4, other),),
            )

    def test_mismatched_windows_rejected(self, vr, system):
        with pytest.raises(ValueError, match="lifetime windows"):
            replicate(
                vr, system, make_scheduler("latency_greedy"), 4,
                windows=churn_windows(2, DURATION_S, 0.2),
                duration_s=DURATION_S,
            )

    def test_spec_churn_bounds(self):
        with pytest.raises(ValueError, match="churn"):
            RunSpec(scenario="vr_gaming", churn=0.6)
        with pytest.raises(ValueError, match="churn"):
            RunSpec(scenario="vr_gaming", churn=-0.1)

    def test_churn_spec_round_trips(self):
        spec = RunSpec(
            scenario="vr_gaming", churn=0.25, scheduler="edf",
            granularity="segment", preemptive=True,
        )
        assert RunSpec.from_json(spec.to_json()) == spec
        assert spec.mode == "sessions"
        assert "churn=0.25" in spec.describe()
        assert "preemptive" in spec.describe()


class TestBusyTimeClipping:
    """Busy time is clipped to the measurement window at accounting time.

    Regression: busy time used to be charged in full at ``begin()``, so
    a departing session's drain tail counted against its (shorter)
    active window and window-normalised utilization exceeded 100% —
    only a display-time clamp hid it.
    """

    def test_churned_session_utilization_never_exceeds_one(self, system):
        # Saturated ar_gaming on a small system, departing mid-run: the
        # exact configuration that used to report ~115% utilization.
        result = MultiScenarioSimulator(
            sessions=[SessionSpec(
                0, get_scenario("ar_gaming"), seed=0,
                departure_s=DURATION_S / 2,
            )],
            system=build_accelerator("J", 4096),
            scheduler=make_scheduler("latency_greedy"),
            duration_s=DURATION_S,
        ).run()
        session = result.sessions[0]
        # The drain tail is real (visible in the records) ...
        assert max(r.end_s for r in session.records) > DURATION_S / 2
        # ... but unclipped spans would still overcount the window:
        span = {}
        for record in session.records:
            span[record.sub_index] = (
                span.get(record.sub_index, 0.0) + record.duration_s
            )
        assert max(
            span[i] / session.window_s for i in span
        ) > 1.0
        # ... while accounting-time clipping keeps every reported
        # utilization a true occupancy share.
        for i in range(result.system.num_subs):
            assert session.utilization(i) <= 1.0 + 1e-9
            assert result.system_utilization(i) <= 1.0 + 1e-9

    def test_system_busy_never_exceeds_streamed_duration(self, vr):
        # Overloaded static run: in-flight work drains past duration_s,
        # but engine busy time clips to the horizon.
        result = replicate(
            vr, build_accelerator("J", 4096),
            make_scheduler("latency_greedy"), 4,
            duration_s=DURATION_S,
        ).run()
        for i in range(result.system.num_subs):
            assert result.busy_time_s[i] <= DURATION_S + 1e-9
        assert result.mean_system_utilization() <= 1.0 + 1e-9

    def test_session_busy_sums_match_system_busy_under_churn(self, vr):
        result = replicate(
            vr, build_accelerator("J", 8192),
            make_scheduler("latency_greedy"), 4,
            duration_s=DURATION_S,
            windows=churn_windows(4, DURATION_S, 0.4, 0),
        ).run()
        for i in range(result.system.num_subs):
            contributed = sum(
                s.busy_time_s[i] for s in result.sessions
            )
            # Sessions clip to their own (earlier-ending) windows, so
            # the sum can only fall short of the system-level figure —
            # never exceed it.
            assert contributed <= result.busy_time_s[i] + 1e-9
