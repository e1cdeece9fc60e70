"""Fault injection and recovery: plan construction, fleet mechanics,
the kill/requeue machinery, and the resilience invariants.

The invariants at the bottom are the contract the recovery machinery
must keep under any seeded profile:

* nothing vanishes — every request whose in-flight work was killed
  either completes on a surviving engine or is explicitly abandoned as
  ``failed_faulted`` (and dropped);
* a failed engine executes nothing during its downtime, and busy-time
  accounting rolls the unexecuted remainder of killed work back out;
* ``faults="none"`` is byte-for-byte the historical path — not merely
  checksum-equal, but identical on every record and request field.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest
from sim_helpers import replicate

from repro.costmodel import DEFAULT_DVFS_POINTS
from repro.hardware import build_accelerator
from repro.runtime import (
    FaultEvent,
    FaultPlan,
    make_fault_plan,
    make_scheduler,
)
from repro.runtime.engine import EngineFleet, ExecutionEngine, WorkItem
from repro.workload import get_scenario
from repro.workload.requests import InferenceRequest

DURATION_S = 0.25
SEEDED_PROFILES = ("single", "flaky", "thermal")


def run_sim(faults="single", sessions=4, accelerator="J",
            scheduler="latency_greedy", granularity="model",
            dvfs_policy="static", seed=0, duration_s=DURATION_S):
    """Run vr_gaming sessions under ``faults``: a compiled plan, or a
    profile name compiled here with ``seed``."""
    system = build_accelerator(accelerator, 8192)
    if isinstance(faults, str):
        faults = make_fault_plan(
            faults, system.num_subs, duration_s, seed=seed
        )
    return replicate(
        get_scenario("vr_gaming"),
        system,
        make_scheduler(scheduler),
        sessions,
        base_seed=seed,
        duration_s=duration_s,
        granularity=granularity,
        dvfs_policy=dvfs_policy,
        faults=faults,
    ).run()


def downtime_windows(plan: FaultPlan) -> list[tuple[int, float, float]]:
    """(engine, fail_s, recover_s) per outage; open outages end at the
    plan's duration."""
    windows = []
    open_at: dict[int, float] = {}
    for event in sorted(plan.events, key=lambda e: e.time_s):
        if event.kind == "engine_fail":
            open_at[event.engine_index] = event.time_s
        elif event.kind == "engine_recover":
            windows.append(
                (event.engine_index, open_at.pop(event.engine_index),
                 event.time_s)
            )
    for engine, start in open_at.items():
        windows.append((engine, start, plan.duration_s))
    return windows


class TestFaultPlanConstruction:
    def test_none_profile_returns_no_plan(self):
        assert make_fault_plan("none", 2, DURATION_S) is None

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            make_fault_plan("bitflip", 2, DURATION_S)

    @pytest.mark.parametrize("profile", SEEDED_PROFILES)
    def test_deterministic_in_profile_and_seed(self, profile):
        a = make_fault_plan(profile, 2, DURATION_S, seed=7)
        b = make_fault_plan(profile, 2, DURATION_S, seed=7)
        assert a == b

    def test_seed_moves_the_schedule(self):
        a = make_fault_plan("single", 2, DURATION_S, seed=0)
        b = make_fault_plan("single", 2, DURATION_S, seed=1)
        assert a.events != b.events

    @pytest.mark.parametrize("profile", SEEDED_PROFILES)
    def test_json_round_trip(self, profile):
        plan = make_fault_plan(profile, 2, DURATION_S, seed=3)
        wire = json.dumps(plan.to_dict())
        assert FaultPlan.from_dict(json.loads(wire)) == plan

    @pytest.mark.parametrize("profile", SEEDED_PROFILES)
    @pytest.mark.parametrize("engines", [2, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_profiles_valid_on_real_fleet_sizes(self, profile, engines,
                                                seed):
        plan = make_fault_plan(profile, engines, DURATION_S, seed=seed)
        assert plan.events
        for event in plan.events:
            assert 0 <= event.time_s < DURATION_S
            assert 0 <= event.engine_index < engines

    @pytest.mark.parametrize("profile", ["single", "flaky"])
    def test_failing_the_whole_fleet_is_vetoed(self, profile):
        with pytest.raises(ValueError,
                           match=r"fails all 1 engine\(s\) simultaneously"):
            make_fault_plan(profile, 1, DURATION_S)

    def test_thermal_survives_a_single_engine(self):
        # Throttling is not an outage: capacity remains, so no veto.
        plan = make_fault_plan("thermal", 1, DURATION_S)
        assert plan.has_thermal

    def test_runspec_vetoes_fleetwide_outage_at_compile_time(self):
        from repro.api import RunSpec

        with pytest.raises(ValueError, match="fails all 1 engine"):
            RunSpec(scenario="vr_gaming", accelerator="A", pes=4096,
                    duration_s=DURATION_S, faults="single")

    def test_simulator_rejects_a_profile_name(self):
        # The simulator owns no fault seed, so it takes only a compiled
        # plan; the error names the function that compiles one.
        with pytest.raises(TypeError, match="make_fault_plan"):
            replicate(
                get_scenario("vr_gaming"), build_accelerator("J", 8192),
                make_scheduler("latency_greedy"), 2,
                duration_s=DURATION_S, faults="single",
            )

    def test_runspec_rejects_unknown_profile(self):
        from repro.api import RunSpec

        with pytest.raises(ValueError, match="faults"):
            RunSpec(scenario="vr_gaming", accelerator="J", pes=4096,
                    duration_s=DURATION_S, faults="bitflip")


class TestFaultEventValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault event kind"):
            FaultEvent(0.1, "meltdown", 0)

    def test_negative_time(self):
        with pytest.raises(ValueError, match="time must be >= 0"):
            FaultEvent(-0.1, "engine_fail", 0)

    def test_throttle_requires_a_ceiling(self):
        with pytest.raises(ValueError, match="need a max_frequency_scale"):
            FaultEvent(0.1, "thermal_throttle", 0)

    def test_only_throttle_carries_a_ceiling(self):
        with pytest.raises(ValueError, match="carry no max_frequency_scale"):
            FaultEvent(0.1, "engine_fail", 0, max_frequency_scale=0.7)


class TestFaultPlanValidation:
    def plan(self, *events, engines=2):
        return FaultPlan(profile="custom", seed=0, num_engines=engines,
                         duration_s=DURATION_S, events=events)

    def test_double_fail_without_recovery(self):
        with pytest.raises(ValueError, match="fails twice"):
            self.plan(FaultEvent(0.05, "engine_fail", 0),
                      FaultEvent(0.10, "engine_fail", 0))

    def test_recover_without_failure(self):
        with pytest.raises(ValueError, match="without a preceding failure"):
            self.plan(FaultEvent(0.05, "engine_recover", 0))

    def test_event_outside_run_window(self):
        with pytest.raises(ValueError, match="outside the run window"):
            self.plan(FaultEvent(DURATION_S + 0.1, "engine_fail", 0),
                      FaultEvent(DURATION_S + 0.2, "engine_recover", 0))

    def test_event_targets_missing_engine(self):
        with pytest.raises(ValueError, match="targets engine 5"):
            self.plan(FaultEvent(0.05, "engine_fail", 5))

    def test_overlapping_outages_on_every_engine_vetoed(self):
        with pytest.raises(ValueError, match="fails all 2 engine"):
            self.plan(FaultEvent(0.05, "engine_fail", 0),
                      FaultEvent(0.10, "engine_fail", 1),
                      FaultEvent(0.15, "engine_recover", 0),
                      FaultEvent(0.20, "engine_recover", 1))

    def test_staggered_outages_accepted(self):
        plan = self.plan(FaultEvent(0.05, "engine_fail", 0),
                         FaultEvent(0.10, "engine_recover", 0),
                         FaultEvent(0.15, "engine_fail", 1),
                         FaultEvent(0.20, "engine_recover", 1))
        assert not plan.has_thermal


class TestEngineFaultMechanics:
    @pytest.fixture
    def fleet(self):
        system = build_accelerator("J", 8192)
        return EngineFleet([
            ExecutionEngine(sub=sub) for sub in system.subs
        ])

    def item(self):
        request = InferenceRequest(model_code="OD0", model_frame=0,
                                   request_time_s=0.0, deadline_s=0.1)
        return WorkItem(request=request, session_id=0)

    def test_failed_idle_engine_leaves_and_rejoins_idle_list(self, fleet):
        assert [e.index for e in fleet.idle] == [0, 1]
        assert fleet.fail(0, 0.01) is None
        assert [e.index for e in fleet.idle] == [1]
        assert fleet.engines[0].failed
        fleet.recover(0, 0.02)
        assert [e.index for e in fleet.idle] == [0, 1]
        assert fleet.engines[0].health_log == [(0.01, "fail"),
                                               (0.02, "recover")]

    def test_failed_engine_refuses_work(self, fleet):
        fleet.fail(0, 0.01)
        cost = SimpleNamespace(latency_s=0.01, energy_mj=4.0)
        with pytest.raises(ValueError, match="failed and cannot accept"):
            fleet.engines[0].begin(self.item(), 0.02, cost)

    def test_double_fail_and_spurious_recover_rejected(self, fleet):
        fleet.fail(0, 0.01)
        with pytest.raises(ValueError, match="already failed"):
            fleet.fail(0, 0.02)
        with pytest.raises(ValueError, match="not failed"):
            fleet.recover(1, 0.02)

    def test_failing_busy_engine_aborts_and_rolls_back(self, fleet):
        engine = fleet.engines[0]
        item = self.item()
        cost = SimpleNamespace(latency_s=0.010, energy_mj=4.0)
        end_s = fleet.begin(engine, item, 0.0, cost)
        assert end_s == pytest.approx(0.010)
        # Kill halfway: half the energy is spent, half the busy time
        # must be rolled back, and the record is a truncated abort.
        killed = fleet.fail(0, 0.005)
        assert killed is not None
        k_item, planned_end_s, unspent_mj = killed
        assert k_item is item
        assert planned_end_s == pytest.approx(0.010)
        assert unspent_mj == pytest.approx(2.0)
        assert engine.idle and engine.failed
        assert engine.busy_time_s == pytest.approx(0.005)
        record = engine.records[-1]
        assert record.aborted
        assert record.end_s == pytest.approx(0.005)
        assert record.energy_mj == pytest.approx(2.0)

    def test_throttle_clamps_to_fastest_permitted_ladder_point(self, fleet):
        engine = fleet.engines[0]
        assert engine.effective_dvfs is None  # nominal (scale 1.0)
        engine.throttle(0.01, 0.7, DEFAULT_DVFS_POINTS)
        clamped = engine.effective_dvfs
        assert clamped is not None
        assert clamped.frequency_scale == pytest.approx(0.7)
        engine.release_thermal(0.02)
        assert engine.effective_dvfs is None

    def test_throttle_below_ladder_floor_picks_slowest_point(self, fleet):
        engine = fleet.engines[0]
        engine.throttle(0.01, 0.1, DEFAULT_DVFS_POINTS)
        floor = min(DEFAULT_DVFS_POINTS, key=lambda p: p.frequency_scale)
        assert engine.effective_dvfs.frequency_scale == pytest.approx(
            floor.frequency_scale
        )


class TestRecoveryMachinery:
    def test_requeued_work_completes_on_a_survivor(self):
        result = run_sim("single")
        plan = make_fault_plan("single", 2, DURATION_S, seed=0)
        ((dead_engine, fail_s, recover_s),) = downtime_windows(plan)
        records = [s.faults for s in result.sessions]
        assert sum(f.killed for f in records) >= 1
        assert sum(f.retries for f in records) >= 1
        recovered = [s for s in result.sessions if s.faults.recovered]
        assert recovered, "expected at least one killed request to recover"
        for sim in recovered:
            assert all(
                latency > 0 for latency in sim.faults.recovery_latencies_s
            )
            kinds = [a.kind for a in sim.faults.actions]
            assert "kill" in kinds
        # The frame that recovered finished as a real execution record on
        # an engine that was up at the time.
        for sim in result.sessions:
            for request in sim.requests:
                if request.faulted and request.completed:
                    finals = [
                        r for r in result.records
                        if r.session_id == sim.session_id
                        and r.model_code == request.model_code
                        and r.model_frame == request.model_frame
                        and not r.aborted
                    ]
                    assert finals, "recovered request left no record"

    def test_zero_retry_budget_abandons_killed_work(self):
        plan = make_fault_plan("single", 2, DURATION_S, seed=0)
        strict = FaultPlan(
            profile=plan.profile, seed=plan.seed,
            num_engines=plan.num_engines, duration_s=plan.duration_s,
            events=plan.events, retry_budget=0,
        )
        result = run_sim(strict)
        abandoned = [
            r for s in result.sessions for r in s.requests
            if r.failed_faulted
        ]
        assert abandoned
        for request in abandoned:
            assert request.dropped and not request.completed
        kinds = [
            a.kind for s in result.sessions for a in s.faults.actions
        ]
        assert "exhausted" in kinds
        assert sum(s.faults.retries for s in result.sessions) == 0
        assert sum(s.faults.lost for s in result.sessions) >= len(abandoned)

    def test_fault_action_ids_repeat_within_a_process(self):
        """Request ids are run-scoped: unique within a run, and the fault
        log a spec exports is the same however many runs came before it
        in the process."""
        def actions(result):
            return [s.faults.actions for s in result.sessions]

        first, second = run_sim("flaky"), run_sim("flaky")
        ids = [r.request_id for r in first.all_requests()]
        assert len(set(ids)) == len(ids)
        assert any(actions(first)), "flaky produced no fault actions"
        # FaultAction equality includes request_id.
        assert actions(first) == actions(second)

    def test_every_session_gets_a_fault_stamp(self):
        result = run_sim("flaky")
        for sim in result.sessions:
            assert sim.faults is not None
            assert sim.faults.profile == "flaky"

    def test_no_plan_means_no_stamp(self):
        result = run_sim("none")
        for sim in result.sessions:
            assert sim.faults is None

    def test_thermal_clamps_governed_dispatches(self):
        plan = make_fault_plan("thermal", 2, DURATION_S, seed=0)
        (throttle,) = [
            e for e in plan.events if e.kind == "thermal_throttle"
        ]
        (release,) = [
            e for e in plan.events if e.kind == "thermal_release"
        ]
        result = run_sim("thermal", dvfs_policy="slack")
        scale_of = {p.name: p.frequency_scale for p in DEFAULT_DVFS_POINTS}
        throttled = [
            r for r in result.records
            if r.sub_index == throttle.engine_index
            and throttle.time_s <= r.start_s < release.time_s
        ]
        assert throttled, "expected dispatches on the throttled engine"
        for record in throttled:
            scale = scale_of[record.dvfs] if record.dvfs else 1.0
            assert scale <= throttle.max_frequency_scale + 1e-12

    def test_thermal_clamp_is_recorded_on_static_dispatches(self):
        """An ungoverned dispatch on a throttled engine is priced at the
        clamp point, and its record names that point; every other
        dispatch runs at nominal."""
        plan = make_fault_plan("thermal", 2, DURATION_S, seed=0)
        (throttle,) = [
            e for e in plan.events if e.kind == "thermal_throttle"
        ]
        (release,) = [
            e for e in plan.events if e.kind == "thermal_release"
        ]
        clamp = max(
            (p for p in DEFAULT_DVFS_POINTS
             if p.frequency_scale <= throttle.max_frequency_scale),
            key=lambda p: p.frequency_scale,
        )
        result = run_sim("thermal")
        throttled = {
            id(r) for r in result.records
            if r.sub_index == throttle.engine_index
            and throttle.time_s <= r.start_s < release.time_s
        }
        assert throttled, "expected dispatches on the throttled engine"
        for record in result.records:
            expected = clamp.name if id(record) in throttled else None
            assert record.dvfs == expected, record


class TestResilienceInvariants:
    @pytest.mark.parametrize("profile", ["single", "flaky"])
    @pytest.mark.parametrize("seed", range(3))
    def test_killed_work_never_vanishes(self, profile, seed):
        """Every request whose dispatch was killed either completed on a
        surviving engine or was explicitly abandoned — no third state."""
        result = run_sim(profile, seed=seed)
        saw_fault = False
        for sim in result.sessions:
            for request in sim.requests:
                if not request.faulted:
                    continue
                saw_fault = True
                assert request.completed or request.failed_faulted, (
                    f"request {request.request_id} was killed but neither "
                    "completed nor failed_faulted"
                )
                if request.failed_faulted:
                    assert request.dropped
        assert saw_fault, "profile produced no kills; weak test"
        # The per-session ledgers agree with the request flags.
        killed = sum(s.faults.killed for s in result.sessions)
        recovered = sum(s.faults.recovered for s in result.sessions)
        lost = sum(s.faults.lost for s in result.sessions)
        assert killed == recovered + lost

    def test_request_killed_twice_counts_once(self):
        """``killed`` counts requests, like ``recovered`` and ``lost``:
        a retry killed again adds a kill action and a retry, not a
        second killed request."""
        from repro.api import RunSpec, execute

        report = execute(RunSpec(
            scenario=("ar_gaming",), accelerator="J", pes=8192,
            scheduler="edf", duration_s=0.1, faults="flaky",
        ))
        [session] = report.result.sessions
        log = session.faults
        assert (log.killed, log.retries, log.recovered, log.lost) == (
            1, 2, 0, 1,
        )
        kills = [a for a in log.actions if a.kind == "kill"]
        assert [a.request_id for a in kills] == [5, 5]

    @pytest.mark.parametrize("profile", ["single", "flaky"])
    @pytest.mark.parametrize("seed", range(3))
    def test_downtime_executes_nothing(self, profile, seed):
        """A failed engine's downtime contains no execution: every record
        on it ends by the failure instant or starts after recovery —
        busy time can never include downtime."""
        result = run_sim(profile, seed=seed)
        plan = make_fault_plan(profile, 2, DURATION_S, seed=seed)
        for engine, fail_s, recover_s in downtime_windows(plan):
            for record in result.records:
                if record.sub_index != engine:
                    continue
                assert (record.end_s <= fail_s + 1e-9
                        or record.start_s >= recover_s - 1e-9), (
                    f"record [{record.start_s}, {record.end_s}] overlaps "
                    f"engine {engine} downtime [{fail_s}, {recover_s}]"
                )

    @pytest.mark.parametrize("granularity", ["model", "segment"])
    def test_faults_none_is_the_historical_path(self, granularity):
        """Field-for-field equality, not just a digest: the fault hooks
        must be invisible when no plan is installed."""
        def rows(result):
            return [
                (r.start_s, r.end_s, r.sub_index, r.model_code,
                 r.model_frame, r.segment_index, r.session_id,
                 r.energy_mj, r.dvfs, r.aborted)
                for r in result.records
            ]

        def request_rows(result):
            return [
                (q.request_id, q.model_code, q.model_frame,
                 q.request_time_s, q.start_time_s, q.end_time_s,
                 q.energy_mj, q.dropped, q.faulted, q.failed_faulted)
                for s in result.sessions for q in s.requests
            ]

        gated = run_sim("none", granularity=granularity)
        plain = replicate(
            get_scenario("vr_gaming"),
            build_accelerator("J", 8192),
            make_scheduler("latency_greedy"),
            4,
            base_seed=0,
            duration_s=DURATION_S,
            granularity=granularity,
        ).run()
        assert rows(gated) == rows(plain)
        assert request_rows(gated) == request_rows(plain)
