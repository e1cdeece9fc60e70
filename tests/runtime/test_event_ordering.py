"""Same-timestamp event ordering under the batch-drain loop.

The event loop drains every event sharing the minimum timestamp as one
batch.  Batching must not reorder anything: events resolve in the
documented ``(time, seq)`` order, which gives build-time lifecycle
events (JOIN / PHASE / LEAVE carry low sequence numbers) priority over
same-instant arrivals and completions.  These tests pin that contract
directly at the queue level and end-to-end through a churned,
preemptive, segment-granularity run.
"""

from __future__ import annotations

import pytest
from sim_helpers import replicate

import repro.runtime.multisim as multisim
from repro.hardware import build_accelerator
from repro.runtime import MultiScenarioSimulator, make_scheduler
from repro.runtime.events import EventKind, EventQueue
from repro.runtime.faults import FaultEvent, FaultPlan
from repro.runtime.multisim import SessionPhase, SessionSpec
from repro.workload import SessionWindow, get_scenario

LIFECYCLE = {
    EventKind.SESSION_JOIN,
    EventKind.SESSION_PHASE,
    EventKind.SESSION_LEAVE,
}


def drain_batch(events: EventQueue) -> list[tuple]:
    """Pop every event sharing the queue's minimum timestamp, in order.

    The same batching the event loop performs: pop, then keep popping
    while the heap's next time equals the batch time.
    """
    batch = [events.pop_fields()]
    while events and events.next_time_s == batch[0][0]:
        batch.append(events.pop_fields())
    return batch


class TestQueueOrdering:
    def test_same_timestamp_pops_in_push_order(self):
        events = EventQueue()
        kinds = [
            EventKind.COMPLETION,
            EventKind.ARRIVAL,
            EventKind.COMPLETION,
            EventKind.ARRIVAL,
        ]
        for kind in kinds:
            events.push(1.0, kind)
        batch = drain_batch(events)
        assert [f[2] for f in batch] == kinds
        seqs = [f[1] for f in batch]
        assert seqs == sorted(seqs)

    def test_lifecycle_outranks_same_instant_work(self):
        """Build-time lifecycle events beat later-pushed work events.

        The simulator schedules JOIN/PHASE/LEAVE up front; arrivals and
        completions are pushed while the run executes.  At a shared
        instant the lifecycle events' lower sequence numbers must drain
        first — a frame arriving exactly when its session leaves is
        processed *after* the leave (and therefore dropped).
        """
        events = EventQueue()
        t = 0.125
        events.push(t, EventKind.SESSION_JOIN, session_id=1)
        events.push(t, EventKind.SESSION_PHASE, session_id=2)
        events.push(t, EventKind.SESSION_LEAVE, session_id=3)
        # Work events land later (higher seq), as they do in a real run.
        events.push(t, EventKind.ARRIVAL, session_id=3)
        events.push(t, EventKind.COMPLETION, sub_index=0, session_id=2)
        batch = drain_batch(events)
        assert [f[2] for f in batch] == [
            EventKind.SESSION_JOIN,
            EventKind.SESSION_PHASE,
            EventKind.SESSION_LEAVE,
            EventKind.ARRIVAL,
            EventKind.COMPLETION,
        ]

    def test_batches_split_on_time_not_kind(self):
        events = EventQueue()
        events.push(2.0, EventKind.ARRIVAL)
        events.push(1.0, EventKind.SESSION_LEAVE)
        events.push(1.0, EventKind.ARRIVAL)
        first = drain_batch(events)
        second = drain_batch(events)
        assert [f[0] for f in first] == [1.0, 1.0]
        assert [f[2] for f in first] == [
            EventKind.SESSION_LEAVE, EventKind.ARRIVAL,
        ]
        assert [(f[0], f[2]) for f in second] == [(2.0, EventKind.ARRIVAL)]

    def test_pop_fields_matches_pop(self):
        a, b = EventQueue(), EventQueue()
        for q in (a, b):
            q.push(0.5, EventKind.ARRIVAL, session_id=4)
            q.push(0.5, EventKind.COMPLETION, sub_index=1, session_id=4)
        while a:
            fields = a.pop_fields()
            event = b.pop()
            assert fields == (
                event.time_s, event.seq, event.kind, event.request,
                event.sub_index, event.session_id,
            )


class _TracingQueue(EventQueue):
    """An EventQueue that logs every popped tuple and the heap size it
    was popped from (test instrumentation)."""

    instances: list["_TracingQueue"] = []

    def __init__(self) -> None:
        super().__init__()
        self.trace: list[tuple] = []
        self.sizes: list[int] = []
        _TracingQueue.instances.append(self)

    def pop_fields(self):
        self.sizes.append(len(self))
        fields = super().pop_fields()
        self.trace.append(fields)
        return fields


@pytest.fixture
def traced_queue(monkeypatch):
    _TracingQueue.instances = []
    monkeypatch.setattr(multisim, "EventQueue", _TracingQueue)
    yield _TracingQueue


def run_churned_preemptive(scenario_name="vr_gaming", duration_s=0.25):
    """A run exercising every event kind: churn, phases, preemption,
    segment chains, the slack governor, admission control ticks and a
    fault plan (engine failure/recovery, a thermal window, and the
    retry of work killed mid-flight) all at once."""
    scenario = get_scenario(scenario_name)
    phase_scenario = get_scenario("social_interaction_b")
    specs = [
        SessionSpec(0, scenario, seed=0),
        SessionSpec(1, scenario, seed=1, arrival_s=0.05,
                    departure_s=0.2),
        SessionSpec(2, scenario, seed=2,
                    phases=(SessionPhase(0.125, phase_scenario),)),
    ]
    # A hand-built plan covering every fault event kind; under three
    # vr_gaming sessions both engines are saturated, so failing engine 0
    # mid-run kills in-flight work and arms a WORK_RETRY too.
    plan = FaultPlan(
        profile="single",
        seed=0,
        num_engines=2,
        duration_s=duration_s,
        events=(
            FaultEvent(0.08 * duration_s / 0.25, "thermal_throttle", 1,
                       max_frequency_scale=0.7),
            FaultEvent(0.10 * duration_s / 0.25, "engine_fail", 0),
            FaultEvent(0.18 * duration_s / 0.25, "engine_recover", 0),
            FaultEvent(0.20 * duration_s / 0.25, "thermal_release", 1),
        ),
    )
    sim = MultiScenarioSimulator(
        sessions=specs,
        system=build_accelerator("J", 8192),
        scheduler=make_scheduler("edf", preemptive=True),
        duration_s=duration_s,
        granularity="segment",
        dvfs_policy="slack",
        admission="degrade",
        faults=plan,
    )
    return sim.run()


class TestEndToEndOrdering:
    def test_batch_drain_preserves_time_seq_order(self, traced_queue):
        run_churned_preemptive()
        (events,) = traced_queue.instances
        trace = events.trace
        kinds = {f[2] for f in trace}
        assert kinds == set(EventKind), (
            "the churned+preemptive run must exercise every event kind, "
            f"missing: {set(EventKind) - kinds}"
        )
        # The popped stream is the executed order.  Time never goes
        # backwards (modulo one ulp: a dependent spawned at a completion
        # re-derives its arrival time as ``(now - offset) + offset``,
        # which can round a hair below ``now`` — such an arrival starts
        # its own batch, exactly as the per-event loop ordered it), and
        # within one timestamp batch events drain in strictly increasing
        # sequence order — i.e. exactly (time, seq).
        for prev, cur in zip(trace, trace[1:]):
            assert cur[0] >= prev[0] - 1e-12, "event time went backwards"
            if cur[0] == prev[0]:
                assert cur[1] > prev[1], (
                    "same-timestamp batch drained out of seq order"
                )

    def test_join_precedes_same_instant_arrivals(self, traced_queue):
        run_churned_preemptive()
        (events,) = traced_queue.instances
        # Per session: the JOIN must drain before any same-instant work
        # of that session (its arrivals are only scheduled by the JOIN,
        # so they carry later sequence numbers even at the same time).
        first_join: dict[int, int] = {}
        for i, fields in enumerate(events.trace):
            if fields[2] is EventKind.SESSION_JOIN:
                first_join[fields[5]] = i
        assert set(first_join) == {0, 1, 2}
        for i, fields in enumerate(events.trace):
            if fields[2] in (EventKind.ARRIVAL, EventKind.COMPLETION):
                assert i > first_join[fields[5]], (
                    "work event drained before its session joined"
                )

    def test_departed_session_gets_no_late_dispatch(self):
        result = run_churned_preemptive()
        session = result.sessions[1]
        spec_windows = {0: (0.0, None), 1: (0.05, 0.2), 2: (0.0, None)}
        for record in result.records:
            arrival, departure = spec_windows[record.session_id]
            assert record.start_s >= arrival
            if departure is not None:
                assert record.start_s < departure, (
                    "work dispatched at/after the session's departure"
                )
        # The LEAVE retired everything of session 1 that had not already
        # completed — waiting work, pending segment chains, in-flight
        # successors — so every request either finished or is dropped.
        assert session.requests, "expected session 1 to stream frames"
        unresolved = [
            r for r in session.requests
            if r.end_time_s is None and not r.dropped
        ]
        assert not unresolved, (
            "departed session left requests neither completed nor dropped"
        )
        assert any(r.dropped for r in session.requests), (
            "expected the departure to retire at least one frame"
        )

    def test_churned_preemptive_run_is_deterministic(self):
        a = run_churned_preemptive()
        b = run_churned_preemptive()
        rows_a = [(r.start_s, r.end_s, r.sub_index, r.model_code,
                   r.segment_index, r.session_id, r.dvfs)
                  for r in a.records]
        rows_b = [(r.start_s, r.end_s, r.sub_index, r.model_code,
                   r.segment_index, r.session_id, r.dvfs)
                  for r in b.records]
        assert rows_a == rows_b


def test_event_heap_holds_o_sessions_entries(traced_queue):
    """Root arrivals stream from one cursor per session phase, so the
    heap never holds the run's whole schedule: at most a root arrival
    and a lifecycle event or spawned dependent per session, plus one
    completion per engine.  (Every push lands between two pops, so the
    size seen at each pop is the high-water mark.)"""
    sessions = 64
    system = build_accelerator("J", 8192)
    replicate(
        get_scenario("vr_gaming"),
        system,
        make_scheduler("latency_greedy"),
        sessions,
        duration_s=0.5,
    ).run()
    (events,) = traced_queue.instances
    arrivals = sum(f[2] is EventKind.ARRIVAL for f in events.trace)
    assert arrivals > 3000, "the run should stream thousands of frames"
    assert max(events.sizes) <= 2 * sessions + system.num_subs


def test_windows_churn_cell_matches_replicate_contract():
    """The golden-table churn cells' window plumbing stays stable."""
    windows = [SessionWindow(0.0, None), SessionWindow(0.01, 0.2)]
    result = replicate(
        get_scenario("vr_gaming"),
        build_accelerator("J", 8192),
        make_scheduler("latency_greedy"),
        2,
        duration_s=0.25,
        windows=windows,
    ).run()
    for record in result.sessions[1].records:
        assert 0.01 <= record.start_s < 0.2
