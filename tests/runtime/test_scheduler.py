"""Tests for the pluggable schedulers."""

from __future__ import annotations

import dataclasses

import pytest
from sim_helpers import replicate

from repro.costmodel import CostTable
from repro.hardware import build_accelerator
from repro.runtime import (
    SCHEDULERS,
    EarliestDeadlineScheduler,
    EngineFleet,
    ExecutionEngine,
    LatencyGreedyScheduler,
    MultiScenarioSimulator,
    RoundRobinScheduler,
    SessionSpec,
    WorkItem,
    make_scheduler,
)
from repro.workload import InferenceRequest, get_scenario


def item(code="HT", frame=0, t=0.0, deadline=0.033):
    return WorkItem(InferenceRequest(code, frame, t, deadline))


def engines_of(system):
    """The system's engines, built as the event loop's fleet builds them."""
    return EngineFleet([ExecutionEngine(sub) for sub in system.subs]).engines


@pytest.fixture(scope="module")
def hda_j():
    return build_accelerator("J", 4096)  # WS@2048 + OS@2048


@pytest.fixture(scope="module")
def hda_j_engines(hda_j):
    return engines_of(hda_j)


@pytest.fixture(scope="module")
def quad():
    return build_accelerator("H", 4096)


@pytest.fixture(scope="module")
def quad_engines(quad):
    return engines_of(quad)


@pytest.fixture(scope="module")
def table():
    return CostTable()


class TestFactory:
    def test_registry_names(self):
        assert set(SCHEDULERS) == {
            "latency_greedy", "round_robin", "edf", "rate_monotonic",
        }

    def test_make_scheduler(self):
        assert isinstance(make_scheduler("latency_greedy"),
                          LatencyGreedyScheduler)
        assert isinstance(make_scheduler("round_robin"), RoundRobinScheduler)
        assert isinstance(make_scheduler("edf"), EarliestDeadlineScheduler)

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            make_scheduler("magic")


class TestLatencyGreedy:
    def test_returns_none_when_nothing_waiting(self, hda_j, hda_j_engines,
                                               table):
        s = LatencyGreedyScheduler()
        assert s.select(0.0, [], hda_j_engines, hda_j, table) is None

    def test_returns_none_when_no_idle_engine(self, hda_j, table):
        s = LatencyGreedyScheduler()
        assert s.select(0.0, [item()], [], hda_j, table) is None

    def test_picks_oldest_request(self, hda_j, hda_j_engines, table):
        s = LatencyGreedyScheduler()
        older, newer = item(frame=0, t=0.0), item(frame=1, t=0.1)
        choice = s.select(0.2, [older, newer], hda_j_engines, hda_j, table)
        assert choice[0] is older

    def test_picks_fastest_engine_for_model(self, hda_j, hda_j_engines,
                                            table):
        ws, os_ = hda_j_engines
        # SR (transformer) strongly prefers the WS engine (index 0).
        s = LatencyGreedyScheduler()
        _, engine = s.select(0.0, [item("SR")], hda_j_engines, hda_j, table)
        assert engine is ws
        # DE (depthwise-heavy) prefers the OS engine (index 1).
        _, engine = s.select(0.0, [item("DE")], hda_j_engines, hda_j, table)
        assert engine is os_

    def test_respects_idle_restriction(self, hda_j, hda_j_engines, table):
        s = LatencyGreedyScheduler()
        os_ = hda_j_engines[1]
        _, engine = s.select(0.0, [item("SR")], [os_], hda_j, table)
        assert engine is os_  # fastest engine is busy; take what's idle


class TestRoundRobin:
    def test_cycles_engines(self, quad, quad_engines, table):
        s = RoundRobinScheduler()
        engines = []
        for frame in range(4):
            _, engine = s.select(0.0, [item(frame=frame)], quad_engines,
                                 quad, table)
            engines.append(engine)
        assert all(a is b for a, b in zip(engines, quad_engines, strict=True))

    def test_skips_busy_engines(self, quad, quad_engines, table):
        s = RoundRobinScheduler()
        idle = quad_engines[2:]
        _, engine = s.select(0.0, [item()], idle, quad, table)
        assert engine is quad_engines[2]

    def test_reset(self, quad, quad_engines, table):
        s = RoundRobinScheduler()
        s.select(0.0, [item()], quad_engines, quad, table)
        s.reset()
        _, engine = s.select(0.0, [item(frame=1)], quad_engines, quad, table)
        assert engine is quad_engines[0]

    def test_none_when_empty(self, quad, quad_engines, table):
        assert RoundRobinScheduler().select(
            0.0, [], quad_engines[:1], quad, table
        ) is None


class TestEDF:
    def test_picks_most_urgent(self, hda_j, hda_j_engines, table):
        s = EarliestDeadlineScheduler()
        relaxed = item("HT", t=0.0, deadline=0.5)
        urgent = item("ES", t=0.1, deadline=0.2)
        choice = s.select(0.2, [relaxed, urgent], hda_j_engines, hda_j,
                          table)
        assert choice[0] is urgent

    def test_ties_break_on_request_time(self, hda_j, hda_j_engines, table):
        s = EarliestDeadlineScheduler()
        a = item("HT", t=0.05, deadline=0.2)
        b = item("ES", t=0.01, deadline=0.2)
        choice = s.select(0.1, [a, b], hda_j_engines[:1], hda_j, table)
        assert choice[0] is b


class BusyEnginePolicy:
    """A faulty policy: answers with an engine that is not idle.

    It remembers every engine it has been offered and returns the
    lowest-indexed one that is busy now, if any.
    """

    def __init__(self):
        self.engines = {}

    def select(self, now_s, waiting, idle_engines, system, costs):
        if not waiting or not idle_engines:
            return None
        self.engines.update((e.index, e) for e in idle_engines)
        idle = {e.index for e in idle_engines}
        busy = [e for i, e in sorted(self.engines.items()) if i not in idle]
        return waiting[0], busy[0] if busy else idle_engines[0]


class PreemptToBusyEnginePolicy(BusyEnginePolicy):
    """Preempts every resuming chain, then names a busy engine.

    Only the ``select`` call that follows ``should_preempt`` misbehaves,
    so the busy engine reaches the event loop's resume pass alone.
    """

    preemptive = True

    def __init__(self):
        super().__init__()
        self.preempting = False

    def should_preempt(self, now_s, resuming, waiting, system, costs):
        self.preempting = True
        return True

    def select(self, now_s, waiting, idle_engines, system, costs):
        choice = super().select(now_s, waiting, idle_engines, system, costs)
        if not self.preempting and choice is not None:
            choice = choice[0], idle_engines[0]
        self.preempting = False
        return choice


class CopiedItemPolicy:
    """A faulty policy: answers with a copy of the head item."""

    def select(self, now_s, waiting, idle_engines, system, costs):
        if not waiting or not idle_engines:
            return None
        return dataclasses.replace(waiting[0]), idle_engines[0]


class PickOnlyPolicy:
    """A policy written against a (request, engine index) interface."""

    def pick(self, now_s, waiting, idle_engines, system, costs):
        return None


def run_policy(policy, granularity="model"):
    return replicate(
        get_scenario("vr_gaming"), build_accelerator("J", 8192), policy, 4,
        duration_s=0.25, granularity=granularity,
    ).run()


class TestEventLoopGuards:
    def test_policy_without_select_rejected_at_construction(self):
        with pytest.raises(TypeError, match=(
            r"select\(now_s, waiting, idle_engines, system, costs\)"
        )):
            MultiScenarioSimulator(
                sessions=[SessionSpec(0, get_scenario("vr_gaming"))],
                system=build_accelerator("J", 8192),
                scheduler=PickOnlyPolicy(),
            )

    def test_busy_engine_rejected_when_filling_engines(self):
        with pytest.raises(ValueError, match="chose busy engine"):
            run_policy(BusyEnginePolicy())

    def test_busy_engine_rejected_when_preempting(self):
        with pytest.raises(ValueError, match="chose busy engine"):
            run_policy(PreemptToBusyEnginePolicy(), granularity="segment")

    def test_item_must_be_the_waiting_one(self):
        with pytest.raises(ValueError, match="not waiting"):
            run_policy(CopiedItemPolicy())
