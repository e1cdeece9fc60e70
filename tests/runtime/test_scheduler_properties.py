"""Property tests: invariants that must hold across ALL registered policies.

Each policy is exercised both directly (randomised select() calls) and
end-to-end through the multi-tenant engine, whose ExecutionEngine raises
on any occupancy violation — so a completed run is itself the proof that
the policy never dispatched to a busy engine.
"""

from __future__ import annotations

import random

import pytest
from sim_helpers import price_table, replicate

from repro.hardware import build_accelerator
from repro.runtime import (
    SCHEDULERS,
    EarliestDeadlineScheduler,
    EngineFleet,
    ExecutionEngine,
    RateMonotonicScheduler,
    RoundRobinScheduler,
    WorkItem,
    make_scheduler,
)
from repro.workload import UNIT_MODELS, InferenceRequest, get_scenario

POLICIES = sorted(SCHEDULERS)
MODEL_CODES = sorted(UNIT_MODELS)


@pytest.fixture(scope="module")
def quad():
    return build_accelerator("H", 4096)  # four engines


@pytest.fixture(scope="module")
def table(quad):
    return price_table(quad)


@pytest.fixture(scope="module")
def engines(quad):
    return EngineFleet([ExecutionEngine(sub) for sub in quad.subs]).engines


def random_case(rng, engines):
    """A random scheduling situation: some waiting work, some idle engines."""
    waiting = [
        WorkItem(InferenceRequest(
            model_code=rng.choice(MODEL_CODES),
            model_frame=frame,
            request_time_s=round(rng.uniform(0.0, 0.5), 4),
            deadline_s=round(rng.uniform(0.5, 1.0), 4),
        ))
        for frame in range(rng.randint(1, 6))
    ]
    waiting.sort(key=lambda w: w.request.request_time_s)
    idle = [
        engines[i] for i in sorted(rng.sample(range(4), rng.randint(1, 4)))
    ]
    now = max(w.request.request_time_s for w in waiting)
    return now, waiting, idle


class TestRegistryConstruction:
    @pytest.mark.parametrize("name", POLICIES)
    def test_all_policies_constructible(self, name):
        assert make_scheduler(name) is not None

    def test_kwargs_forwarded_to_rate_monotonic(self):
        periods = {"HT": 1 / 45, "ES": 1 / 60}
        scheduler = make_scheduler("rate_monotonic", periods=periods)
        assert isinstance(scheduler, RateMonotonicScheduler)
        assert scheduler.periods == periods

    def test_unknown_name_still_raises(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            make_scheduler("magic")


class TestPickInvariants:
    @pytest.mark.parametrize("name", POLICIES)
    def test_never_picks_busy_engine_or_foreign_request(
        self, name, quad, engines, table
    ):
        rng = random.Random(hash(name) & 0xFFFF)
        for _ in range(50):
            scheduler = make_scheduler(name)
            now, waiting, idle = random_case(rng, engines)
            choice = scheduler.select(now, waiting, idle, quad, table)
            assert choice is not None  # work and capacity -> must dispatch
            item, engine = choice
            assert any(item is w for w in waiting)
            assert any(engine is e for e in idle)

    @pytest.mark.parametrize("name", POLICIES)
    def test_no_dispatch_without_work_or_capacity(self, name, quad, engines,
                                                  table):
        scheduler = make_scheduler(name)
        item = WorkItem(InferenceRequest("HT", 0, 0.0, 0.033))
        assert scheduler.select(0.0, [], engines[:2], quad, table) is None
        assert scheduler.select(0.0, [item], [], quad, table) is None

    def test_edf_picks_earliest_deadline(self, quad, engines, table):
        rng = random.Random(99)
        scheduler = EarliestDeadlineScheduler()
        for _ in range(50):
            now, waiting, idle = random_case(rng, engines)
            item, _ = scheduler.select(now, waiting, idle, quad, table)
            assert item.request.deadline_s == min(
                w.request.deadline_s for w in waiting
            )

    def test_round_robin_rotor_resets(self, quad, engines, table):
        scheduler = RoundRobinScheduler()
        item = WorkItem(InferenceRequest("HT", 0, 0.0, 0.033))
        first = [
            scheduler.select(0.0, [item], engines, quad, table)[1].index
            for _ in range(3)
        ]
        scheduler.reset()
        again = [
            scheduler.select(0.0, [item], engines, quad, table)[1].index
            for _ in range(3)
        ]
        assert first == again == [0, 1, 2]


class TestEndToEndInvariants:
    @pytest.mark.parametrize("name", POLICIES)
    @pytest.mark.parametrize("granularity", ["model", "segment"])
    def test_run_completes_without_occupancy_violation(
        self, name, granularity
    ):
        # ExecutionEngine.begin raises on double-occupancy, so finishing
        # the run proves the policy never dispatched to a busy engine.
        result = replicate(
            get_scenario("vr_gaming"),
            build_accelerator("J", 8192),
            make_scheduler(name),
            2,
            granularity=granularity,
        ).run()
        by_engine: dict[int, list] = {}
        for record in result.records:
            by_engine.setdefault(record.sub_index, []).append(record)
        for records in by_engine.values():
            records.sort(key=lambda r: r.start_s)
            for a, b in zip(records, records[1:]):
                assert a.end_s <= b.start_s + 1e-12

    @pytest.mark.parametrize("name", POLICIES)
    def test_multi_session_runs_deterministic_per_seed(self, name):
        def run(seed):
            result = replicate(
                get_scenario("ar_assistant"),
                build_accelerator("J", 8192),
                make_scheduler(name),
                3,
                base_seed=seed,
            ).run()
            return [
                (s.session_id, r.model_code, r.model_frame,
                 r.end_time_s, r.dropped)
                for s in result.sessions
                for r in s.requests
            ]

        assert run(11) == run(11)
        assert run(11) != run(12)
