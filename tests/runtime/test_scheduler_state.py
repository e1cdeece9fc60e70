"""Stateful-scheduler hygiene: shared policy instances must be reusable.

Two of the registered policies carry mutable state — the round-robin
rotor and rate-monotonic's lazily-inferred periods.  Before the
``reset()`` protocol, reusing one policy object across runs leaked the
first run's state into the second, making back-to-back results
order-dependent.  ``MultiScenarioSimulator.run()`` (and therefore the
whole execute funnel, which every front end flows through) now resets
the policy at the start of every run.
"""

from __future__ import annotations

import pytest
from sim_helpers import price_table, replicate, run_single

from repro.hardware import build_accelerator
from repro.runtime import (
    EngineFleet,
    ExecutionEngine,
    MultiScenarioSimulator,
    RateMonotonicScheduler,
    RoundRobinScheduler,
    SessionSpec,
    WorkItem,
    make_scheduler,
)
from repro.workload import InferenceRequest, get_scenario

DURATION_S = 0.25


def req(code="HT", frame=0, t=0.0, deadline=0.033):
    return InferenceRequest(code, frame, t, deadline)


@pytest.fixture(scope="module")
def system():
    return build_accelerator("J", 8192)  # two engines: the rotor matters


@pytest.fixture(scope="module")
def engines(system):
    return EngineFleet([ExecutionEngine(sub) for sub in system.subs]).engines


def run_once(scheduler, system, sessions=4):
    return replicate(
        get_scenario("vr_gaming"), system, scheduler, sessions,
        duration_s=DURATION_S,
    ).run()


def schedule_of(result):
    return [
        (r.start_s, r.sub_index, r.session_id, r.model_code)
        for r in result.records
    ]


class TestResetProtocol:
    @pytest.mark.parametrize(
        "name", ["latency_greedy", "round_robin", "edf", "rate_monotonic"],
    )
    def test_back_to_back_runs_are_identical(self, name, system):
        """One shared policy instance; the second run must match the first."""
        from repro.core.aggregate import score_sessions

        scheduler = make_scheduler(name)
        first = run_once(scheduler, system)
        second = run_once(scheduler, system)
        assert schedule_of(first) == schedule_of(second)
        assert [
            (s.scenario_name, s.overall, s.rt, s.energy, s.qoe)
            for s in score_sessions(first)
        ] == [
            (s.scenario_name, s.overall, s.rt, s.energy, s.qoe)
            for s in score_sessions(second)
        ]

    def test_shared_rotor_previously_leaked(self, system):
        # The regression this protocol fixes: advance the rotor by hand,
        # as a previous run would have left it, and check run() heals it.
        scheduler = RoundRobinScheduler()
        pristine = schedule_of(run_once(scheduler, system))
        scheduler._next_engine = 1
        assert schedule_of(run_once(scheduler, system)) == pristine

    def test_single_tenant_facade_resets_too(self, system):
        # A one-session run, the single-scenario case, resets as well.
        scheduler = RoundRobinScheduler(_next_engine=1)
        result = run_single(
            get_scenario("vr_gaming"), system, scheduler,
            duration_s=DURATION_S,
        )
        fresh = run_single(
            get_scenario("vr_gaming"), system, RoundRobinScheduler(),
            duration_s=DURATION_S,
        )
        assert schedule_of(result) == schedule_of(fresh)

    def test_memoizing_rate_monotonic_is_run_order_independent(
        self, system
    ):
        scheduler = RateMonotonicScheduler(memoize_periods=True)
        first = schedule_of(run_once(scheduler, system))
        # A different run in between would previously have polluted
        # self.periods for the repeat.
        run_once(scheduler, system, sessions=2)
        assert schedule_of(run_once(scheduler, system)) == first


class TestRateMonotonicMemoization:
    def test_memoizes_inferred_period_per_model_code(self, system, engines):
        scheduler = RateMonotonicScheduler(memoize_periods=True)
        first = WorkItem(req("HT", 0, t=0.0, deadline=0.020))
        scheduler.select(0.0, [first], engines[:1], system,
                         price_table(system))
        assert scheduler.periods["HT"] == pytest.approx(0.020)
        # A later request of the same model with different slack reuses
        # the memoized period instead of re-inferring.
        later = req("HT", 5, t=0.5, deadline=0.590)
        assert scheduler._period(later) == pytest.approx(0.020)
        assert scheduler.periods["HT"] == pytest.approx(0.020)

    def test_default_reinfers_per_request(self, system, engines):
        # The historical behaviour (pinned by the golden schedules):
        # without opting in, nothing is memoized and each request's own
        # slack decides its priority.
        scheduler = RateMonotonicScheduler()
        scheduler.select(0.0, [WorkItem(req("HT", 0, t=0.0, deadline=0.020))],
                         engines[:1], system, price_table(system))
        assert "HT" not in scheduler.periods
        assert scheduler._period(
            req("HT", 5, t=0.5, deadline=0.590)
        ) == pytest.approx(0.090)

    def test_provided_periods_always_win(self, system):
        scheduler = RateMonotonicScheduler(
            periods={"HT": 1 / 45}, memoize_periods=True
        )
        assert scheduler._period(
            req("HT", 0, t=0.0, deadline=0.5)
        ) == pytest.approx(1 / 45)
        assert scheduler.periods["HT"] == pytest.approx(1 / 45)

    def test_callers_periods_dict_is_never_mutated(self):
        callers = {"HT": 1 / 45}
        scheduler = RateMonotonicScheduler(
            periods=callers, memoize_periods=True
        )
        scheduler._period(req("ES", 0, t=0.0, deadline=0.033))
        assert callers == {"HT": 1 / 45}  # inferred values stay inside
        assert "ES" in scheduler.periods

    def test_reset_clears_inferred_keeps_provided(self):
        scheduler = RateMonotonicScheduler(
            periods={"HT": 1 / 45}, memoize_periods=True
        )
        scheduler._period(req("ES", 0, t=0.0, deadline=0.033))
        assert "ES" in scheduler.periods
        scheduler.reset()
        assert scheduler.periods == {"HT": pytest.approx(1 / 45)}

    def test_floor_guards_degenerate_slack(self):
        scheduler = RateMonotonicScheduler(memoize_periods=True)
        degenerate = req("GE", 0, t=0.5, deadline=0.4)  # negative slack
        assert scheduler._period(degenerate) == pytest.approx(1e-6)


class TestRoundRobinRotor:
    def test_set_probe_preserves_pick_order(self, system, engines):
        # The rotor probes a dict of the idle engines; choices must be
        # those of a scan of the idle list (the golden schedules pin the
        # full behaviour — this unit test pins the probe logic in
        # isolation).
        scheduler = RoundRobinScheduler()
        prices = price_table(system)
        waiting = [WorkItem(req())]
        ws, os_ = engines

        def chosen(idle):
            return scheduler.select(0.0, waiting, idle, system, prices)[1]

        assert chosen([ws, os_]) is ws
        assert chosen([ws, os_]) is os_
        assert chosen([ws, os_]) is ws
        # Busy engine 0: the rotor skips to 1 and wraps.
        assert chosen([os_]) is os_
        assert chosen([os_]) is os_
        assert chosen([ws]) is ws


class TestDegenerateResults:
    def test_zero_duration_simulator_rejected(self, system):
        with pytest.raises(ValueError, match="duration_s must be > 0"):
            MultiScenarioSimulator(
                sessions=[SessionSpec(0, get_scenario("vr_gaming"))],
                system=system,
                scheduler=make_scheduler("latency_greedy"),
                duration_s=0.0,
            )

    def test_spec_zero_duration_rejected(self):
        from repro.api import RunSpec

        with pytest.raises(ValueError, match="duration_s"):
            RunSpec(scenario="vr_gaming", duration_s=0.0)
