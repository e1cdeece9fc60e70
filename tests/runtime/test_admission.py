"""QoE admission control: controllers, mechanisms and properties.

Three layers of coverage:

* Unit tests for the controllers themselves (EWMA thresholds, shed
  victim choice, priced degradation steps, quality retention).
* The ``none``-policy bit-identity contract: an explicit
  ``admission="none"`` run must reproduce every golden schedule
  checksum — static and dynamic — because no controller object means no
  CONTROL_TICK events at all.
* The never-worse properties: at equal seeds, ``shed`` never increases
  the deadline-miss rate versus ``none`` under any registered
  scheduler, and ``degrade`` strictly reduces it under the
  throughput-greedy family (``latency_greedy``, ``round_robin``).  The
  EDF caveat — degradation converting freshness-drops into late
  completions at deep saturation — is documented in
  ``repro.runtime.admission`` and deliberately *not* asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import pytest

from sim_helpers import replicate
from test_schedule_equivalence import (
    GOLDEN,
    GOLDEN_DYNAMIC,
    checksum_of,
)

from repro.hardware import build_accelerator
from repro.runtime import (
    ADMISSION_POLICIES,
    DEGRADATION_LADDER,
    ControlAction,
    DegradeController,
    EventKind,
    SessionView,
    ShedController,
    make_admission,
    make_scheduler,
    quality_retention,
)
from repro.workload import get_scenario

VR = get_scenario("vr_gaming")


# -- factory and constants ---------------------------------------------------


def test_policies_mirror_api_spec():
    from repro.api.spec import ADMISSION_POLICIES as SPEC_POLICIES

    assert ADMISSION_POLICIES == SPEC_POLICIES == ("none", "shed", "degrade")


def test_make_admission_none_installs_no_controller():
    assert make_admission("none") is None


def test_make_admission_builds_controllers():
    assert isinstance(make_admission("shed"), ShedController)
    assert isinstance(make_admission("degrade"), DegradeController)


def test_make_admission_rejects_unknown_policy():
    with pytest.raises(ValueError, match="unknown admission policy"):
        make_admission("panic")


def test_control_tick_is_a_first_class_event_kind():
    assert EventKind.CONTROL_TICK.value == "control_tick"


def test_ladder_rates_strictly_decrease():
    factors = [step.rate_factor for step in DEGRADATION_LADDER]
    assert factors[0] == 1.0
    assert all(a > b for a, b in zip(factors, factors[1:]))
    assert DEGRADATION_LADDER[0].bits is None


# -- ShedController ----------------------------------------------------------


def view(session_id: int, level: int = 0, remaining_s: float = 1.0):
    return SessionView(session_id, level, VR, remaining_s)


def test_shed_admits_and_stays_quiet_before_min_observations():
    ctl = ShedController()
    for _ in range(ctl.min_observations - 1):
        ctl.observe(0, True)
    assert ctl.admit(0.1, 7) is None
    assert ctl.decide(0.1, [view(0), view(1)], lambda c: 0.01, 2) == []


def overload(ctl, session_id: int = 0, n: int | None = None) -> None:
    for _ in range(n if n is not None else ctl.min_observations * 3):
        ctl.observe(session_id, True)


def test_shed_rejects_joins_under_overload():
    ctl = ShedController()
    overload(ctl)
    action = ctl.admit(0.1, 7)
    assert action is not None
    assert action.kind == "reject"
    assert action.session_id == 7
    assert action.miss_ewma > ctl.threshold


def test_shed_drops_the_highest_session_id_first():
    ctl = ShedController()
    overload(ctl)
    actions = ctl.decide(0.1, [view(0), view(2), view(1)], lambda c: 0.01, 2)
    assert [a.session_id for a in actions] == [2]
    assert actions[0].kind == "shed"


def test_shed_waits_for_effect_between_actions():
    ctl = ShedController()
    overload(ctl)
    assert ctl.decide(0.1, [view(0), view(1)], lambda c: 0.01, 2)
    # No further completions observed -> no second shed yet.
    assert ctl.decide(0.12, [view(0), view(1)], lambda c: 0.01, 2) == []
    overload(ctl, n=ctl.min_observations)
    assert ctl.decide(0.14, [view(0), view(1)], lambda c: 0.01, 2)


def test_shed_never_drops_below_min_keep():
    ctl = ShedController()
    overload(ctl)
    assert ctl.decide(0.1, [view(0)], lambda c: 0.01, 2) == []


def test_shed_recovers_when_misses_stop():
    ctl = ShedController()
    overload(ctl)
    for _ in range(60):
        ctl.observe(0, False)
    assert ctl.admit(0.5, 9) is None


# -- DegradeController -------------------------------------------------------


def test_degrade_never_rejects_at_join():
    ctl = DegradeController()
    overload(ctl, session_id=3)
    assert ctl.admit(0.1, 3) is None


def test_degrade_steps_a_struggling_session_down_the_ladder():
    ctl = DegradeController()
    overload(ctl, session_id=3)
    actions = ctl.decide(0.1, [view(3)], lambda c: 0.005, 2)
    assert len(actions) == 1
    action = actions[0]
    assert action.kind == "degrade"
    assert action.session_id == 3
    assert action.level >= 1
    assert "ladder level 0 ->" in action.reason


def test_degrade_prices_the_step_by_observed_miss_fraction():
    ctl = DegradeController()
    # EWMA saturates to ~1.0: target load ~0 -> deepest rung.
    overload(ctl, session_id=0)
    deep = ctl.decide(0.1, [view(0)], lambda c: 0.005, 2)[0].level
    assert deep == len(DEGRADATION_LADDER) - 1
    # A moderately-over-threshold EWMA (~0.40 for this mix) wants a
    # milder rung than the saturated one.
    ctl.reset()
    for missed in [False, False, True] * 6:
        ctl.observe(0, missed)
    assert ctl._miss_ewma[0] > ctl.threshold
    mild = ctl.decide(0.2, [view(0)], lambda c: 0.005, 2)[0].level
    assert mild <= deep


def test_degrade_ignores_quiet_and_expiring_sessions():
    ctl = DegradeController()
    overload(ctl, session_id=0)
    overload(ctl, session_id=1)
    views = [
        view(0, remaining_s=ctl.min_remaining_s / 2),  # about to switch
        view(1),
        view(2),  # no observations at all
    ]
    actions = ctl.decide(0.1, views, lambda c: 0.005, 2)
    assert [a.session_id for a in actions] == [1]


def test_degrade_waits_for_effect_before_escalating():
    ctl = DegradeController()
    overload(ctl, session_id=0)
    first = ctl.decide(0.1, [view(0)], lambda c: 0.005, 2)
    assert first
    after = ctl.decide(0.12, [view(0, level=first[0].level)],
                       lambda c: 0.005, 2)
    assert after == []  # observations were reset by the action


def test_degrade_stops_at_the_bottom_of_the_ladder():
    ctl = DegradeController()
    overload(ctl, session_id=0)
    bottom = len(DEGRADATION_LADDER) - 1
    assert ctl.decide(0.1, [view(0, level=bottom)], lambda c: 0.005, 2) == []


# -- quality retention -------------------------------------------------------


def test_quality_retention_is_full_at_level_zero():
    assert quality_retention(VR, 0) == 1.0


def test_quality_retention_decreases_down_the_ladder():
    values = [
        quality_retention(VR, level)
        for level in range(len(DEGRADATION_LADDER))
    ]
    assert all(0.0 < v <= 1.0 for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0


def test_quality_retention_clamps_past_the_ladder_end():
    bottom = len(DEGRADATION_LADDER) - 1
    assert quality_retention(VR, bottom + 5) == quality_retention(VR, bottom)


def test_quality_retention_rejects_negative_levels():
    with pytest.raises(ValueError):
        quality_retention(VR, -1)


# -- none-policy bit-identity ------------------------------------------------


def run_case_with_none_policy(scheduler, granularity, sessions,
                              churn=0.0, preemptive=False, dvfs="static"):
    """The golden runner, but with ``admission="none"`` passed explicitly."""
    from test_schedule_equivalence import (
        ACCELERATOR,
        BASE_SEED,
        DURATION_S,
        PES,
        SCENARIO,
    )
    from repro.workload import churn_windows

    kwargs = {"preemptive": True} if preemptive else {}
    windows = (
        churn_windows(sessions, DURATION_S, churn, BASE_SEED)
        if churn
        else None
    )
    return replicate(
        get_scenario(SCENARIO),
        build_accelerator(ACCELERATOR, PES),
        make_scheduler(scheduler, **kwargs),
        sessions,
        base_seed=BASE_SEED,
        duration_s=DURATION_S,
        granularity=granularity,
        windows=windows,
        dvfs_policy=dvfs,
        admission="none",
    ).run()


@pytest.mark.parametrize(
    "scheduler,granularity,sessions", sorted(GOLDEN), ids=lambda v: str(v)
)
def test_none_policy_leaves_static_goldens_unchanged(scheduler, granularity,
                                                     sessions):
    result = run_case_with_none_policy(scheduler, granularity, sessions)
    assert checksum_of(result) == GOLDEN[(scheduler, granularity, sessions)]


@pytest.mark.parametrize(
    "scheduler,granularity,sessions,churn,preemptive,dvfs",
    sorted(GOLDEN_DYNAMIC),
    ids=lambda v: str(v),
)
def test_none_policy_leaves_dynamic_goldens_unchanged(
    scheduler, granularity, sessions, churn, preemptive, dvfs
):
    result = run_case_with_none_policy(
        scheduler, granularity, sessions, churn, preemptive, dvfs
    )
    key = (scheduler, granularity, sessions, churn, preemptive, dvfs)
    assert checksum_of(result) == GOLDEN_DYNAMIC[key]


def test_none_policy_stamps_no_admission_record():
    result = run_case_with_none_policy("latency_greedy", "model", 4)
    assert all(s.admission is None for s in result.sessions)


# -- controlled runs ---------------------------------------------------------


@lru_cache(maxsize=None)
def controlled_run(scheduler: str, granularity: str, sessions: int,
                   policy: str):
    return replicate(
        get_scenario("vr_gaming"),
        build_accelerator("J", 8192),
        make_scheduler(scheduler),
        sessions,
        base_seed=0,
        duration_s=0.25,
        granularity=granularity,
        admission=policy,
    ).run()


def miss_rate(result) -> float:
    completed = sum(len(s.completed()) for s in result.sessions)
    missed = sum(s.missed_deadlines() for s in result.sessions)
    return missed / completed if completed else 0.0


def test_shed_stamps_records_and_retires_victims():
    result = controlled_run("latency_greedy", "model", 16, "shed")
    records = [s.admission for s in result.sessions]
    assert all(r is not None and r.policy == "shed" for r in records)
    shed = [r for r in records if r.shed]
    assert shed, "overload at 16 sessions must shed someone"
    assert len(shed) < 16, "min_keep must preserve a survivor"
    for record in shed:
        assert record.shed_reason
        assert record.actions
        assert record.actions[-1].kind in ("shed", "reject")
    # A shed session's stream keeps counting against it as drops.
    by_id = {
        s.session_id: s for s in result.sessions
    }
    victim = max(r.actions[-1].session_id for r in shed)
    assert len(by_id[victim].dropped()) > 0


def test_degrade_stamps_levels_actions_and_quality():
    result = controlled_run("latency_greedy", "model", 16, "degrade")
    records = [s.admission for s in result.sessions]
    assert all(r is not None and r.policy == "degrade" for r in records)
    assert all(not r.shed for r in records)
    degraded = [r for r in records if r.degradation_level > 0]
    assert degraded, "overload at 16 sessions must degrade someone"
    for record in degraded:
        assert record.actions
        assert all(a.kind == "degrade" for a in record.actions)
        assert record.actions[-1].level == record.degradation_level
        assert quality_retention(VR, record.degradation_level) < 1.0


@dataclass
class _DegradeAt:
    """Degrades session 0 one rung at the first control tick at or after
    ``at_s`` (test instrumentation)."""

    at_s: float
    period_s: float = 0.02
    fired: bool = False

    def reset(self) -> None:
        self.fired = False

    def admit(self, now_s, session_id):
        return None

    def observe(self, session_id, missed):
        pass

    def decide(self, now_s, sessions, latency_of, num_engines):
        if self.fired or now_s < self.at_s - 1e-9:
            return []
        self.fired = True
        return [ControlAction(now_s, "degrade", 0, "test", 0.0, level=1)]


@pytest.mark.parametrize("at_s,spawned", [
    # The phase's last root row (HT, at 0.233 s) has popped by 0.24 s:
    # only the dependents and the degraded stream move the counts.  An
    # uncount that took the consumed last row for a pending one would
    # read HT 12.
    (0.24, {"ES": 16, "GE": 16, "HT": 13}),
    # Mid-phase: the rows still to come are uncounted.
    (0.10, {"ES": 13, "GE": 13, "HT": 11}),
])
def test_degrade_uncounts_only_the_rows_still_to_come(at_s, spawned):
    """A degrade replaces the cancelled phase's not-yet-arrived frames
    with the degraded stream, so exactly those leave the QoE
    denominators."""
    result = replicate(
        VR, build_accelerator("J", 8192), make_scheduler("latency_greedy"),
        1, duration_s=0.25, admission=_DegradeAt(at_s),
    ).run()
    (session,) = result.sessions
    assert [a.time_s for a in session.admission.actions] == [
        pytest.approx(at_s)
    ]
    assert session.spawned_frames == spawned


def test_controlled_runs_are_deterministic():
    a = replicate(
        get_scenario("vr_gaming"), build_accelerator("J", 8192),
        make_scheduler("latency_greedy"), 16, base_seed=0,
        duration_s=0.25, admission="degrade",
    ).run()
    b = replicate(
        get_scenario("vr_gaming"), build_accelerator("J", 8192),
        make_scheduler("latency_greedy"), 16, base_seed=0,
        duration_s=0.25, admission="degrade",
    ).run()
    assert checksum_of(a) == checksum_of(b)


# -- never-worse properties --------------------------------------------------


@pytest.mark.parametrize(
    "scheduler", ["latency_greedy", "round_robin", "edf", "rate_monotonic"]
)
def test_shed_never_increases_miss_rate(scheduler):
    """Shedding only removes offered load — under every scheduler."""
    base = miss_rate(controlled_run(scheduler, "model", 16, "none"))
    shed = miss_rate(controlled_run(scheduler, "model", 16, "shed"))
    assert shed <= base


@pytest.mark.parametrize("scheduler", ["latency_greedy", "round_robin"])
@pytest.mark.parametrize("granularity", ["model", "segment"])
def test_degrade_cuts_miss_rate_under_throughput_greedy(scheduler,
                                                        granularity):
    """Degradation strictly helps where freshness-drops do not invert it.

    Scoped to the throughput-greedy schedulers on purpose: under EDF at
    deep saturation, slowing a stream lets stale queued frames complete
    late instead of being freshness-dropped, which can *raise* the
    conditional miss rate (see the module docstring of
    ``repro.runtime.admission``).
    """
    base = miss_rate(controlled_run(scheduler, granularity, 16, "none"))
    degraded = miss_rate(
        controlled_run(scheduler, granularity, 16, "degrade")
    )
    assert degraded < base
