"""Invariants over the whole :class:`~repro.api.RunSpec` space.

The goldens pin a few dozen cells bit for bit; this property test draws
specs from every combination of scheduler, granularity, preemption,
churn, DVFS policy, admission policy and fault profile, on one to eight
sessions of mixed scenarios, and checks what must hold in every run:
the energy ledgers agree, no engine is busy past the run, every request
ends exactly once and the score counts it, the cost cache is consulted,
the admission and fault records exist exactly when their policy is on
and reconcile, QoE stays in [0, 1], faults never zero a run that scored
without them, and a spec run twice gives the same digests.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st
from test_schedule_equivalence import (
    checksum_of,
    fault_log_checksum_of,
    request_checksum_of,
)

from repro.api import RunSpec, execute
from repro.api.spec import ADMISSION_POLICIES, DVFS_POLICIES, FAULT_PROFILES
from repro.runtime.admission import DEGRADATION_LADDER
from repro.workload import SCENARIO_ORDER

#: The built-in policies (the registry may hold test-registered ones).
SCHEDULERS = ("latency_greedy", "round_robin", "edf", "rate_monotonic")
PREEMPTIVE_SCHEDULERS = ("edf", "rate_monotonic")

#: A request killed twice (at 0.0475 s and 0.0673 s) and then
#: superseded: one killed request, one lost.
DOUBLE_KILL = RunSpec(
    scenario=("ar_gaming",), accelerator="J", pes=8192, scheduler="edf",
    duration_s=0.1, faults="flaky",
)


@st.composite
def run_specs(draw) -> RunSpec:
    scheduler = draw(st.sampled_from(SCHEDULERS))
    granularity = draw(st.sampled_from(("model", "segment")))
    faults = draw(st.sampled_from(FAULT_PROFILES))
    # Accelerator A has one engine, which no fault profile may take out.
    accelerators = ("A", "J", "M") if faults == "none" else ("J", "M")
    return RunSpec(
        scenario=tuple(draw(st.lists(
            st.sampled_from(SCENARIO_ORDER), min_size=1, max_size=8,
        ))),
        accelerator=draw(st.sampled_from(accelerators)),
        pes=8192,
        scheduler=scheduler,
        granularity=granularity,
        duration_s=draw(st.sampled_from((0.1, 0.25))),
        seed=draw(st.integers(min_value=0, max_value=1000)),
        churn=draw(st.sampled_from((0.0, 0.25))),
        preemptive=(
            granularity == "segment"
            and scheduler in PREEMPTIVE_SCHEDULERS
            and draw(st.booleans())
        ),
        dvfs_policy=draw(st.sampled_from(DVFS_POLICIES)),
        admission=draw(st.sampled_from(ADMISSION_POLICIES)),
        faults=faults,
    )


def mean_qoe(report) -> float:
    qoes = [r.score.qoe for r in report.session_reports]
    return sum(qoes) / len(qoes)


def digests(result) -> tuple:
    return (
        checksum_of(result),
        request_checksum_of(result),
        fault_log_checksum_of(result),
    )


@settings(max_examples=200, deadline=None)
@given(run_specs())
@example(DOUBLE_KILL)
def test_every_spec_keeps_the_run_invariants(spec):
    report = execute(spec)
    result = report.result
    duration_s = spec.duration_s

    assert sum(len(s.requests) for s in result.sessions) > 0
    assert result.total_energy_mj() > 0
    assert result.total_energy_mj() == pytest.approx(
        sum(s.total_energy_mj() for s in result.sessions), rel=1e-9
    )
    stats = result.cost_stats
    assert stats is not None and stats.lookups > 0
    assert 0.0 <= stats.hit_rate <= 1.0
    for busy_s in result.busy_time_s.values():
        assert busy_s <= duration_s + 1e-9

    for sim, scored in zip(result.sessions, report.session_reports):
        assert 0 <= sim.missed_deadlines() <= len(sim.completed())
        # Export and the run database read these counts from the score.
        assert scored.score.total_executed == len(sim.completed())
        assert scored.score.total_dropped == len(sim.dropped())
        for busy_s in sim.busy_time_s.values():
            assert busy_s <= duration_s + 1e-9
        for request in sim.requests:
            assert request.completed != request.dropped, request
            if request.failed_faulted:
                assert request.dropped, request
        admission = sim.admission
        assert (admission is not None) == (spec.admission != "none")
        if admission is not None:
            assert 0 <= admission.degradation_level < len(DEGRADATION_LADDER)
        faults = sim.faults
        assert (faults is not None) == (spec.faults != "none")
        if faults is not None:
            assert min(faults.killed, faults.retries, faults.recovered,
                       faults.lost) >= 0
            assert faults.killed == faults.recovered + faults.lost
        assert 0.0 <= scored.score.qoe <= 1.0

    if spec.faults != "none":
        twin = execute(spec.replace(faults="none"))
        if mean_qoe(twin) > 0:
            assert mean_qoe(report) > 0

    assert digests(execute(spec).result) == digests(result)
