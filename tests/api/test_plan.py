"""Tests for the compilation layer: compile_plan -> DispatchPlan.

The tentpole contract: a compiled plan is a frozen, JSON-round-trippable
artifact, ``execute(spec)`` is exactly compile-then-execute, and a plan
that went over the wire (``from_json(to_json())``) replays to identical
per-session results.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    CollectingSink,
    DispatchPlan,
    Experiment,
    RunSpec,
    compile_plan,
    diff_plans,
    estimate_plan,
    execute,
    execute_plan,
    workload_fingerprint,
)
from repro.api.plan import PLAN_VERSION


SHORT = dict(duration_s=0.25)


class TestCompile:
    def test_single_mode_has_one_session_row(self):
        plan = compile_plan(RunSpec(scenario="ar_gaming", **SHORT))
        assert plan.mode == "single"
        (row,) = plan.sessions
        assert row.scenario == "ar_gaming"
        assert row.seed == 0
        assert row.timeline == ((0.0, 0.25, "ar_gaming"),)
        assert plan.segment_chains == ()

    def test_sessions_mode_rows_carry_consecutive_seeds(self):
        plan = compile_plan(RunSpec(
            scenario="vr_gaming", sessions=3, seed=5, **SHORT
        ))
        assert plan.mode == "sessions"
        assert [r.seed for r in plan.sessions] == [5, 6, 7]
        assert [r.session_id for r in plan.sessions] == [0, 1, 2]

    def test_churn_windows_resolved_into_timeline(self):
        plan = compile_plan(RunSpec(
            scenario="vr_gaming", sessions=4, churn=0.3, **SHORT
        ))
        arrivals = [r.arrival_s for r in plan.sessions]
        assert any(a > 0 for a in arrivals)
        for row in plan.sessions:
            ((start, stop, name),) = row.timeline
            assert start == row.arrival_s
            assert stop <= plan.duration_s
            assert name == row.scenario

    def test_suite_mode_plans_every_scenario(self):
        from repro.workload import SCENARIO_ORDER

        plan = compile_plan(RunSpec.for_suite("A", **SHORT))
        assert plan.mode == "suite"
        assert [r.scenario for r in plan.sessions] == list(SCENARIO_ORDER)
        assert all(r.session_id == 0 for r in plan.sessions)

    def test_segment_granularity_records_chain_codes(self):
        plan = compile_plan(RunSpec(
            scenario="vr_gaming", sessions=2, granularity="segment",
            **SHORT
        ))
        chains = plan.chain_codes()
        assert chains, "vr_gaming has splittable models"
        for code, pieces in chains.items():
            assert len(pieces) >= 2
            assert all(code in piece for piece in pieces)

    def test_fault_schedule_is_compiled_in(self):
        plan = compile_plan(RunSpec(
            scenario="vr_gaming", sessions=2, faults="flaky", **SHORT
        ))
        assert plan.faults is not None
        assert plan.faults["profile"] == "flaky"
        assert plan.faults["events"]
        assert plan.fault_plan().profile == "flaky"

    def test_admission_ticks_resolved(self):
        plan = compile_plan(RunSpec(
            scenario="vr_gaming", sessions=2, admission="shed", **SHORT
        ))
        assert plan.admission_period_s is not None
        assert plan.control_ticks_s
        assert all(0 < t < plan.duration_s for t in plan.control_ticks_s)

    def test_dvfs_ladder_always_present(self):
        plan = compile_plan(RunSpec(scenario="ar_gaming", **SHORT))
        names = [p["name"] for p in plan.dvfs_ladder]
        assert "nominal" in names and "boost" in names

    def test_compile_is_pure_and_deterministic(self):
        spec = RunSpec(scenario="vr_gaming", sessions=2, churn=0.2,
                       faults="single", **SHORT)
        assert compile_plan(spec) == compile_plan(spec)
        assert compile_plan(spec).fingerprint == compile_plan(spec).fingerprint


class TestFingerprints:
    def test_fingerprint_is_content_addressed(self):
        a = compile_plan(RunSpec(scenario="vr_gaming", **SHORT))
        b = compile_plan(RunSpec(scenario="vr_gaming", scheduler="edf",
                                 **SHORT))
        assert a.fingerprint != b.fingerprint
        assert len(a.fingerprint) == 64

    def test_workload_fingerprint_ignores_seed_only(self):
        base = RunSpec(scenario="vr_gaming", sessions=2, **SHORT)
        assert workload_fingerprint(base) == (
            workload_fingerprint(base.replace(seed=99))
        )
        assert workload_fingerprint(base) != (
            workload_fingerprint(base.replace(scheduler="edf"))
        )

    def test_seed_changes_plan_but_not_workload_fingerprint(self):
        base = RunSpec(scenario="vr_gaming", sessions=2, **SHORT)
        a, b = compile_plan(base), compile_plan(base.replace(seed=99))
        assert a.fingerprint != b.fingerprint
        assert a.workload_fingerprint == b.workload_fingerprint

    def test_reuse_adopts_chains_for_same_workload(self):
        base = RunSpec(scenario="vr_gaming", sessions=2,
                       granularity="segment", **SHORT)
        first = compile_plan(base)
        reused = compile_plan(base.replace(seed=42), reuse=first)
        assert reused.segment_chains == first.segment_chains
        # A different workload must not adopt the cached chains blindly.
        other = compile_plan(
            base.replace(scenario=("ar_gaming",) * 2), reuse=first
        )
        assert other.workload_fingerprint != first.workload_fingerprint


class TestSerialization:
    SPECS = [
        RunSpec(scenario="ar_gaming", **SHORT),
        RunSpec(scenario="vr_gaming", sessions=3, granularity="segment",
                churn=0.3, scheduler="edf", preemptive=True,
                admission="shed", dvfs_policy="slack", faults="flaky",
                **SHORT),
        RunSpec.for_suite("A", faults="thermal", seed=7, **SHORT),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.mode)
    def test_json_round_trip_is_lossless(self, spec):
        plan = compile_plan(spec)
        back = DispatchPlan.from_json(plan.to_json())
        assert back == plan
        assert back.fingerprint == plan.fingerprint
        assert back.workload_fingerprint == plan.workload_fingerprint

    def test_tampered_artifact_rejected(self):
        plan = compile_plan(RunSpec(scenario="ar_gaming", **SHORT))
        data = json.loads(plan.to_json())
        data["scheduler"] = "edf"
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            DispatchPlan.from_dict(data)

    def test_unsupported_version_rejected(self):
        plan = compile_plan(RunSpec(scenario="ar_gaming", **SHORT))
        data = plan.to_dict()
        data["version"] = PLAN_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            DispatchPlan.from_dict(data)

    def test_artifact_validates_against_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        with open("schema/dispatchplan.schema.json",
                  encoding="utf-8") as fh:
            schema = json.load(fh)
        for spec in self.SPECS:
            doc = json.loads(compile_plan(spec).to_json())
            jsonschema.Draft7Validator(schema).validate(doc)


class TestDiff:
    def test_identical_plans_diff_empty(self):
        spec = RunSpec(scenario="vr_gaming", **SHORT)
        assert diff_plans(compile_plan(spec), compile_plan(spec)) == []

    def test_scheduler_ab_yields_structured_entries(self):
        a = compile_plan(RunSpec(scenario="vr_gaming", sessions=2, **SHORT))
        b = compile_plan(RunSpec(scenario="vr_gaming", sessions=2,
                                 scheduler="edf", **SHORT))
        entries = diff_plans(a, b)
        assert entries
        by_path = {e["path"]: e for e in entries}
        assert by_path["scheduler"] == {
            "path": "scheduler", "a": "latency_greedy", "b": "edf",
        }
        assert "fingerprint" in by_path

    def test_unequal_session_counts_summarised(self):
        a = compile_plan(RunSpec(scenario="vr_gaming", sessions=2, **SHORT))
        b = compile_plan(RunSpec(scenario="vr_gaming", sessions=4, **SHORT))
        by_path = {e["path"]: e for e in diff_plans(a, b)}
        assert by_path["sessions"]["a"] == "<2 items>"
        assert by_path["sessions"]["b"] == "<4 items>"


class TestEstimate:
    def test_estimates_are_positive_and_consistent(self, cost_table):
        plan = compile_plan(RunSpec(scenario="vr_gaming", sessions=2,
                                    **SHORT))
        est = estimate_plan(plan, costs=cost_table)
        assert est["sessions"] == 2
        assert est["expected_requests"] > 0
        assert est["est_busy_engine_s"] > 0
        assert est["est_energy_mj"] > 0
        assert est["est_makespan_s"] == pytest.approx(
            est["est_busy_engine_s"] / plan.num_engines
        )

    def test_churned_cell_costs_less_than_static(self, cost_table):
        static = compile_plan(RunSpec(scenario="vr_gaming", sessions=4,
                                      **SHORT))
        churned = compile_plan(RunSpec(scenario="vr_gaming", sessions=4,
                                       churn=0.3, **SHORT))
        assert estimate_plan(churned, costs=cost_table)[
            "expected_requests"
        ] <= estimate_plan(static, costs=cost_table)["expected_requests"]


class TestExecutePlan:
    """execute(spec) == execute_plan over the wire, field for field."""

    @pytest.mark.parametrize("spec", [
        RunSpec(scenario=("vr_gaming",), granularity="segment", **SHORT),
        RunSpec(scenario="vr_gaming", sessions=3, churn=0.3,
                scheduler="edf", **SHORT),
        RunSpec(scenario="vr_gaming", sessions=2, faults="single", **SHORT),
    ], ids=["segment", "churn", "faults"])
    def test_round_tripped_plan_replays_identically(self, spec, cost_table):
        direct = execute(spec, costs=cost_table)
        wire = DispatchPlan.from_json(compile_plan(spec).to_json())
        replayed = execute_plan(wire, costs=cost_table)
        for a, b in zip(direct.result.sessions, replayed.result.sessions):
            assert a.session_id == b.session_id
            assert len(a.requests) == len(b.requests)
            assert a.total_energy_mj() == b.total_energy_mj()
        assert [r.score.overall for r in direct.session_reports] == (
            [r.score.overall for r in replayed.session_reports]
        )

    def test_suite_plan_matches_suite_execute(self, cost_table):
        spec = RunSpec.for_suite("A", **SHORT)
        direct = execute(spec, costs=cost_table)
        replayed = execute_plan(
            DispatchPlan.from_json(compile_plan(spec).to_json()),
            costs=cost_table,
        )
        assert replayed.xrbench_score == direct.xrbench_score

    def test_segment_plan_drift_raises(self, cost_table):
        spec = RunSpec(scenario=("vr_gaming",), granularity="segment",
                       **SHORT)
        plan = compile_plan(spec)

        def forge(chains):
            return DispatchPlan(
                **{**{f: getattr(plan, f) for f in (
                    "spec", "mode", "accelerator", "pes", "num_engines",
                    "scheduler", "preemptive", "granularity",
                    "segments_per_model", "duration_s", "seed",
                    "frame_loss", "score_preset", "churn", "sessions",
                    "faults", "admission", "admission_period_s",
                    "control_ticks_s", "dvfs_policy", "dvfs_ladder",
                )}, "segment_chains": chains}
            )

        # A chain table claiming a different piece count.
        code, pieces = plan.segment_chains[0]
        with pytest.raises(ValueError, match="segment plan drift"):
            execute_plan(
                forge(((code, pieces + ("bogus",)),)), costs=cost_table
            )
        # A chain table leaving out a model that splits: it would run
        # whole, so the run must not start.
        with pytest.raises(ValueError, match="segment plan drift"):
            execute_plan(forge(plan.segment_chains[1:]), costs=cost_table)


class TestPlanCache:
    def test_seed_grid_hits_the_cache(self, cost_table):
        from repro.api import Sweep

        sweep = Sweep(
            base=RunSpec(scenario="vr_gaming", sessions=2, **SHORT),
            grid={"seed": (0, 1, 2)},
        )
        sink = CollectingSink()
        experiment = Experiment.from_sweep(sweep)
        experiment.run(sinks=[sink], costs=cost_table)
        (finished,) = [
            e for e in sink.events if e.kind == "experiment_finished"
        ]
        assert finished.payload["plan_cache_hits"] == 2

    def test_distinct_workloads_never_hit(self, cost_table):
        from repro.api import Sweep

        sweep = Sweep(
            base=RunSpec(scenario="vr_gaming", **SHORT),
            grid={"scenario": ("vr_gaming", "ar_gaming")},
        )
        sink = CollectingSink()
        Experiment.from_sweep(sweep).run(sinks=[sink], costs=cost_table)
        (finished,) = [
            e for e in sink.events if e.kind == "experiment_finished"
        ]
        assert finished.payload["plan_cache_hits"] == 0
