"""Tests for the declarative RunSpec and the execute funnel.

The satellite contract: ``RunSpec -> to_dict -> from_dict -> execute``
is byte-identical in results to direct ``Harness`` calls across all four
schedulers and both granularities.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.api import CollectingSink, RunSpec, execute
from repro.core import Harness, HarnessConfig
from repro.runtime import SCHEDULERS


ALL_SCHEDULERS = sorted(SCHEDULERS)


class TestValidation:
    def test_defaults_build(self):
        spec = RunSpec(scenario="ar_gaming")
        assert spec.mode == "single"
        assert spec.accelerator == "J"

    def test_list_scenario_normalised_to_tuple(self):
        spec = RunSpec(scenario=["vr_gaming", "ar_gaming"])
        assert spec.scenario == ("vr_gaming", "ar_gaming")
        assert spec.sessions == 2
        assert spec.mode == "sessions"

    def test_session_count_contradiction_rejected(self):
        with pytest.raises(ValueError, match="contradicts"):
            RunSpec(scenario=("vr_gaming", "ar_gaming"), sessions=3)

    def test_suite_takes_no_scenario(self):
        with pytest.raises(ValueError, match="suite"):
            RunSpec(scenario="ar_gaming", suite=True)
        assert RunSpec.for_suite("A").mode == "suite"

    @pytest.mark.parametrize(
        "field, value", [("sessions", 4), ("granularity", "segment")]
    )
    def test_suite_rejects_fields_it_would_ignore(self, field, value):
        message = re.escape(f"{field}={value!r} would be ignored")
        with pytest.raises(ValueError, match=message):
            RunSpec(suite=True, **{field: value})
        data = RunSpec.for_suite("A").to_dict()
        data[field] = value
        with pytest.raises(ValueError, match=message):
            RunSpec.from_dict(data)

    def test_scenario_required_without_suite(self):
        with pytest.raises(ValueError, match="scenario"):
            RunSpec()

    def test_unknown_names_raise_with_suggestion(self):
        with pytest.raises(KeyError, match="did you mean 'ar_gaming'"):
            RunSpec(scenario="ar_gamign")
        with pytest.raises(KeyError, match="unknown scheduler"):
            RunSpec(scenario="ar_gaming", scheduler="edff")
        with pytest.raises(KeyError, match="unknown accelerator"):
            RunSpec(scenario="ar_gaming", accelerator="Z")
        with pytest.raises(KeyError, match="unknown score preset"):
            RunSpec(scenario="ar_gaming", score_preset="defualt")

    def test_numeric_validation(self):
        with pytest.raises(ValueError, match="sessions"):
            RunSpec(scenario="ar_gaming", sessions=0)
        with pytest.raises(ValueError, match="duration"):
            RunSpec(scenario="ar_gaming", duration_s=0)
        with pytest.raises(ValueError, match="granularity"):
            RunSpec(scenario="ar_gaming", granularity="layer")
        with pytest.raises(ValueError, match="frame_loss"):
            RunSpec(scenario="ar_gaming", frame_loss=1.0)


class TestSerialization:
    SPECS = [
        RunSpec(scenario="ar_gaming"),
        RunSpec(scenario="vr_gaming", accelerator="A", pes=8192,
                scheduler="edf", seed=7, duration_s=0.5),
        RunSpec(scenario=("vr_gaming", "ar_assistant"),
                granularity="segment", segments_per_model=3),
        RunSpec.for_suite("M", frame_loss=0.1, score_preset="strict_rt"),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.mode)
    def test_dict_round_trip(self, spec):
        assert RunSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.mode)
    def test_json_round_trip(self, spec):
        text = spec.to_json()
        assert json.loads(text) == spec.to_dict()
        assert RunSpec.from_json(text) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown RunSpec fields"):
            RunSpec.from_dict({"scenario": "ar_gaming", "warp": 9})

    def test_replace_revalidates(self):
        spec = RunSpec(scenario="ar_gaming")
        with pytest.raises(KeyError, match="unknown scenario"):
            spec.replace(scenario="nope")


class TestExecuteEquivalence:
    """Round-tripped specs reproduce Harness results exactly."""

    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    def test_single_scenario_matches_harness(
        self, scheduler, cost_table, hda_j_4k
    ):
        spec = RunSpec.from_dict(RunSpec(
            scenario="ar_gaming", accelerator="J",
            scheduler=scheduler, duration_s=0.4, seed=3,
        ).to_dict())
        harness = Harness(
            config=HarnessConfig(duration_s=0.4, scheduler=scheduler),
            costs=cost_table,
        )
        via_spec = execute(spec, costs=cost_table)
        via_harness = harness.run_scenario("ar_gaming", hda_j_4k, seed=3)
        assert via_spec.score.overall == via_harness.score.overall
        assert via_spec.score.rt == via_harness.score.rt
        assert via_spec.score.qoe == via_harness.score.qoe
        assert len(via_spec.simulation.requests) == (
            len(via_harness.simulation.requests)
        )

    @pytest.mark.parametrize("granularity", ["model", "segment"])
    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    def test_sessions_match_harness(
        self, scheduler, granularity, cost_table, hda_j_4k
    ):
        spec = RunSpec.from_dict(RunSpec(
            scenario="vr_gaming", accelerator="J",
            scheduler=scheduler, duration_s=0.4, sessions=2,
            granularity=granularity,
        ).to_dict())
        harness = Harness(
            config=HarnessConfig(duration_s=0.4, scheduler=scheduler),
            costs=cost_table,
        )
        via_spec = execute(spec, costs=cost_table)
        via_harness = harness.run_sessions(
            "vr_gaming", hda_j_4k, num_sessions=2, granularity=granularity
        )
        assert [r.score.overall for r in via_spec.session_reports] == (
            [r.score.overall for r in via_harness.session_reports]
        )
        assert via_spec.result.busy_time_s == via_harness.result.busy_time_s

    def test_suite_matches_harness(self, cost_table, fda_ws_4k):
        spec = RunSpec.from_json(
            RunSpec.for_suite("A", duration_s=0.4).to_json()
        )
        harness = Harness(
            config=HarnessConfig(duration_s=0.4), costs=cost_table
        )
        via_spec = execute(spec, costs=cost_table)
        via_harness = harness.run_suite(fda_ws_4k)
        assert via_spec.xrbench_score == via_harness.xrbench_score
        assert [r.overall for r in via_spec.scenario_reports] == (
            [r.overall for r in via_harness.scenario_reports]
        )

    def test_same_spec_is_deterministic(self, cost_table):
        spec = RunSpec(scenario="outdoor_activity_a", accelerator="A",
                       duration_s=0.4, seed=11)
        a = execute(spec, costs=cost_table)
        b = execute(spec, costs=cost_table)
        assert a.score.overall == b.score.overall


class TestExecuteRouting:
    def test_single_returns_scenario_report(self, cost_table):
        spec = RunSpec(scenario="ar_gaming", accelerator="A",
                       duration_s=0.4)
        report = execute(spec, costs=cost_table)
        assert report.simulation.scenario.name == "ar_gaming"

    def test_segment_granularity_routes_to_sessions(self, cost_table):
        spec = RunSpec(scenario="ar_gaming", accelerator="J",
                       duration_s=0.4, granularity="segment")
        report = execute(spec, costs=cost_table)
        assert report.result.num_sessions == 1

    def test_score_preset_is_applied(self, cost_table):
        base = RunSpec(scenario="ar_gaming", accelerator="A",
                       duration_s=0.4)
        default = execute(base, costs=cost_table)
        lenient = execute(
            base.replace(score_preset="lenient_rt"), costs=cost_table
        )
        # A different sigmoid steepness must change the RT score, and
        # only the scoring — the simulation itself is untouched.
        assert lenient.score.rt != default.score.rt
        assert len(lenient.simulation.requests) == (
            len(default.simulation.requests)
        )

    def test_suite_scores_with_measured_quality(self, cost_table):
        # Every suite scenario is scored against the measured quality
        # map, as single and session-group runs are: ES measured at half
        # its goal lowers the accuracy of the scenarios that run it.
        spec = RunSpec.for_suite("J", pes=8192, duration_s=0.25)
        nominal = execute(spec, costs=cost_table)
        measured = execute(
            spec, costs=cost_table, measured_quality={"ES": 45.0}
        )
        assert measured.xrbench_score < nominal.xrbench_score

    def test_events_are_emitted(self, cost_table):
        sink = CollectingSink()
        execute(RunSpec.for_suite("A", duration_s=0.4),
                costs=cost_table, sinks=[sink])
        kinds = sink.kinds()
        assert kinds[0] == "spec_started"
        assert kinds[-1] == "spec_finished"
        assert kinds.count("scenario_finished") == 7
        finished = [e for e in sink.events if e.kind == "scenario_finished"]
        assert finished[0].payload["scenario"] == "social_interaction_a"
        assert "overall" in finished[0].payload


class TestDvfsPolicyField:
    def test_default_is_static(self):
        spec = RunSpec(scenario="ar_gaming")
        assert spec.dvfs_policy == "static"
        assert spec.mode == "single"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="dvfs_policy"):
            RunSpec(scenario="ar_gaming", dvfs_policy="overclock")

    def test_governed_spec_routes_to_sessions(self):
        spec = RunSpec(scenario="ar_gaming", dvfs_policy="slack")
        assert spec.mode == "sessions"
        assert "dvfs=slack" in spec.describe()

    def test_governed_suite_stays_suite_mode(self):
        spec = RunSpec.for_suite("J", dvfs_policy="race_to_idle")
        assert spec.mode == "suite"

    def test_round_trips(self):
        spec = RunSpec(scenario="vr_gaming", dvfs_policy="slack",
                       granularity="segment", sessions=2)
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_json(spec.to_json()) == spec
        assert spec.to_dict()["dvfs_policy"] == "slack"

    def test_governed_execution_reports_energy(self):
        from repro.api import execute

        spec = RunSpec(scenario=("vr_gaming",), accelerator="A",
                       duration_s=0.25, dvfs_policy="race_to_idle")
        report = execute(spec)
        result = report.result
        assert result.total_energy_mj() > 0
        assert {r.dvfs for r in result.records} == {"boost"}

    def test_sweep_can_grid_the_policy(self):
        from repro.api import Sweep

        sweep = Sweep(
            base=RunSpec(scenario="vr_gaming"),
            grid={"dvfs_policy": ("static", "slack")},
        )
        policies = [s.dvfs_policy for s in sweep.expand()]
        assert policies == ["static", "slack"]


class TestAdmissionField:
    def test_default_is_none_and_single_mode(self):
        spec = RunSpec(scenario="ar_gaming")
        assert spec.admission == "none"
        assert spec.mode == "single"
        assert "admission=" not in spec.describe()

    def test_policies_constant_exported(self):
        from repro.api import ADMISSION_POLICIES

        assert ADMISSION_POLICIES == ("none", "shed", "degrade")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="admission"):
            RunSpec(scenario="ar_gaming", admission="panic")

    def test_controlled_spec_routes_to_sessions(self):
        spec = RunSpec(scenario="ar_gaming", admission="shed")
        assert spec.mode == "sessions"
        assert "admission=shed" in spec.describe()

    def test_controlled_suite_stays_suite_mode(self):
        spec = RunSpec.for_suite("J", admission="degrade")
        assert spec.mode == "suite"

    def test_round_trips(self):
        spec = RunSpec(scenario="vr_gaming", admission="degrade",
                       sessions=4)
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_json(spec.to_json()) == spec
        assert spec.to_dict()["admission"] == "degrade"

    def test_controlled_execution_stamps_records(self, cost_table):
        from repro.api import execute

        spec = RunSpec(scenario="vr_gaming", accelerator="J", pes=4096,
                       sessions=8, duration_s=0.25, admission="shed")
        report = execute(spec, costs=cost_table)
        records = [s.admission for s in report.result.sessions]
        assert all(r is not None and r.policy == "shed" for r in records)

    def test_sweep_can_grid_the_policy(self):
        from repro.api import Sweep

        sweep = Sweep(
            base=RunSpec(scenario="vr_gaming", sessions=4),
            grid={"admission": ("none", "shed", "degrade")},
        )
        assert [s.admission for s in sweep.expand()] == [
            "none", "shed", "degrade",
        ]


class TestFieldDrift:
    """New-field drift canaries: serialization must cover every field.

    When a field is added to RunSpec but forgotten in to_dict/from_dict
    (or in these fixtures), the round-trip and key-set assertions here
    fail loudly instead of the field silently vanishing over the wire.
    """

    #: Every RunSpec field set to a non-default value — from_dict
    #: dropping any one of them breaks equality.
    FULL = RunSpec(
        scenario=("vr_gaming", "ar_gaming", "ar_assistant"),
        accelerator="H",
        pes=8192,
        scheduler="edf",
        granularity="segment",
        segments_per_model=3,
        duration_s=0.5,
        seed=11,
        frame_loss=0.05,
        score_preset="strict_rt",
        churn=0.3,
        preemptive=True,
        dvfs_policy="slack",
        admission="degrade",
        faults="flaky",
    )

    def test_every_dataclass_field_is_serialized(self):
        import dataclasses

        field_names = {f.name for f in dataclasses.fields(RunSpec)}
        assert set(self.FULL.to_dict()) == field_names

    def test_full_spec_round_trips(self):
        spec = self.FULL
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_replace_round_trips_dynamics_fields(self):
        base = RunSpec(scenario="vr_gaming", sessions=2)
        spec = base.replace(admission="shed", faults="single",
                            dvfs_policy="race_to_idle", seed=9)
        assert spec.admission == "shed"
        assert spec.faults == "single"
        assert spec.seed == 9
        assert RunSpec.from_dict(spec.to_dict()) == spec
        # replace() leaves the original untouched (frozen value type).
        assert base.admission == "none" and base.faults == "none"

    def test_faults_round_trip(self):
        spec = RunSpec(scenario="vr_gaming", sessions=2, faults="thermal")
        assert spec.to_dict()["faults"] == "thermal"
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_fault_seed_is_not_a_field(self):
        # The fault timeline is seeded by `seed`; a separate fault_seed
        # key must be rejected, not silently dropped.
        with pytest.raises(ValueError, match="unknown RunSpec fields"):
            RunSpec.from_dict(
                {"scenario": "ar_gaming", "fault_seed": 1}
            )
