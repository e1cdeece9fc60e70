"""Tests for report export and the submission format."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.api import RunSpec, execute
from repro.core import (
    benchmark_to_dict,
    scenario_to_dict,
    submission,
    to_csv,
)


@pytest.fixture(scope="module")
def scenario_report():
    return execute(RunSpec(scenario="vr_gaming", accelerator="A", duration_s=0.5))


@pytest.fixture(scope="module")
def suite_report():
    return execute(RunSpec.for_suite("A", duration_s=0.5))


class TestScenarioToDict:
    def test_json_serialisable(self, scenario_report):
        data = scenario_to_dict(scenario_report)
        json.dumps(data)  # must not raise

    def test_scores_match_report(self, scenario_report):
        data = scenario_to_dict(scenario_report)
        assert data["scores"]["overall"] == pytest.approx(
            scenario_report.overall
        )
        assert data["scenario"] == "vr_gaming"

    def test_frame_accounting_consistent(self, scenario_report):
        data = scenario_to_dict(scenario_report)
        frames = data["frames"]
        assert frames["streamed"] == frames["executed"] + frames["dropped"]

    def test_per_model_entries(self, scenario_report):
        data = scenario_to_dict(scenario_report)
        codes = {m["code"] for m in data["models"]}
        assert codes == {"HT", "ES", "GE"}


class TestBenchmarkToDict:
    def test_structure(self, suite_report):
        data = benchmark_to_dict(suite_report)
        assert len(data["scenarios"]) == 7
        assert data["xrbench_score"] == pytest.approx(
            suite_report.xrbench_score
        )
        json.dumps(data)


class TestCsv:
    def test_parses_back(self, suite_report):
        text = to_csv(suite_report)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows
        # One row per (scenario, model).
        expected = sum(
            len(r.score.model_scores) for r in suite_report.scenario_reports
        )
        assert len(rows) == expected

    def test_columns(self, suite_report):
        header = to_csv(suite_report).splitlines()[0].split(",")
        for col in ("system", "scenario", "model", "qoe", "rt",
                    "missed_deadlines"):
            assert col in header

    def test_values_numeric(self, suite_report):
        rows = list(csv.DictReader(io.StringIO(to_csv(suite_report))))
        for row in rows:
            assert 0.0 <= float(row["qoe"]) <= 1.0
            assert int(row["streamed"]) >= int(row["executed"])


class TestSubmission:
    def test_mandatory_fields_only_by_default(self, suite_report):
        payload = json.loads(submission(suite_report))
        assert payload["benchmark"] == "XRBench"
        assert "xrbench_score" in payload
        # Section 3.7: breakdowns are optional and off by default.
        assert "breakdowns" not in payload

    def test_optional_breakdowns(self, suite_report):
        payload = json.loads(submission(suite_report, include_breakdowns=True))
        assert len(payload["breakdowns"]) == 7
        for row in payload["breakdowns"]:
            assert set(row) == {"scenario", "overall", "rt", "energy", "qoe"}

    def test_score_round_trips(self, suite_report):
        payload = json.loads(submission(suite_report))
        assert payload["xrbench_score"] == pytest.approx(
            suite_report.xrbench_score, abs=1e-6
        )


class TestEnergyTotals:
    """Per-session energy_mj totals ride along the Enmax-bounded score."""

    def test_scenario_dict_carries_energy_total(self, scenario_report):
        data = scenario_to_dict(scenario_report)
        assert data["energy_mj"] == pytest.approx(
            scenario_report.simulation.total_energy_mj()
        )
        assert data["energy_mj"] > 0.0
        # The bounded score stays where it always was.
        assert 0.0 <= data["scores"]["energy"] <= 1.0

    def test_csv_has_session_energy_column(self, suite_report):
        rows = list(csv.DictReader(io.StringIO(to_csv(suite_report))))
        assert all("session_energy_mj" in row for row in rows)
        assert all(float(row["session_energy_mj"]) > 0.0 for row in rows)

    def test_utilization_export_is_window_bounded(self, scenario_report):
        data = scenario_to_dict(scenario_report)
        for value in data["utilization"].values():
            assert 0.0 <= value <= 1.0 + 1e-9


class TestAdmissionExport:
    """The per-session admission block and its CSV projection."""

    NEUTRAL = {
        "policy": "none",
        "shed": False,
        "shed_reason": None,
        "degradation_level": 0,
        "quality_proxy": 1.0,
        "actions": [],
    }

    @pytest.fixture(scope="class")
    def degrade_group(self, hda_j_4k):
        from repro.api import RunSpec, execute

        return execute(
            RunSpec(scenario="vr_gaming", accelerator="J", pes=4096,
                    sessions=16, duration_s=0.25, admission="degrade"),
            system=hda_j_4k,
        )

    def test_single_tenant_run_exports_neutral_block(self, scenario_report):
        # A run without admission control installs no controller, so
        # the block is the documented all-defaults stamp.
        data = scenario_to_dict(scenario_report)
        assert data["admission"] == self.NEUTRAL

    def test_csv_columns_present_and_neutral(self, suite_report):
        rows = list(csv.DictReader(io.StringIO(to_csv(suite_report))))
        for row in rows:
            assert row["shed"] == "0"
            assert row["degradation_level"] == "0"
            assert float(row["quality_proxy"]) == pytest.approx(1.0)

    def test_degraded_session_exports_actions(self, degrade_group):
        dicts = [scenario_to_dict(r) for r in degrade_group.session_reports]
        assert all(d["admission"]["policy"] == "degrade" for d in dicts)
        degraded = [
            d for d in dicts if d["admission"]["degradation_level"] > 0
        ]
        assert degraded, "16 tenants on 4096 PEs must trigger degradation"
        for data in degraded:
            block = data["admission"]
            assert not block["shed"]
            assert 0.0 < block["quality_proxy"] < 1.0
            assert block["actions"]
            last = block["actions"][-1]
            assert last["kind"] == "degrade"
            assert last["level"] == block["degradation_level"]
            assert 0.0 <= last["miss_ewma"] <= 1.0
        json.dumps(dicts[0])  # the block must stay JSON-serialisable
