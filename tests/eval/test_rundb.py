"""Tests for the persistent run database and QoE Pareto reports."""

from __future__ import annotations

import functools
import json
import math
import operator
from types import SimpleNamespace

import pytest

import repro.api
from repro.api import (
    Experiment,
    RunSpec,
    Sweep,
    compile_plan,
    execute,
    run_group,
)
from repro.core import MultiSessionReport, ScenarioReport
from repro.eval import (
    ReportGenerator,
    RunDatabase,
    RunRecord,
    rundb,
    summarize_report,
)
from repro.hardware import build_accelerator
from repro.runtime import SessionSpec
from repro.workload import get_scenario


def make_record(policy="none", qoe=0.5, throughput=400.0, energy=100.0,
                scenario="vr_gaming", mode="scenario"):
    return RunRecord(
        spec={"scenario": scenario, "mode": mode, "admission": policy},
        metrics={
            "qoe": qoe,
            "throughput_rps": throughput,
            "energy_mj": energy,
            "miss_rate": 0.1,
            "quality_proxy": 1.0,
        },
        sessions=({"session_id": 0, "shed": False},),
    )


@pytest.fixture(scope="module")
def scenario_pair():
    spec = RunSpec(scenario="vr_gaming", accelerator="A", pes=4096,
                   duration_s=0.5)
    return spec, execute(spec)


class TestSummarize:
    def test_scenario_report(self, scenario_pair):
        spec, report = scenario_pair
        record = summarize_report(spec, report)
        assert record.policy == "none"
        assert record.spec["scenario"] == "vr_gaming"
        assert len(record.sessions) == 1
        assert record.metrics["qoe"] == pytest.approx(report.score.qoe)
        assert record.metrics["frames_executed"] == len(
            report.simulation.completed()
        )
        assert record.metrics["quality_proxy"] == 1.0

    def test_spec_dict_accepted(self, scenario_pair):
        spec, report = scenario_pair
        a = summarize_report(spec, report)
        b = summarize_report(spec.to_dict(), report)
        assert a.spec == b.spec
        assert a.metrics == b.metrics

    def test_benchmark_report(self):
        spec = RunSpec(suite=True, accelerator="A", pes=4096,
                       duration_s=0.5)
        report = execute(spec)
        record = summarize_report(spec, report)
        assert len(record.sessions) == len(report.scenario_reports)
        assert record.label == "suite[none]"
        assert record.metrics["throughput_rps"] > 0

    def test_multi_session_report(self, hda_j_4k):
        from repro.api import execute

        spec = RunSpec(scenario="vr_gaming", accelerator="J", pes=4096,
                       sessions=4, duration_s=0.25, admission="shed")
        report = execute(spec, system=hda_j_4k)
        record = summarize_report(spec, report)
        assert record.policy == "shed"
        assert len(record.sessions) == 4
        # Shed sessions contribute zero retained quality.
        shed = [row for row in record.sessions if row["shed"]]
        if shed:
            assert record.metrics["quality_proxy"] < 1.0

    def test_unknown_report_type_rejected(self):
        with pytest.raises(TypeError, match="cannot summarize"):
            summarize_report({"scenario": "x"}, object())


def plan_block(plan) -> dict:
    return {
        "fingerprint": plan.fingerprint,
        "workload_fingerprint": plan.workload_fingerprint,
    }


class TestPlanStamp:
    """A record's plan block names the plan that executed, uncompiled."""

    @pytest.mark.parametrize("spec", [
        RunSpec(scenario="vr_gaming", accelerator="A", duration_s=0.25),
        RunSpec(scenario=("vr_gaming", "ar_gaming", "vr_gaming"),
                accelerator="J", pes=8192, granularity="segment",
                faults="single", churn=0.25, duration_s=0.25, seed=3),
        RunSpec(suite=True, accelerator="A", duration_s=0.25),
    ], ids=["single", "group", "suite"])
    def test_block_is_the_executed_plan(self, spec):
        report = execute(spec)
        plan = compile_plan(spec)
        assert (report.plan_fingerprint, report.workload_fingerprint) == (
            plan.fingerprint, plan.workload_fingerprint
        )
        assert summarize_report(spec, report).plan == plan_block(plan)

    def test_system_override_stamps_the_plan_that_ran(self):
        # The plan compiled against the override, not the spec's named
        # accelerator: their fault schedules differ.
        spec = RunSpec(scenario="ar_gaming", accelerator="J", pes=8192,
                       duration_s=0.25, faults="flaky")
        system = build_accelerator("G", 8192)
        ran = compile_plan(spec, system=system)
        assert ran.fingerprint != compile_plan(spec).fingerprint
        record = summarize_report(spec, execute(spec, system=system))
        assert record.plan == plan_block(ran)

    def test_experiment_plan_cache(self):
        sweep = Sweep(
            base=RunSpec(scenario="ar_gaming", accelerator="J", pes=8192,
                         granularity="segment", duration_s=0.25),
            grid={"seed": (0, 1, 2)},
        )
        specs = sweep.expand()
        reports = Experiment(specs=tuple(specs)).run()
        blocks = [
            summarize_report(spec, report).plan
            for spec, report in zip(specs, reports)
        ]
        assert blocks == [plan_block(compile_plan(s)) for s in specs]
        assert len({b["workload_fingerprint"] for b in blocks}) == 1

    def test_unstamped_report_records_an_empty_block(self, monkeypatch):
        def no_compiling(*args, **kwargs):
            raise AssertionError("summarize_report compiled a plan")

        monkeypatch.setattr(repro.api, "compile_plan", no_compiling)
        monkeypatch.setattr(repro.api.plan, "compile_plan", no_compiling)
        report = run_group(
            [SessionSpec(session_id=0, scenario=get_scenario("vr_gaming"))],
            build_accelerator("A", 4096), duration_s=0.25,
        )
        assert report.plan_fingerprint is None
        spec = RunSpec(scenario="vr_gaming", sessions=1, duration_s=0.25)
        record = summarize_report(spec, report)
        assert record.plan == {}
        assert "plan" not in record.to_dict()
        assert RunRecord.from_dict(record.to_dict()) == record


class TestRunRecord:
    def test_policy_defaults_to_none(self):
        record = RunRecord(spec={}, metrics={})
        assert record.policy == "none"
        assert record.label == "?[none]"

    def test_label_and_qoe_point(self):
        record = make_record("degrade", qoe=0.7)
        assert record.label == "vr_gaming[degrade]"
        point = record.qoe_point()
        assert point.label == "vr_gaming[degrade]"
        assert point.qoe == pytest.approx(0.7)

    def test_suite_label(self):
        assert make_record(mode="suite").label == "suite[none]"
        spec = RunSpec(suite=True).to_dict()
        assert RunRecord(spec=spec, metrics={}).label == "suite[none]"

    def test_multi_scenario_label_uses_first(self):
        record = RunRecord(
            spec={"scenario": ["vr_gaming", "ar_gaming"],
                  "admission": "shed"},
            metrics={},
        )
        assert record.label == "vr_gaming[shed]"

    def test_dict_round_trip(self):
        record = make_record("shed")
        again = RunRecord.from_dict(record.to_dict())
        assert again == record


class TestRunDatabase:
    def test_missing_file_loads_empty(self, tmp_path):
        db = RunDatabase(tmp_path / "nope.jsonl")
        assert db.load() == []
        assert len(db) == 0

    def test_append_record_round_trip(self, tmp_path):
        db = RunDatabase(tmp_path / "runs" / "runs.jsonl")
        first, second = make_record("none"), make_record("degrade", qoe=0.6)
        db.append_record(first)
        db.append_record(second)
        assert db.load() == [first, second]
        assert len(db) == 2

    def test_append_summarizes_report(self, tmp_path, scenario_pair):
        spec, report = scenario_pair
        db = RunDatabase(tmp_path / "db.jsonl")
        record = db.append(spec, report)
        assert db.load() == [record]

    def test_lines_are_self_contained_json(self, tmp_path):
        path = tmp_path / "db.jsonl"
        RunDatabase(path).append_record(make_record())
        (line,) = path.read_text().splitlines()
        payload = json.loads(line)
        assert set(payload) == {"spec", "metrics", "sessions"}

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "db.jsonl"
        db = RunDatabase(path)
        db.append_record(make_record())
        with path.open("a") as fh:
            fh.write("\n   \n")
        db.append_record(make_record("shed"))
        assert len(db.load()) == 2

    def test_malformed_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "db.jsonl"
        db = RunDatabase(path)
        db.append_record(make_record())
        with path.open("a") as fh:
            fh.write('{"truncated": \n')
        records = db.load()
        assert len(records) == 1
        assert [lineno for lineno, _ in db.skipped_lines] == [2]

    def test_missing_keys_skipped(self, tmp_path):
        path = tmp_path / "db.jsonl"
        path.write_text('{"spec": {}}\n')
        db = RunDatabase(path)
        assert db.load() == []
        assert len(db.skipped_lines) == 1

    def test_truncated_tail_does_not_poison_later_appends(self, tmp_path):
        """A crashed writer's half-line corrupts only itself: the reader
        skips it and records appended afterwards still load."""
        path = tmp_path / "db.jsonl"
        db = RunDatabase(path)
        db.append_record(make_record())
        with path.open("a") as fh:
            fh.write('{"spec": {"admission')  # crash mid-write, no \n
        db.append_record(make_record("shed"))
        # The interrupted fragment and the next record share a line —
        # that one line is the only casualty.
        records = db.load()
        assert [r.policy for r in records] == ["none"]
        assert len(db.skipped_lines) == 1
        db.append_record(make_record("degrade"))
        assert [r.policy for r in db.load()] == ["none", "degrade"]
        assert len(db.skipped_lines) == 1

    def test_skipped_lines_reset_per_load(self, tmp_path):
        path = tmp_path / "db.jsonl"
        path.write_text("not json\n")
        db = RunDatabase(path)
        db.load()
        db.load()
        assert len(db.skipped_lines) == 1


class TestReportGenerator:
    @pytest.fixture
    def generator(self):
        return ReportGenerator(records=[
            make_record("none", qoe=0.45, throughput=420.0, energy=130.0),
            make_record("shed", qoe=0.30, throughput=300.0, energy=120.0),
            make_record("degrade", qoe=0.50, throughput=400.0, energy=100.0),
        ])

    def test_from_database(self, tmp_path):
        db = RunDatabase(tmp_path / "db.jsonl")
        db.append_record(make_record())
        gen = ReportGenerator.from_database(db)
        assert len(gen.records) == 1

    def test_policy_points_grouped_and_meaned(self):
        gen = ReportGenerator(records=[
            make_record("degrade", qoe=0.4),
            make_record("degrade", qoe=0.6),
            make_record("none", qoe=0.5),
        ])
        points = {p.label: p for p in gen.policy_points()}
        assert set(points) == {"degrade", "none"}
        assert points["degrade"].qoe == pytest.approx(0.5)

    def test_frontier_drops_dominated_policy(self, generator):
        labels = [p.label for p in generator.frontier()]
        # shed is beaten by degrade on every axis; none survives on
        # throughput.
        assert labels == ["degrade", "none"]

    def test_markdown_structure(self, generator):
        text = generator.markdown()
        assert "# XRBench run report" in text
        assert "## Runs" in text
        assert "## QoE Pareto frontier by admission policy" in text
        assert "| vr_gaming[shed] | shed |" in text
        assert "Frontier (best QoE first): degrade, none" in text
        # One data row per run in the runs table.
        runs_rows = [
            line for line in text.splitlines()
            if line.startswith("| vr_gaming[")
        ]
        assert len(runs_rows) == 3

    def test_html_structure(self, generator):
        page = generator.html()
        assert page.startswith("<!DOCTYPE html>")
        assert "<h1>XRBench run report</h1>" in page
        assert "<td>vr_gaming[degrade]</td>" in page
        assert "Frontier (best QoE first): degrade, none" in page

    def test_html_escapes_labels(self):
        record = make_record()
        record.spec["scenario"] = "<script>"
        page = ReportGenerator(records=[record]).html()
        assert "<script>" not in page
        assert "&lt;script&gt;" in page

    def test_render_dispatch(self, generator):
        assert generator.render("markdown") == generator.markdown()
        assert generator.render("html") == generator.html()
        with pytest.raises(ValueError, match="unknown report format"):
            generator.render("pdf")

    def test_empty_records_still_render(self):
        gen = ReportGenerator()
        assert gen.frontier() == []
        assert "No runs recorded." in gen.markdown()
        assert "No runs recorded." in gen.html()


def tenth_session(session_id: int) -> ScenarioReport:
    """A degraded session whose every float metric reads 0.1."""
    simulation = SimpleNamespace(
        session_id=session_id,
        scenario=SimpleNamespace(name="vr_gaming"),
        requests=[None],
        duration_s=1.0,
        completed=lambda: [None],
        dropped=lambda: [],
        total_energy_mj=lambda: 0.1,
        admission=SimpleNamespace(
            shed=False, shed_reason=None, degradation_level=1
        ),
        faults=None,
    )
    score = SimpleNamespace(
        qoe=0.1, overall=0.1, total_missed_deadlines=0,
        total_executed=1, total_dropped=0,
    )
    return ScenarioReport(simulation=simulation, score=score)


class TestLeftToRight:
    """Every run-row reduction adds left to right, as sum() did to 3.11.

    CPython 3.12's ``sum()`` of floats is compensated and can round the
    last bit differently, so each float reduction goes through
    ``ordered_sum``.  Ten tenths tell the two apart: 0.9999999999999999
    left to right, 1.0 compensated.
    """

    #: 0.1 added ten times left to right.
    TEN_TENTHS = 0.9999999999999999

    def test_summarized_metrics(self, monkeypatch):
        assert self.TEN_TENTHS == functools.reduce(operator.add, [0.1] * 10)
        assert math.fsum([0.1] * 10) == 1.0
        monkeypatch.setattr(
            rundb, "quality_retention", lambda scenario, level: 0.1
        )
        report = MultiSessionReport(
            result=None,
            session_reports=tuple(tenth_session(i) for i in range(10)),
        )
        spec = RunSpec(scenario="vr_gaming", sessions=10, duration_s=0.25)
        metrics = summarize_report(spec, report).metrics
        assert metrics["energy_mj"] == self.TEN_TENTHS
        for name in ("qoe", "mean_overall", "quality_proxy"):
            assert metrics[name] == self.TEN_TENTHS / 10, name
        assert metrics["frames_executed"] == 10

    def test_policy_points(self):
        gen = ReportGenerator(records=[
            make_record("none", qoe=0.1, throughput=0.1, energy=0.1)
            for _ in range(10)
        ])
        (point,) = gen.policy_points()
        for value in (point.qoe, point.throughput_rps, point.energy_mj):
            assert value == self.TEN_TENTHS / 10
