"""Tests for the persistent run database and QoE Pareto reports."""

from __future__ import annotations

import json

import pytest

from repro.api import RunSpec
from repro.eval import (
    ReportGenerator,
    RunDatabase,
    RunRecord,
    summarize_report,
)


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
def scenario_pair(short_harness, fda_ws_4k):
    spec = RunSpec(scenario="vr_gaming", accelerator="A", pes=4096,
                   duration_s=0.5)
    return spec, short_harness.run_scenario("vr_gaming", fda_ws_4k)


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

    def test_benchmark_report(self, short_harness, fda_ws_4k):
        spec = RunSpec(suite=True, accelerator="A", pes=4096,
                       duration_s=0.5)
        report = short_harness.run_suite(fda_ws_4k)
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
