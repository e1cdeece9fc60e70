"""Tests for the xrbench command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import RunSpec
from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(
            ["run", "ar_gaming", "J", "--pes", "8192"]
        )
        assert args.scenario == "ar_gaming"
        assert args.accelerator == "J"
        assert args.pes == 8192

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope", "J"])

    def test_rejects_unknown_accelerator(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "ar_gaming", "Z"])


class TestCommands:
    def test_run(self, capsys):
        assert main(["run", "vr_gaming", "A", "--duration", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "vr_gaming" in out and "overall=" in out

    def test_run_with_timeline(self, capsys):
        assert main(
            ["run", "vr_gaming", "A", "--duration", "0.5", "--timeline"]
        ) == 0
        assert "ms/char" in capsys.readouterr().out

    def test_run_multi_session(self, capsys):
        assert main(
            ["run", "vr_gaming", "J", "--duration", "0.5", "--sessions", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "3 sessions of vr_gaming" in out
        assert "session 2:" in out
        assert "cost cache" in out

    def test_run_segment_granularity(self, capsys):
        assert main(
            ["run", "ar_gaming", "J", "--duration", "0.5",
             "--granularity", "segment"]
        ) == 0
        out = capsys.readouterr().out
        assert "1 sessions of ar_gaming" in out

    def test_run_rejects_bad_session_count(self, capsys):
        assert main(["run", "vr_gaming", "J", "--sessions", "0"]) == 2

    def test_run_rejects_segment_count_without_segment_dispatch(
        self, capsys
    ):
        assert main(["run", "ar_gaming", "J", "--segments", "3"]) == 2
        assert "segments_per_model=3 only acts at segment granularity" in (
            capsys.readouterr().err
        )

    def test_suite(self, capsys):
        assert main(["suite", "A", "--duration", "0.5"]) == 0
        assert "XRBench SCORE" in capsys.readouterr().out

    def test_tables_all(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        for t in ("Table 1", "Table 2", "Table 3", "Table 5", "Table 7"):
            assert t in out

    def test_tables_single(self, capsys):
        assert main(["tables", "--which", "3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "Table 5" not in out

    def test_models_single(self, capsys):
        assert main(["models", "--code", "KD"]) == 0
        out = capsys.readouterr().out
        assert "KD" in out and "WS@4096PE" in out

    def test_figure8(self, capsys):
        assert main(["figure8"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_figure6(self, capsys):
        assert main(["figure6", "--duration", "0.5"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_figure6_names_the_accelerator_that_ran(self, capsys):
        assert main(
            ["figure6", "--accelerator", "A", "--duration", "0.5"]
        ) == 0
        title = capsys.readouterr().out.splitlines()[0]
        assert title.endswith("(accelerator A)")

    def test_figure7_small(self, capsys):
        assert main(["figure7", "--trials", "2", "--duration", "0.5"]) == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_scheduler_flag(self, capsys):
        assert main(
            ["run", "vr_gaming", "A", "--duration", "0.5",
             "--scheduler", "edf"]
        ) == 0

    def test_rate_monotonic_scheduler_flag(self, capsys):
        assert main(
            ["run", "ar_gaming", "J", "--duration", "0.5",
             "--scheduler", "rate_monotonic"]
        ) == 0

    def test_frame_loss_flag(self, capsys):
        assert main(
            ["run", "vr_gaming", "A", "--duration", "0.5",
             "--frame-loss", "0.3"]
        ) == 0
        out = capsys.readouterr().out
        assert "qoe=" in out

    def test_ablations_quantization(self, capsys):
        assert main(["ablations", "--which", "quantization"]) == 0
        out = capsys.readouterr().out
        assert "int8" in out and "acc_score" in out

    def test_ablations_dvfs(self, capsys):
        assert main(["ablations", "--which", "dvfs"]) == 0
        assert "saving" in capsys.readouterr().out

    def test_stats(self, capsys):
        assert main(
            ["stats", "outdoor_activity_a", "A", "--seeds", "3",
             "--duration", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "95% CI" in out

    @pytest.mark.parametrize("seeds", [[], ["--seeds", "3"]])
    def test_stats_rejects_seed(self, seeds, capsys):
        # The sweep sets every seed itself; nor is --seed read as --seeds.
        with pytest.raises(SystemExit) as exc:
            main(["stats", "outdoor_activity_a", "A", "--seed", "7",
                  "--duration", "0.5", *seeds])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_export_submission(self, capsys):
        assert main(["export", "A", "--duration", "0.5"]) == 0
        out = capsys.readouterr().out
        assert '"benchmark": "XRBench"' in out
        assert "breakdowns" not in out

    def test_export_submission_with_breakdowns(self, capsys):
        assert main(
            ["export", "A", "--duration", "0.5", "--breakdowns"]
        ) == 0
        assert "breakdowns" in capsys.readouterr().out

    def test_observations(self, capsys):
        assert main(["observations"]) == 0
        out = capsys.readouterr().out
        assert "[HOLDS ]" in out and "[BROKEN]" not in out

    def test_export_csv(self, capsys):
        assert main(
            ["export", "A", "--duration", "0.5", "--format", "csv"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("system,scenario,model")

    def test_run_with_churn(self, capsys):
        assert main(
            ["run", "vr_gaming", "J", "--duration", "0.5",
             "--sessions", "3", "--churn", "0.4"]
        ) == 0
        out = capsys.readouterr().out
        assert "3 sessions of vr_gaming" in out
        assert "active=" in out  # per-session active-duration accounting

    def test_run_preemptive_needs_capable_scheduler(self, capsys):
        assert main(
            ["run", "vr_gaming", "J", "--duration", "0.5",
             "--granularity", "segment", "--preemptive"]
        ) == 2
        assert "should_preempt" in capsys.readouterr().err

    def test_run_preemptive_edf(self, capsys):
        assert main(
            ["run", "vr_gaming", "J", "--duration", "0.5",
             "--sessions", "2", "--granularity", "segment",
             "--scheduler", "edf", "--preemptive"]
        ) == 0
        assert "2 sessions of vr_gaming" in capsys.readouterr().out

    def test_churned_sweep_prints_session_means(self, capsys):
        # Churned sweep specs route through the multi-tenant engine
        # (MultiSessionReport), which the table printer must handle.
        assert main(
            ["sweep", "--scenario", "vr_gaming", "--accelerator", "J",
             "--duration", "0.3", "--churn", "0.2"]
        ) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert lines[0].startswith("scenario")
        assert lines[1].startswith("vr_gaming")


class TestFigureFlags:
    """Every flag a figure accepts reaches its runs."""

    @pytest.mark.parametrize("argv", [
        ["figure6", "--duration", "0.5"],
        ["figure7", "--trials", "2", "--duration", "0.5"],
    ])
    def test_score_preset_reaches_the_runs(self, argv, capsys):
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--score-preset", "low_power"]) == 0
        assert capsys.readouterr().out != default

    @pytest.mark.parametrize("argv", [
        ["figure5", "--pes", "8192"],
        ["figure6", "--pes", "1234"],
        ["figure7", "--pes", "8192"],
        ["figure7", "--seed", "3"],
    ])
    def test_flags_a_figure_would_ignore_are_rejected(self, argv, capsys):
        # Each figure sets its own PE budgets, and Figure 7 its seeds.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_score_preset_fails_cleanly(self, capsys):
        assert main(["figure5", "--score-preset", "bogus"]) == 2
        assert "unknown score preset" in capsys.readouterr().err


class TestChurnedExport:
    """CLI ``export`` across all three formats on a churned suite."""

    CHURN_ARGS = ["export", "A", "--duration", "0.5", "--churn", "0.3"]

    def test_submission_round_trips(self, capsys):
        assert main(self.CHURN_ARGS + ["--breakdowns"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmark"] == "XRBench"
        assert 0.0 <= payload["xrbench_score"] <= 1.0
        assert len(payload["breakdowns"]) == 7

    def test_json_round_trips_with_active_duration(self, capsys):
        assert main(self.CHURN_ARGS + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["scenarios"]) == 7
        for scenario in payload["scenarios"]:
            session = scenario["session"]
            assert session["dynamic"] is True
            # Churned: strictly inside the streamed duration.
            assert 0.0 < session["active_duration_s"] < 0.5
        # The whole document survives a JSON round-trip.
        assert json.loads(json.dumps(payload)) == payload

    def test_csv_parses_with_active_duration_fields(self, capsys):
        import csv as csv_mod
        import io

        assert main(self.CHURN_ARGS + ["--format", "csv"]) == 0
        out = capsys.readouterr().out
        rows = list(csv_mod.DictReader(io.StringIO(out)))
        assert rows
        header = out.splitlines()[0].split(",")
        assert "session_id" in header
        assert "active_duration_s" in header
        for row in rows:
            assert 0.0 < float(row["active_duration_s"]) < 0.5
            assert int(row["session_id"]) == 0

    def test_static_export_reports_full_window(self, capsys):
        assert main(
            ["export", "A", "--duration", "0.5", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        for scenario in payload["scenarios"]:
            session = scenario["session"]
            assert session["dynamic"] is False
            assert session["active_duration_s"] == 0.5


class TestSpecFile:
    def test_run_from_spec_file(self, tmp_path, capsys):
        spec = RunSpec(scenario="vr_gaming", accelerator="A",
                       duration_s=0.5)
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json(indent=2))
        assert main(["run", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "vr_gaming" in out and "overall=" in out

    def test_run_from_multi_session_spec_file(self, tmp_path, capsys):
        spec = RunSpec(scenario="vr_gaming", accelerator="J",
                       duration_s=0.5, sessions=2)
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert main(["run", "--spec", str(path)]) == 0
        assert "2 sessions of vr_gaming" in capsys.readouterr().out

    def test_spec_and_positionals_conflict(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(RunSpec(scenario="vr_gaming").to_json())
        assert main(["run", "vr_gaming", "A", "--spec", str(path)]) == 2

    def test_missing_positionals_without_spec(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_invalid_spec_file_reports_error(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"scenario": "nope"}))
        assert main(["run", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("unknown scenario")  # no KeyError-repr quotes

    def test_explicit_flags_override_spec_fields(self, tmp_path, capsys):
        spec = RunSpec(scenario="vr_gaming", accelerator="J",
                       duration_s=0.5)
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert main(["run", "--spec", str(path), "--sessions", "2"]) == 0
        assert "2 sessions of vr_gaming" in capsys.readouterr().out

    def test_explicit_default_value_still_overrides_spec(
        self, tmp_path, capsys
    ):
        spec = RunSpec(scenario="vr_gaming", accelerator="J",
                       duration_s=0.5, sessions=4)
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        # --sessions 1 equals the flag default but was passed explicitly,
        # so it must override the spec's sessions=4.
        assert main(["run", "--spec", str(path), "--sessions", "1"]) == 0
        out = capsys.readouterr().out
        assert "Scenario 'vr_gaming'" in out
        assert "sessions of" not in out

    def test_suite_spec_with_timeline(self, tmp_path, capsys):
        path = tmp_path / "suite.json"
        path.write_text(
            RunSpec.for_suite("A", duration_s=0.5).to_json()
        )
        assert main(["run", "--spec", str(path), "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "XRBench SCORE" in out
        assert "-- ar_gaming --" in out and "ms/char" in out


class TestSweepCommand:
    def test_dry_run_emits_expanded_specs(self, capsys):
        assert main(
            ["sweep", "--dry-run",
             "--scenario", "ar_gaming", "--scenario", "vr_gaming",
             "--accelerator", "A", "--accelerator", "J"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document["specs"]) == 4
        cells = [
            (spec["scenario"], spec["accelerator"])
            for spec in document["specs"]
        ]
        assert cells == [
            ("ar_gaming", "A"), ("ar_gaming", "J"),
            ("vr_gaming", "A"), ("vr_gaming", "J"),
        ]
        # Every emitted spec must round-trip through RunSpec.
        for spec_dict in document["specs"]:
            assert RunSpec.from_dict(spec_dict).to_dict() == spec_dict

    def test_dry_run_validates_against_checked_in_schema(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        assert main(
            ["sweep", "--dry-run",
             "--scenario", "ar_gaming", "--scenario", "vr_gaming",
             "--accelerator", "A", "--accelerator", "J"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        schema = json.loads(
            (REPO_ROOT / "schema" / "runspec.schema.json").read_text()
        )
        jsonschema.validate(document, schema)

    def test_dry_run_emits_per_cell_estimates(self, capsys):
        assert main(
            ["sweep", "--dry-run", "--duration", "0.1",
             "--scenario", "ar_gaming", "--scenario", "vr_gaming",
             "--accelerator", "A", "--accelerator", "J"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        cells = document["cells"]
        assert len(cells) == len(document["specs"]) == 4
        fingerprints = {c["fingerprint"] for c in cells}
        assert len(fingerprints) == 4  # every cell is a distinct plan
        for cell in cells:
            assert len(cell["fingerprint"]) == 64
            assert len(cell["workload_fingerprint"]) == 64
            estimate = cell["estimate"]
            assert estimate["expected_requests"] > 0
            assert estimate["est_busy_engine_s"] > 0
            assert estimate["est_energy_mj"] > 0

    def test_faults_bearing_spec_validates_against_schema(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        from repro.api import FAULT_PROFILES, RunSpec

        assert main(
            ["sweep", "--dry-run", "--scenario", "vr_gaming",
             "--accelerator", "J", "--faults", "single"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        schema = json.loads(
            (REPO_ROOT / "schema" / "runspec.schema.json").read_text()
        )
        jsonschema.validate(document, schema)
        for spec in document["specs"]:
            assert spec["faults"] == "single"
        # Every registered profile validates; an unknown one must not.
        for profile in FAULT_PROFILES:
            jsonschema.validate(
                {"specs": [RunSpec(
                    scenario="vr_gaming", accelerator="J",
                    faults=profile,
                ).to_dict()]},
                schema,
            )
        bogus = RunSpec(scenario="vr_gaming", accelerator="J").to_dict()
        bogus["faults"] = "bitflip"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"specs": [bogus]}, schema)

    def test_sweep_rejects_bad_workers(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--scenario", "vr_gaming", "--workers", "0"])

    def test_sweep_reports_bad_duration_cleanly(self, capsys):
        assert main(
            ["sweep", "--scenario", "vr_gaming", "--duration", "-1"]
        ) == 2
        assert "duration" in capsys.readouterr().err

    def test_suite_reports_bad_duration_cleanly(self, capsys):
        assert main(["suite", "A", "--duration", "-1"]) == 2
        assert "duration" in capsys.readouterr().err

    def test_sweep_execution_error_is_clean(self, capsys):
        # 1001 PEs divide accelerator A's 1-way partition but not J's
        # 2-way one, so the failure happens mid-execution, not at spec
        # construction; it must still exit 2 with a message.
        assert main(
            ["sweep", "--scenario", "vr_gaming",
             "--accelerator", "A", "--accelerator", "J",
             "--pes", "1001", "--duration", "0.5"]
        ) == 2
        assert "not divisible" in capsys.readouterr().err

    def test_sweep_executes_grid(self, capsys):
        assert main(
            ["sweep", "--scenario", "vr_gaming",
             "--accelerator", "A", "--accelerator", "J",
             "--duration", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "vr_gaming" in out
        assert out.count("\n") >= 3  # header + two result rows


class TestDvfsFlag:
    def test_run_with_dvfs_governor(self, capsys):
        assert main(
            ["run", "vr_gaming", "J", "--duration", "0.25",
             "--dvfs", "race_to_idle"]
        ) == 0
        out = capsys.readouterr().out
        assert "dvfs=race_to_idle" not in out  # describe() is internal
        assert "total energy" in out

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "vr_gaming", "J", "--dvfs", "warp"]
            )

    def test_sweep_dry_run_emits_policy(self, capsys):
        assert main(
            ["sweep", "--dry-run", "--scenario", "vr_gaming",
             "--dvfs", "slack"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert all(
            spec["dvfs_policy"] == "slack" for spec in document["specs"]
        )

    def test_suite_accepts_dvfs(self, capsys):
        assert main(
            ["suite", "A", "--duration", "0.2", "--dvfs", "slack"]
        ) == 0
        assert "XRBench SCORE" in capsys.readouterr().out


class TestAdmissionFlag:
    def test_flag_reaches_the_spec(self, capsys):
        assert main(
            ["run", "vr_gaming", "J", "--sessions", "8",
             "--duration", "0.25", "--admission", "shed"]
        ) == 0
        out = capsys.readouterr().out
        assert "8 sessions" in out

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "vr_gaming", "J", "--admission", "panic"]
            )

    def test_sweep_dry_run_emits_policy(self, capsys):
        assert main(
            ["sweep", "--dry-run", "--scenario", "vr_gaming",
             "--admission", "degrade"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert all(
            spec["admission"] == "degrade" for spec in document["specs"]
        )

    def test_suite_accepts_admission(self, capsys):
        assert main(
            ["suite", "A", "--duration", "0.2", "--admission", "shed"]
        ) == 0
        assert "XRBench SCORE" in capsys.readouterr().out


class TestRecordAndReport:
    def test_record_writes_database(self, tmp_path, capsys):
        db = tmp_path / "runs.jsonl"
        assert main(
            ["run", "vr_gaming", "A", "--duration", "0.25",
             "--record", str(db)]
        ) == 0
        err = capsys.readouterr().err
        assert f"recorded 1 run(s) to {db}" in err
        assert len(db.read_text().splitlines()) == 1

    def test_record_appends_across_invocations(self, tmp_path, capsys):
        db = tmp_path / "runs.jsonl"
        for policy in ("none", "degrade"):
            assert main(
                ["run", "vr_gaming", "J", "--sessions", "4",
                 "--duration", "0.25", "--admission", policy,
                 "--record", str(db)]
            ) == 0
        capsys.readouterr()
        assert len(db.read_text().splitlines()) == 2

    def test_report_renders_recorded_runs(self, tmp_path, capsys):
        db = tmp_path / "runs.jsonl"
        for policy in ("none", "shed"):
            main(["run", "vr_gaming", "J", "--sessions", "4",
                  "--duration", "0.25", "--admission", policy,
                  "--record", str(db)])
        capsys.readouterr()
        assert main(["report", "--runs", str(db)]) == 0
        out = capsys.readouterr().out
        assert "# XRBench run report" in out
        assert "QoE Pareto frontier by admission policy" in out
        assert "vr_gaming[shed]" in out

    def test_report_html_to_file(self, tmp_path, capsys):
        db = tmp_path / "runs.jsonl"
        main(["run", "vr_gaming", "A", "--duration", "0.25",
              "--record", str(db)])
        capsys.readouterr()
        page = tmp_path / "report.html"
        assert main(
            ["report", "--runs", str(db), "--format", "html",
             "--output", str(page)]
        ) == 0
        assert capsys.readouterr().err.strip() == f"wrote {page}"
        assert page.read_text().startswith("<!DOCTYPE html>")

    def test_report_on_missing_database_exits_2(self, tmp_path, capsys):
        assert main(["report", "--runs", str(tmp_path / "nope.jsonl")]) == 2
        assert "no runs recorded" in capsys.readouterr().err

    def test_report_on_corrupt_database_warns_and_skips(self, tmp_path,
                                                        capsys):
        # A fully-corrupt database leaves no runs: warn about the skipped
        # line, then fail with the usual empty-database message.
        db = tmp_path / "runs.jsonl"
        db.write_text("not json\n")
        assert main(["report", "--runs", str(db)]) == 2
        err = capsys.readouterr().err
        assert "skipped 1 malformed line(s) (1)" in err
        assert "no runs recorded" in err

    def test_report_survives_a_crashed_writers_tail(self, tmp_path,
                                                    capsys):
        # A truncated tail (crashed writer) costs only its own line: the
        # intact records still render, with a warning on stderr and a
        # banner in the report body.
        db = tmp_path / "runs.jsonl"
        assert main(
            ["run", "vr_gaming", "A", "--duration", "0.2",
             "--record", str(db)]
        ) == 0
        with db.open("a") as fh:
            fh.write('{"spec": {"trunc')
        capsys.readouterr()
        assert main(["report", "--runs", str(db)]) == 0
        captured = capsys.readouterr()
        assert "skipped 1 malformed line(s) (2)" in captured.err
        assert "XRBench run report" in captured.out
        assert "skipped 1 malformed database line(s)" in captured.out

    def test_export_can_record(self, tmp_path, capsys):
        db = tmp_path / "runs.jsonl"
        assert main(
            ["export", "A", "--duration", "0.2", "--format", "csv",
             "--record", str(db)]
        ) == 0
        captured = capsys.readouterr()
        assert "shed" in captured.out.splitlines()[0]
        record = json.loads(db.read_text())
        assert record["spec"]["suite"] is True


class TestPlanCommand:
    def test_emits_schema_valid_artifact(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        assert main(
            ["plan", "vr_gaming", "J", "--duration", "0.25",
             "--sessions", "2", "--granularity", "segment",
             "--faults", "single", "--admission", "shed"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        schema = json.loads(
            (REPO_ROOT / "schema" / "dispatchplan.schema.json").read_text()
        )
        jsonschema.validate(document, schema)
        assert document["mode"] == "sessions"
        assert document["faults"]["profile"] == "single"
        assert document["segment_chains"]

    def test_output_flag_writes_loadable_artifact(self, tmp_path, capsys):
        from repro.api import DispatchPlan

        path = tmp_path / "plan.json"
        assert main(
            ["plan", "ar_gaming", "A", "--duration", "0.25",
             "--output", str(path)]
        ) == 0
        assert "wrote" in capsys.readouterr().err
        plan = DispatchPlan.from_json(path.read_text())
        assert plan.spec.scenario == "ar_gaming"

    def test_spec_file_input(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            RunSpec(scenario="vr_gaming", duration_s=0.25).to_json()
        )
        assert main(["plan", "--spec", str(spec_path)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["spec"]["scenario"] == "vr_gaming"

    def test_diff_renders_structured_entries(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path, scheduler in ((a, "latency_greedy"), (b, "edf")):
            assert main(
                ["plan", "vr_gaming", "J", "--duration", "0.25",
                 "--scheduler", scheduler, "--output", str(path)]
            ) == 0
        capsys.readouterr()
        assert main(["plan", "--diff", str(a), str(b), "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert entries, "scheduler A/B must yield a non-empty diff"
        by_path = {e["path"]: e for e in entries}
        assert by_path["scheduler"]["a"] == "latency_greedy"
        assert by_path["scheduler"]["b"] == "edf"

    def test_diff_of_identical_plans_is_empty(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        assert main(
            ["plan", "vr_gaming", "J", "--duration", "0.25",
             "--output", str(a)]
        ) == 0
        capsys.readouterr()
        assert main(["plan", "--diff", str(a), str(a)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_tampered_artifact_fails_cleanly(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        assert main(
            ["plan", "vr_gaming", "J", "--duration", "0.25",
             "--output", str(a)]
        ) == 0
        data = json.loads(a.read_text())
        data["scheduler"] = "edf"
        a.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["plan", "--diff", str(a), str(a)]) == 2
        assert "fingerprint mismatch" in capsys.readouterr().err

    def test_missing_positionals_error(self):
        with pytest.raises(SystemExit):
            main(["plan"])


class TestExportFingerprints:
    def test_json_export_stamps_fingerprints(self, capsys):
        assert main(
            ["export", "A", "--duration", "0.2", "--format", "json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document["plan_fingerprint"]) == 64
        assert len(document["workload_fingerprint"]) == 64

    def test_csv_export_stamps_fingerprint_column(self, capsys):
        assert main(
            ["export", "A", "--duration", "0.2", "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("plan_fingerprint")
        fingerprints = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert len(fingerprints) == 1  # one suite run, one plan
        assert len(fingerprints.pop()) == 64

    def test_recorded_runs_group_by_workload(self, tmp_path, capsys):
        db = tmp_path / "runs.jsonl"
        for seed in ("0", "3"):
            assert main(
                ["run", "vr_gaming", "A", "--duration", "0.2",
                 "--seed", seed, "--record", str(db)]
            ) == 0
        capsys.readouterr()
        assert main(["report", "--runs", str(db)]) == 0
        out = capsys.readouterr().out
        assert "Seed replicates by workload fingerprint" in out
        # Both seeds land in one group row listing them.
        assert "| 2 | 0, 3 |" in out
