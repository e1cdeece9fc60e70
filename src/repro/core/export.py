"""Report export: machine-readable results and the submission format.

Section 3.7: XRBench reveals every individual score for Pareto analysis,
but because detailed breakdowns can be commercially sensitive, *reporting
breakdown scores is optional* — only the overall XRBench SCORE is
mandatory.  :func:`submission` produces exactly that contract;
:func:`scenario_to_dict` / :func:`benchmark_to_dict` / :func:`to_csv`
serialise full reports for tooling.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any

from .report import BenchmarkReport, ScenarioReport

__all__ = [
    "scenario_to_dict",
    "benchmark_to_dict",
    "to_csv",
    "submission",
]


def _admission_to_dict(report: ScenarioReport) -> dict[str, Any]:
    """The session's admission-control stamp as plain data.

    Sessions run without a controller (``policy == "none"``, or no
    controller installed at all) export the neutral block — never shed,
    never degraded, full quality — so downstream consumers can rely on
    the keys existing unconditionally.
    """
    record = report.simulation.admission
    if record is None:
        return {
            "policy": "none",
            "shed": False,
            "shed_reason": None,
            "degradation_level": 0,
            "quality_proxy": 1.0,
            "actions": [],
        }
    from repro.runtime.admission import quality_retention

    return {
        "policy": record.policy,
        "shed": record.shed,
        "shed_reason": record.shed_reason,
        "degradation_level": record.degradation_level,
        "quality_proxy": quality_retention(
            report.simulation.scenario, record.degradation_level
        ),
        "actions": [
            {
                "time_s": a.time_s,
                "kind": a.kind,
                "reason": a.reason,
                "miss_ewma": a.miss_ewma,
                "level": a.level,
            }
            for a in record.actions
        ],
    }


def _faults_to_dict(report: ScenarioReport) -> dict[str, Any]:
    """The session's fault-injection stamp as plain data.

    Sessions run without a fault plan (``profile == "none"``, or no plan
    installed at all) export the neutral block — no kills, no retries,
    nothing lost — so downstream consumers can rely on the keys existing
    unconditionally.
    """
    record = report.simulation.faults
    if record is None:
        return {
            "profile": "none",
            "killed": 0,
            "retries": 0,
            "lost": 0,
            "recovered": 0,
            "mean_recovery_latency_s": None,
            "actions": [],
        }
    return {
        "profile": record.profile,
        "killed": record.killed,
        "retries": record.retries,
        "lost": record.lost,
        "recovered": record.recovered,
        "mean_recovery_latency_s": record.mean_recovery_latency_s,
        "actions": [
            {
                "time_s": a.time_s,
                "kind": a.kind,
                "engine_index": a.engine_index,
                "request_id": a.request_id,
                "model_code": a.model_code,
                "attempt": a.attempt,
            }
            for a in record.actions
        ],
    }


def scenario_to_dict(report: ScenarioReport) -> dict[str, Any]:
    """Full scenario report as plain data (JSON-ready)."""
    sim, score = report.simulation, report.score
    return {
        "scenario": sim.scenario.name,
        "system": sim.system.describe(),
        "duration_s": sim.duration_s,
        # Per-session lifetime accounting: every rate in this report is
        # normalised by the *active* window, which equals the streamed
        # duration for static sessions.
        "session": {
            "id": sim.session_id,
            "active_duration_s": sim.window_s,
            "dynamic": sim.active_duration_s is not None,
        },
        # QoE control-plane stamp: what the admission controller did to
        # this session (first-class, even when no controller ran).
        "admission": _admission_to_dict(report),
        # Resilience stamp: what the fault plan did to this session
        # (first-class, even when no plan ran).
        "faults": _faults_to_dict(report),
        # Honest per-session energy: total millijoules actually spent
        # (occupancy-log sum, including dropped requests' partial
        # segments) next to the Enmax-bounded energy *score* below.
        "energy_mj": sim.total_energy_mj(),
        "scores": {
            "overall": score.overall,
            "rt": score.rt,
            "energy": score.energy,
            "accuracy": score.accuracy,
            "qoe": score.qoe,
        },
        # Counted once, by scoring's pass over the request log.
        "frames": {
            "streamed": len(sim.requests),
            "executed": score.total_executed,
            "dropped": score.total_dropped,
            "drop_rate": report.frame_drop_rate(),
            "missed_deadlines": score.total_missed_deadlines,
        },
        # Window-clipped busy fractions: busy time is clipped to the
        # session's active window at accounting time, so these are true
        # occupancy shares (1.0 = saturated; the drain tail of in-flight
        # work past the window never overcounts).
        "utilization": {
            str(i): sim.utilization(i) for i in range(sim.system.num_subs)
        },
        "models": [
            {
                "code": m.model_code,
                "per_model": m.per_model,
                "qoe": m.qoe,
                "rt": m.mean_unit("rt"),
                "energy": m.mean_unit("energy"),
                "accuracy": m.mean_unit("accuracy"),
                "executed": m.frames_executed,
                "streamed": m.frames_streamed,
                "dropped": m.frames_dropped,
                "missed_deadlines": m.missed_deadlines,
            }
            for m in score.model_scores
        ],
    }


def benchmark_to_dict(
    report: BenchmarkReport,
    *,
    plan_fingerprint: str | None = None,
    workload_fingerprint: str | None = None,
) -> dict[str, Any]:
    """Full suite report as plain data.

    The optional fingerprints stamp which compiled
    :class:`~repro.api.DispatchPlan` produced the report (``xrbench
    export`` passes the ones the executed report carries), so exports
    from the identical plan — and, via the workload fingerprint, from
    the same plan under different seeds — are groupable without
    re-deriving anything.
    """
    data: dict[str, Any] = {
        "system": report.system.describe(),
        "xrbench_score": report.xrbench_score,
        "scenarios": [
            scenario_to_dict(r) for r in report.scenario_reports
        ],
    }
    if plan_fingerprint is not None:
        data["plan_fingerprint"] = plan_fingerprint
    if workload_fingerprint is not None:
        data["workload_fingerprint"] = workload_fingerprint
    return data


def to_csv(
    report: BenchmarkReport, *, plan_fingerprint: str | None = None
) -> str:
    """One CSV row per (scenario, model) with all score components.

    ``plan_fingerprint`` (when given) is repeated on every row — CSV
    consumers join on it to group rows produced by the identical
    compiled plan.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["system", "scenario", "model", "per_model", "qoe", "rt",
              "energy", "accuracy", "executed", "streamed", "dropped",
              "missed_deadlines", "session_id", "active_duration_s",
              "session_energy_mj", "shed", "degradation_level",
              "quality_proxy", "fault_killed", "fault_retries",
              "fault_lost"]
    if plan_fingerprint is not None:
        header.append("plan_fingerprint")
    writer.writerow(header)
    system = report.system.describe()
    for scenario_report in report.scenario_reports:
        data = scenario_to_dict(scenario_report)
        session = data["session"]
        admission = data["admission"]
        faults = data["faults"]
        for m in data["models"]:
            row = [system, data["scenario"], m["code"],
                   f"{m['per_model']:.6f}", f"{m['qoe']:.6f}",
                   f"{m['rt']:.6f}", f"{m['energy']:.6f}",
                   f"{m['accuracy']:.6f}", m["executed"], m["streamed"],
                   m["dropped"], m["missed_deadlines"],
                   session["id"], f"{session['active_duration_s']:.6f}",
                   f"{data['energy_mj']:.6f}",
                   int(admission["shed"]), admission["degradation_level"],
                   f"{admission['quality_proxy']:.6f}",
                   faults["killed"], faults["retries"], faults["lost"]]
            if plan_fingerprint is not None:
                row.append(plan_fingerprint)
            writer.writerow(row)
    return buf.getvalue()


def submission(
    report: BenchmarkReport, include_breakdowns: bool = False
) -> str:
    """The official submission payload as JSON.

    The overall XRBench SCORE is mandatory; per-scenario and unit-score
    breakdowns are included only on request (Section 3.7's optionality for
    commercially-sensitive data).
    """
    payload: dict[str, Any] = {
        "benchmark": "XRBench",
        "system": report.system.describe(),
        "xrbench_score": round(report.xrbench_score, 6),
    }
    if include_breakdowns:
        payload["breakdowns"] = [
            {
                "scenario": row["scenario"],
                "overall": round(float(row["overall"]), 6),
                "rt": round(float(row["rt"]), 6),
                "energy": round(float(row["energy"]), 6),
                "qoe": round(float(row["qoe"]), 6),
            }
            for row in report.breakdown_rows()
        ]
    return json.dumps(payload, indent=2, sort_keys=True)
