"""Persistent run database and QoE Pareto reports.

The admission-control plane only pays off when its trade-offs are
visible: shedding buys per-survivor QoE with throughput, degrading buys
deadline hits with model quality.  This module gives those trade-offs a
durable home — every :func:`repro.api.execute` result can be appended to
an on-disk JSON-lines database (``runs/runs.jsonl`` by default), and a
:class:`ReportGenerator` renders the accumulated runs as markdown or
HTML tables plus a QoE/throughput/energy Pareto frontier across
admission policies, reusing :func:`repro.eval.pareto.pareto_frontier`
over :class:`repro.eval.pareto.QoePoint` records.

The database is append-only and schema-light on purpose: each line is a
self-contained record ``{"spec": ..., "metrics": ..., "sessions": ...}``
so partial writes from crashed runs corrupt at most their own line, and
old databases keep loading as fields are added.
"""

from __future__ import annotations

import html
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.report import (
    BenchmarkReport,
    MultiSessionReport,
    ScenarioReport,
)
from repro.costmodel.analysis import ordered_sum
from repro.runtime.admission import quality_retention

from .pareto import QoePoint, pareto_frontier

__all__ = [
    "DEFAULT_DB_PATH",
    "ReportGenerator",
    "RunDatabase",
    "RunRecord",
    "summarize_report",
]

DEFAULT_DB_PATH = Path("runs") / "runs.jsonl"

# Metric keys every record carries; ReportGenerator renders them in this
# order.  (key, column header, format spec)
_METRIC_COLUMNS = (
    ("qoe", "QoE", ".3f"),
    ("throughput_rps", "throughput (req/s)", ".1f"),
    ("energy_mj", "energy (mJ)", ".1f"),
    ("miss_rate", "miss rate", ".3f"),
    ("quality_proxy", "quality", ".3f"),
)


@dataclass(frozen=True)
class RunRecord:
    """One persisted run: the spec that produced it plus its metrics.

    ``plan`` stamps the compiled :class:`~repro.api.DispatchPlan` that
    executed the run — its full ``fingerprint`` and the seed-independent
    ``workload_fingerprint`` — so the report generator can group runs of
    the identical plan under different seeds.  Records of reports that
    carry no plan stamp (:func:`repro.api.run_group`'s, hand-built
    ones), and records appended before the stamp existed, have an empty
    block.
    """

    spec: dict
    metrics: dict
    sessions: tuple[dict, ...] = ()
    plan: dict = field(default_factory=dict)

    @property
    def policy(self) -> str:
        return str(self.spec.get("admission", "none"))

    @property
    def plan_fingerprint(self) -> str | None:
        value = self.plan.get("fingerprint")
        return str(value) if value else None

    @property
    def workload_fingerprint(self) -> str | None:
        value = self.plan.get("workload_fingerprint")
        return str(value) if value else None

    @property
    def label(self) -> str:
        """Short row label: scenario/mode plus the admission policy."""
        if self.spec.get("suite") or self.spec.get("mode") == "suite":
            name = "suite"
        else:
            scenario = self.spec.get("scenario")
            if isinstance(scenario, (list, tuple)):
                scenario = scenario[0] if scenario else None
            name = "?" if scenario is None else str(scenario)
        return f"{name}[{self.policy}]"

    def qoe_point(self) -> QoePoint:
        return QoePoint(
            label=self.label,
            qoe=float(self.metrics["qoe"]),
            throughput_rps=float(self.metrics["throughput_rps"]),
            energy_mj=float(self.metrics["energy_mj"]),
        )

    def to_dict(self) -> dict:
        data = {
            "spec": self.spec,
            "metrics": self.metrics,
            "sessions": list(self.sessions),
        }
        if self.plan:
            data["plan"] = self.plan
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        return cls(
            spec=dict(data["spec"]),
            metrics=dict(data["metrics"]),
            sessions=tuple(data.get("sessions", ())),
            plan=dict(data.get("plan", {})),
        )


def _session_row(report: ScenarioReport) -> dict:
    """Per-session detail row, including the admission-control stamp.

    The frame counts are the ones scoring made in its pass over the
    request log; the row does not scan the log again.
    """
    sim, score = report.simulation, report.score
    row = {
        "session_id": sim.session_id,
        "scenario": sim.scenario.name,
        "overall": score.overall,
        "qoe": score.qoe,
        "frames_streamed": len(sim.requests),
        "frames_executed": score.total_executed,
        "frames_dropped": score.total_dropped,
        "missed_deadlines": score.total_missed_deadlines,
        "energy_mj": sim.total_energy_mj(),
        "shed": False,
        "shed_reason": None,
        "degradation_level": 0,
        "quality_proxy": 1.0,
    }
    record = sim.admission
    if record is not None:
        row["shed"] = record.shed
        row["shed_reason"] = record.shed_reason
        row["degradation_level"] = record.degradation_level
        row["quality_proxy"] = quality_retention(
            sim.scenario, record.degradation_level
        )
    faults = sim.faults
    row["faulted_requests"] = 0
    row["fault_retries"] = 0
    row["fault_lost"] = 0
    if faults is not None:
        row["faulted_requests"] = faults.killed
        row["fault_retries"] = faults.retries
        row["fault_lost"] = faults.lost
    return row


def _aggregate(rows: tuple[dict, ...], duration_s: float) -> dict:
    """System-level metrics over a run's per-session rows.

    The float sums add left to right (``ordered_sum``), so a row is the
    same on every interpreter; the integer counts use ``sum()``.
    """
    executed = sum(row["frames_executed"] for row in rows)
    missed = sum(row["missed_deadlines"] for row in rows)
    return {
        "qoe": _mean([row["qoe"] for row in rows]),
        "throughput_rps": executed / duration_s,
        "energy_mj": ordered_sum(row["energy_mj"] for row in rows),
        "miss_rate": missed / executed if executed else 0.0,
        "mean_overall": _mean([row["overall"] for row in rows]),
        "frames_executed": executed,
        "missed_deadlines": missed,
    }


def summarize_report(spec, report) -> RunRecord:
    """Flatten any :func:`repro.api.execute` report into a RunRecord.

    ``spec`` may be a :class:`repro.api.RunSpec` or an already-serialized
    spec dict (the worker-process path hands dicts around).  The plan
    block is the stamp :func:`repro.api.execute_plan` put on the report:
    the fingerprints of the plan that ran.  A report without one gets
    an empty block; nothing is compiled here.
    """
    spec_dict = spec if isinstance(spec, dict) else spec.to_dict()
    if isinstance(report, ScenarioReport):
        reports = [report]
    elif isinstance(report, BenchmarkReport):
        reports = list(report.scenario_reports)
    elif isinstance(report, MultiSessionReport):
        reports = list(report.session_reports)
    else:
        raise TypeError(f"cannot summarize report type {type(report)!r}")
    sessions = tuple(_session_row(r) for r in reports)
    metrics = _aggregate(
        sessions, max(r.simulation.duration_s for r in reports)
    )
    # Aggregate quality across sessions: degraded or shed sessions pull
    # the run-level quality proxy below 1.0 (a shed session's retained
    # quality is 0 — its user got nothing).
    qualities = [
        0.0 if row["shed"] else row["quality_proxy"] for row in sessions
    ]
    metrics["quality_proxy"] = _mean(qualities)
    plan: dict = {}
    if report.plan_fingerprint is not None:
        plan = {
            "fingerprint": report.plan_fingerprint,
            "workload_fingerprint": report.workload_fingerprint,
        }
    return RunRecord(
        spec=spec_dict, metrics=metrics, sessions=sessions, plan=plan,
    )


class RunDatabase:
    """Append-only JSON-lines store of :class:`RunRecord` entries.

    Appends are crash-safe: each record is one ``O_APPEND`` write of a
    complete line, flushed and fsynced before the append returns, so
    concurrent writers interleave whole lines and a crashed writer can
    corrupt at most the file's tail.  :meth:`load` skips blank lines and
    *tolerates* malformed ones — truncated or garbled lines (the residue
    of a crash mid-write) are counted in :attr:`skipped_lines` instead
    of poisoning the whole database; ``xrbench report`` surfaces the
    count as a warning.
    """

    def __init__(self, path: str | Path = DEFAULT_DB_PATH) -> None:
        self.path = Path(path)
        #: ``(lineno, reason)`` of malformed lines the last :meth:`load`
        #: skipped; empty after loading a healthy database.
        self.skipped_lines: list[tuple[int, str]] = []

    def append(self, spec, report) -> RunRecord:
        """Summarize ``report`` and persist it; returns the record."""
        record = summarize_report(spec, report)
        self.append_record(record)
        return record

    def append_record(self, record: RunRecord) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        data = (
            json.dumps(record.to_dict(), sort_keys=True) + "\n"
        ).encode("utf-8")
        # One O_APPEND write of the whole line + fsync: the kernel makes
        # single-write appends atomic with respect to other appenders,
        # and the fsync means an acknowledged record survives a crash
        # of this process (a crash *mid-write* leaves a truncated tail
        # line, which load() skips and counts).
        fd = os.open(
            self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)

    def load(self) -> list[RunRecord]:
        """All intact records in append order; empty if no database yet.

        Malformed lines are skipped and recorded in
        :attr:`skipped_lines` — a crashed writer's truncated tail must
        not take the rest of the database down with it.
        """
        self.skipped_lines = []
        if not self.path.exists():
            return []
        records: list[RunRecord] = []
        with self.path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(RunRecord.from_dict(json.loads(line)))
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    self.skipped_lines.append((lineno, str(exc)))
        return records

    def __len__(self) -> int:
        return len(self.load())


@dataclass
class ReportGenerator:
    """Render a run database as markdown or HTML with a Pareto section.

    Runs are grouped by admission policy; each policy group becomes one
    :class:`QoePoint` (metrics averaged across the group's runs) and the
    non-dominated policies form the frontier table.
    """

    records: list[RunRecord] = field(default_factory=list)
    #: Malformed database lines the load skipped (surfaced as a report
    #: warning so silent corruption never masquerades as a clean DB).
    skipped_lines: list[tuple[int, str]] = field(default_factory=list)

    @classmethod
    def from_database(cls, db: RunDatabase) -> "ReportGenerator":
        records = db.load()
        return cls(records=records, skipped_lines=list(db.skipped_lines))

    def policy_points(self) -> list[QoePoint]:
        """One QoE/throughput/energy point per admission policy."""
        groups: dict[str, list[RunRecord]] = {}
        for record in self.records:
            groups.setdefault(record.policy, []).append(record)
        points = []
        for policy in sorted(groups):
            runs = groups[policy]
            points.append(
                QoePoint(
                    label=policy,
                    qoe=_mean([r.metrics["qoe"] for r in runs]),
                    throughput_rps=_mean(
                        [r.metrics["throughput_rps"] for r in runs]
                    ),
                    energy_mj=_mean([r.metrics["energy_mj"] for r in runs]),
                )
            )
        return points

    def frontier(self) -> list[QoePoint]:
        points = self.policy_points()
        return pareto_frontier(points) if points else []

    def workload_groups(self) -> list[tuple[str, list[RunRecord]]]:
        """Records grouped by workload fingerprint, first-seen order.

        Every group's runs executed the *identical compiled plan up to
        the seed* — the seed-replicate set whose spread is measurement
        noise, not workload difference.  Unstamped legacy records
        (appended before the plan stamp existed) are left out.
        """
        groups: dict[str, list[RunRecord]] = {}
        for record in self.records:
            fp = record.workload_fingerprint
            if fp is not None:
                groups.setdefault(fp, []).append(record)
        return list(groups.items())

    def _workload_rows(self) -> list[list[str]]:
        rows = []
        for fp, runs in self.workload_groups():
            seeds = [str(r.spec.get("seed", "?")) for r in runs]
            rows.append(
                [
                    fp[:12],
                    runs[0].label,
                    str(len(runs)),
                    ", ".join(seeds),
                    format(_mean([r.metrics["qoe"] for r in runs]), ".3f"),
                ]
            )
        return rows

    def _run_rows(self) -> list[list[str]]:
        rows = []
        for record in self.records:
            row = [record.label, record.policy]
            for key, _header, fmt in _METRIC_COLUMNS:
                value = record.metrics.get(key)
                row.append("-" if value is None else format(value, fmt))
            rows.append(row)
        return rows

    def _frontier_rows(self) -> tuple[list[QoePoint], list[list[str]]]:
        frontier = self.frontier()
        on_frontier = {p.label for p in frontier}
        rows = []
        for point in self.policy_points():
            rows.append(
                [
                    point.label,
                    format(point.qoe, ".3f"),
                    format(point.throughput_rps, ".1f"),
                    format(point.energy_mj, ".1f"),
                    "yes" if point.label in on_frontier else "no",
                ]
            )
        return frontier, rows

    def markdown(self) -> str:
        """GitHub-flavoured markdown: run table + policy Pareto table."""
        run_headers = ["run", "admission"] + [
            header for _key, header, _fmt in _METRIC_COLUMNS
        ]
        lines = ["# XRBench run report", "", f"{len(self.records)} runs.", ""]
        if self.skipped_lines:
            lines += [
                f"> **Warning:** skipped {len(self.skipped_lines)} "
                "malformed database line(s) "
                f"({', '.join(str(n) for n, _ in self.skipped_lines)}) — "
                "likely a crashed writer's truncated tail.",
                "",
            ]
        lines += ["## Runs", ""]
        lines += _markdown_table(run_headers, self._run_rows())
        workload_rows = self._workload_rows()
        if workload_rows:
            lines += [
                "",
                "## Seed replicates by workload fingerprint",
                "",
                "Runs in one group executed the identical compiled plan "
                "up to the seed.",
                "",
            ]
            lines += _markdown_table(
                ["workload", "run", "runs", "seeds", "mean QoE"],
                workload_rows,
            )
        frontier, rows = self._frontier_rows()
        lines += ["", "## QoE Pareto frontier by admission policy", ""]
        if rows:
            lines += _markdown_table(
                ["policy", "QoE", "throughput (req/s)", "energy (mJ)",
                 "frontier"],
                rows,
            )
            lines += [
                "",
                "Frontier (best QoE first): "
                + ", ".join(p.label for p in frontier),
            ]
        else:
            lines.append("No runs recorded.")
        return "\n".join(lines) + "\n"

    def html(self) -> str:
        """Self-contained HTML page with the same tables."""
        run_headers = ["run", "admission"] + [
            header for _key, header, _fmt in _METRIC_COLUMNS
        ]
        frontier, frontier_rows = self._frontier_rows()
        parts = [
            "<!DOCTYPE html>",
            "<html><head><meta charset='utf-8'>",
            "<title>XRBench run report</title>",
            "<style>table{border-collapse:collapse}"
            "td,th{border:1px solid #999;padding:4px 8px;"
            "font-family:monospace}</style>",
            "</head><body>",
            "<h1>XRBench run report</h1>",
            f"<p>{len(self.records)} runs.</p>",
        ]
        if self.skipped_lines:
            parts.append(
                "<p><strong>Warning:</strong> skipped "
                f"{len(self.skipped_lines)} malformed database line(s) "
                "&mdash; likely a crashed writer's truncated tail.</p>"
            )
        parts += [
            "<h2>Runs</h2>",
            _html_table(run_headers, self._run_rows()),
        ]
        workload_rows = self._workload_rows()
        if workload_rows:
            parts += [
                "<h2>Seed replicates by workload fingerprint</h2>",
                "<p>Runs in one group executed the identical compiled "
                "plan up to the seed.</p>",
                _html_table(
                    ["workload", "run", "runs", "seeds", "mean QoE"],
                    workload_rows,
                ),
            ]
        parts.append("<h2>QoE Pareto frontier by admission policy</h2>")
        if frontier_rows:
            parts.append(
                _html_table(
                    ["policy", "QoE", "throughput (req/s)", "energy (mJ)",
                     "frontier"],
                    frontier_rows,
                )
            )
            parts.append(
                "<p>Frontier (best QoE first): "
                + html.escape(", ".join(p.label for p in frontier))
                + "</p>"
            )
        else:
            parts.append("<p>No runs recorded.</p>")
        parts.append("</body></html>")
        return "\n".join(parts) + "\n"

    def render(self, fmt: str = "markdown") -> str:
        if fmt == "markdown":
            return self.markdown()
        if fmt == "html":
            return self.html()
        raise ValueError(
            f"unknown report format {fmt!r}; choose 'markdown' or 'html'"
        )


def _mean(values: list[float]) -> float:
    """The mean, summed left to right as ``sum()`` did before 3.12."""
    return ordered_sum(values) / len(values)


def _markdown_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _html_table(headers: list[str], rows: list[list[str]]) -> str:
    head = "".join(f"<th>{html.escape(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{html.escape(c)}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"
