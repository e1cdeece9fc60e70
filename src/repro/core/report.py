"""Benchmark reports: scores plus the detailed statistics of Figure 2.

The harness returns reports rather than bare numbers because the paper's
output contract includes "not only the scores ... but also detailed
performance statistics such as the amount of delay over deadline, frame
drop, execution timeline, and so on" (Section 3.5).

A report that :func:`repro.api.execute_plan` returns carries the
``plan_fingerprint`` and ``workload_fingerprint`` of the
:class:`~repro.api.DispatchPlan` it executed, so export and the run
database name the plan without compiling it again.  A report built any
other way (:func:`repro.api.run_group`, or by hand) has ``None`` there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.costmodel.analysis import ordered_sum
from repro.runtime import MultiSessionResult, SimulationResult, render_timeline

from .aggregate import ScenarioScore, benchmark_score

__all__ = ["ScenarioReport", "BenchmarkReport", "MultiSessionReport"]


@dataclass(frozen=True)
class ScenarioReport:
    """Everything measured for one scenario x system run."""

    simulation: SimulationResult
    score: ScenarioScore
    plan_fingerprint: str | None = None
    workload_fingerprint: str | None = None

    @property
    def overall(self) -> float:
        return self.score.overall

    def frame_drop_rate(self) -> float:
        """Dropped share of the streamed requests, from the score's counts."""
        streamed = len(self.simulation.requests)
        if streamed == 0:
            return 0.0
        return self.score.total_dropped / streamed

    def delay_over_deadline_ms(self) -> dict[str, float]:
        """Mean lateness (ms past deadline) per model, 0 if always on time."""
        out: dict[str, float] = {}
        for sm in self.simulation.scenario.models:
            late = [
                (r.end_time_s - r.deadline_s) * 1e3
                for r in self.simulation.completed(sm.code)
                if r.missed_deadline
            ]
            out[sm.code] = ordered_sum(late) / len(late) if late else 0.0
        return out

    def summary(self) -> str:
        """Multi-line human-readable report."""
        sim, score = self.simulation, self.score
        lines = [
            f"Scenario {sim.scenario.name!r} on {sim.system.describe()}",
        ]
        if sim.active_duration_s is not None:
            # Dynamic session: say which slice of the run it was online
            # for, since every per-session rate normalises by it.
            lines.append(
                f"  active window: {sim.active_duration_s:.3f}s of "
                f"{sim.duration_s:.3f}s streamed"
            )
        lines += [
            (
                f"  overall={score.overall:.3f}  rt={score.rt:.3f}  "
                f"energy={score.energy:.3f}  acc={score.accuracy:.3f}  "
                f"qoe={score.qoe:.3f}"
            ),
            (
                f"  frames: {len(sim.requests)} streamed, "
                f"{score.total_executed} executed, "
                f"{score.total_dropped} dropped "
                f"({self.frame_drop_rate():.1%}); "
                f"{score.total_missed_deadlines} missed deadlines"
            ),
            # Total energy actually spent (occupancy-log sum, so it
            # includes dropped requests' partial segments); the bounded
            # per-inference energy score above is its Enmax-relative view.
            f"  energy: {sim.total_energy_mj():.1f} mJ spent",
            # Busy time clips to the measurement window at accounting
            # time, so this cannot exceed 100% for runtime-produced
            # results; min() only guards hand-built ones.
            f"  mean engine utilization: "
            f"{min(1.0, sim.mean_utilization()):.1%}",
        ]
        faults = sim.faults
        if faults is not None:
            recovery = faults.mean_recovery_latency_s
            line = (
                f"  faults[{faults.profile}]: {faults.killed} killed, "
                f"{faults.retries} retries, {faults.recovered} "
                f"recovered, {faults.lost} lost"
            )
            if recovery is not None:
                line += f", mean recovery {recovery * 1e3:.2f} ms"
            lines.append(line)
        for m in score.model_scores:
            lines.append(
                f"    {m.model_code}: per-model={m.per_model:.3f} "
                f"qoe={m.qoe:.3f} rt={m.mean_unit('rt'):.3f} "
                f"exec={m.frames_executed}/{m.frames_streamed} "
                f"missed={m.missed_deadlines}"
            )
        return "\n".join(lines)

    def timeline(self, width: int = 100, until_s: float | None = None) -> str:
        return render_timeline(self.simulation, width, until_s)


@dataclass(frozen=True)
class BenchmarkReport:
    """Full-suite report for one accelerator system."""

    system: object  # AcceleratorSystem; kept loose to avoid import cycles
    scenario_reports: list[ScenarioReport]
    plan_fingerprint: str | None = None
    workload_fingerprint: str | None = None

    @property
    def xrbench_score(self) -> float:
        """Definition 16: the mandatory overall XRBench score."""
        return benchmark_score([r.score for r in self.scenario_reports])

    def scenario(self, name: str) -> ScenarioReport:
        for report in self.scenario_reports:
            if report.simulation.scenario.name == name:
                return report
        raise KeyError(f"no scenario {name!r} in this report")

    def breakdown_rows(self) -> list[dict[str, float | str]]:
        """One row per scenario: the Figure 5 bar values."""
        rows: list[dict[str, float | str]] = []
        for report in self.scenario_reports:
            s = report.score
            rows.append(
                {
                    "scenario": s.scenario_name,
                    "rt": s.rt,
                    "energy": s.energy,
                    "qoe": s.qoe,
                    "overall": s.overall,
                }
            )
        return rows

    def summary(self) -> str:
        lines = [f"XRBench suite on {self.system.describe()}"]
        for row in self.breakdown_rows():
            lines.append(
                f"  {row['scenario']:<22s} overall={row['overall']:.3f} "
                f"rt={row['rt']:.3f} energy={row['energy']:.3f} "
                f"qoe={row['qoe']:.3f}"
            )
        lines.append(f"  XRBench SCORE: {self.xrbench_score:.3f}")
        return "\n".join(lines)


@dataclass(frozen=True)
class MultiSessionReport:
    """Per-session scores plus system statistics for a multi-tenant run."""

    result: MultiSessionResult
    session_reports: tuple[ScenarioReport, ...]
    plan_fingerprint: str | None = None
    workload_fingerprint: str | None = None

    @property
    def mean_overall(self) -> float:
        reports = self.session_reports
        return ordered_sum(r.overall for r in reports) / len(reports)

    @cached_property
    def _reports_by_id(self) -> dict[int, ScenarioReport]:
        return {r.simulation.session_id: r for r in self.session_reports}

    def session(self, session_id: int) -> ScenarioReport:
        """The session's report — an id-indexed dict probe, not a scan."""
        try:
            return self._reports_by_id[session_id]
        except KeyError:
            raise KeyError(
                f"no session {session_id} in this report"
            ) from None

    def summary(self) -> str:
        """Multi-line report: system totals, then one line per session."""
        res = self.result
        scenarios = sorted(
            {s.scenario.name for s in res.sessions}
        )
        lines = [
            (
                f"{res.num_sessions} sessions of {', '.join(scenarios)} "
                f"on {res.system.describe()}"
            ),
            (
                f"  mean session score: {self.mean_overall:.3f}; "
                # Busy time is window-clipped at accounting time; min()
                # only guards hand-built results.
                f"mean engine utilization: "
                f"{min(1.0, res.mean_system_utilization()):.1%}"
            ),
            f"  total energy: {res.total_energy_mj():.1f} mJ",
        ]
        if res.cost_stats is not None and res.cost_stats.lookups:
            lines.append(
                f"  cost cache: {res.cost_stats.lookups} lookups, "
                f"{res.cost_stats.hit_rate:.1%} hits"
            )
        frecords = [
            s.faults for s in res.sessions if s.faults is not None
        ]
        if frecords:
            killed = sum(f.killed for f in frecords)
            recovered = sum(f.recovered for f in frecords)
            lost = sum(f.lost for f in frecords)
            latencies = [
                latency
                for f in frecords
                for latency in f.recovery_latencies_s
            ]
            line = (
                f"  faults[{frecords[0].profile}]: {killed} killed, "
                f"{recovered} recovered, {lost} lost to faults"
            )
            if latencies:
                mean_s = ordered_sum(latencies) / len(latencies)
                line += f", mean recovery {mean_s * 1e3:.2f} ms"
            lines.append(line)
        for report in self.session_reports:
            sim, score = report.simulation, report.score
            window = (
                f" active={sim.active_duration_s:.2f}s"
                if sim.active_duration_s is not None
                else ""
            )
            fault_note = ""
            if sim.faults is not None and sim.faults.killed:
                fault_note = (
                    f" faults={sim.faults.killed}k/"
                    f"{sim.faults.recovered}r/{sim.faults.lost}l"
                )
            lines.append(
                f"    session {sim.session_id}: "
                f"overall={score.overall:.3f} rt={score.rt:.3f} "
                f"qoe={score.qoe:.3f} frames={len(sim.requests)} "
                f"dropped={score.total_dropped} "
                f"missed={score.total_missed_deadlines} "
                f"energy={sim.total_energy_mj():.1f}mJ{window}"
                f"{fault_note}"
            )
        return "\n".join(lines)
