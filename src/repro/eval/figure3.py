"""Figure 3: the Social Interaction A execution deep-dive (Section 3.6).

The paper walks through one scheduling window of the Social Interaction A
scenario: ES and GE chained at 60 FPS, HT and the multi-modal DR at
30 FPS skipping every other sensor frame, DR waiting for both camera and
lidar.  This driver reproduces that walk-through from an actual
simulation: the per-frame event table (input arrival, start, end,
deadline) for the first frames, plus the engine timeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import RunSpec, execute
from repro.core import ScenarioReport

__all__ = ["Figure3Row", "run_figure3", "format_figure3"]


@dataclass(frozen=True)
class Figure3Row:
    """One inference of the deep-dive window."""

    model_code: str
    model_frame: int
    request_ms: float
    start_ms: float
    end_ms: float
    deadline_ms: float
    engine: int

    @property
    def met_deadline(self) -> bool:
        return self.end_ms <= self.deadline_ms


def run_figure3(
    acc_id: str = "A",
    total_pes: int = 8192,
    frames_window_s: float = 3 / 60,
) -> tuple[list[Figure3Row], ScenarioReport]:
    """Simulate Social Interaction A and extract the first frames."""
    report = execute(RunSpec(
        scenario="social_interaction_a", accelerator=acc_id, pes=total_pes,
    ))
    rows = [
        Figure3Row(
            model_code=r.model_code,
            model_frame=r.model_frame,
            request_ms=r.request_time_s * 1e3,
            start_ms=r.start_time_s * 1e3,
            end_ms=r.end_time_s * 1e3,
            deadline_ms=r.deadline_s * 1e3,
            engine=r.accelerator_id,
        )
        for r in report.simulation.completed()
        if r.request_time_s < frames_window_s
    ]
    rows.sort(key=lambda r: r.start_ms)
    return rows, report


def format_figure3(rows: list[Figure3Row], report: ScenarioReport) -> str:
    lines = [
        "Figure 3 — Social Interaction A deep dive (first frames)",
        f"{'model':<6s}{'frame':>6s}{'input':>9s}{'start':>9s}"
        f"{'end':>9s}{'deadline':>10s}{'engine':>7s}  met?",
    ]
    for r in rows:
        lines.append(
            f"{r.model_code:<6s}{r.model_frame:>6d}{r.request_ms:>8.2f}m"
            f"{r.start_ms:>8.2f}m{r.end_ms:>8.2f}m{r.deadline_ms:>9.2f}m"
            f"{r.engine:>7d}  {'yes' if r.met_deadline else 'LATE'}"
        )
    lines.append("")
    lines.append(report.timeline(width=90, until_s=0.1))
    return "\n".join(lines)
