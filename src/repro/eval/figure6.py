"""Figure 6: AR-gaming execution timelines on accelerator J (4K vs 8K).

Reproduces the utilisation-is-the-wrong-metric argument of Section 4.2.2:
the 4K-PE system shows a denser timeline (higher utilisation) yet drops
far more frames and scores zero on real-time, while the 8K-PE system has
visible gaps but actually delivers the experience.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import RunSpec, execute
from repro.core import ScenarioReport

__all__ = ["Figure6Result", "run_figure6", "format_figure6"]


@dataclass(frozen=True)
class Figure6Result:
    """Timeline + headline stats for one PE budget."""

    pe_budget: str
    report: ScenarioReport

    @property
    def drop_rate(self) -> float:
        return self.report.simulation.frame_drop_rate()

    @property
    def utilization(self) -> float:
        return self.report.simulation.mean_utilization()


def run_figure6(base: RunSpec | None = None) -> dict[str, Figure6Result]:
    """Run AR gaming on the 4K and 8K variants of one accelerator.

    Each panel is one :func:`repro.api.execute` run of ``base`` with
    the scenario and PE budget set, as a :class:`~repro.api.Sweep` sets
    its grid fields.  ``base`` carries the rest (accelerator, seed,
    duration, scheduler, frame loss, score preset) and must describe a
    single-scenario run.
    """
    base = base or RunSpec(scenario="ar_gaming")
    if base.mode != "single":
        raise ValueError(
            f"Figure 6 plots single-scenario runs; the base spec "
            f"{base.describe()!r} is a {base.mode} run"
        )
    out: dict[str, Figure6Result] = {}
    for budget_name, total_pes in (("4K", 4096), ("8K", 8192)):
        report = execute(base.replace(scenario="ar_gaming", pes=total_pes))
        out[budget_name] = Figure6Result(pe_budget=budget_name, report=report)
    return out


def format_figure6(results: dict[str, Figure6Result], width: int = 90) -> str:
    """Timelines plus the score panels of Figure 6."""
    accelerators = ", ".join(dict.fromkeys(
        res.report.simulation.system.acc_id for res in results.values()
    ))
    lines = [
        f"Figure 6 — AR gaming execution timeline "
        f"(accelerator {accelerators})"
    ]
    for budget, res in results.items():
        s = res.report.score
        lines.append("")
        lines.append(
            f"({budget} PEs)  Realtime: {s.rt:.2f}  Energy: {s.energy:.2f}  "
            f"QoE: {s.qoe:.2f}  Overall: {s.overall:.2f}  "
            f"drops: {res.drop_rate:.1%}  "
            # Raw busy fraction; clamp only at display time.
            f"utilization: {min(1.0, res.utilization):.1%}"
        )
        lines.append(res.report.timeline(width=width, until_s=0.6))
    return "\n".join(lines)
