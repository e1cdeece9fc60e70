"""Figure 5: score breakdowns for every accelerator and scenario.

Runs the full sweep — 13 accelerator styles x {4K, 8K} PEs x 7 usage
scenarios — and reports the four bars of each subplot (real-time, energy,
QoE and overall score) plus the cross-scenario average of subplot (h).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import RunSpec, execute
from repro.core import Harness
from repro.hardware import ACCELERATOR_IDS, PE_BUDGETS
from repro.workload import SCENARIO_ORDER

__all__ = ["Figure5Row", "run_figure5", "format_figure5"]


@dataclass(frozen=True)
class Figure5Row:
    """One bar group: (scenario, accelerator, PE budget) -> scores."""

    scenario: str
    acc_id: str
    pe_budget: str
    rt: float
    energy: float
    qoe: float
    overall: float


def run_figure5(
    harness: Harness | None = None,
    acc_ids: tuple[str, ...] = ACCELERATOR_IDS,
    pe_budgets: dict[str, int] | None = None,
    scenarios: tuple[str, ...] = SCENARIO_ORDER,
) -> list[Figure5Row]:
    """Produce every Figure 5 bar, including the (h) averages.

    The whole sweep is expressed as :class:`RunSpec` grid points run
    through the :func:`repro.api.execute` funnel; the ``harness``
    argument survives as a carrier for the run configuration.
    """
    harness = harness or Harness()
    config = harness.config
    budgets = pe_budgets or PE_BUDGETS
    rows: list[Figure5Row] = []
    for budget_name, total_pes in budgets.items():
        for acc_id in acc_ids:
            per_scenario = []
            for scenario in scenarios:
                spec = RunSpec(
                    scenario=scenario,
                    accelerator=acc_id,
                    pes=total_pes,
                    scheduler=config.scheduler,
                    duration_s=config.duration_s,
                    seed=config.seed,
                    frame_loss=config.frame_loss_probability,
                )
                report = execute(spec, score=config.score)
                s = report.score
                row = Figure5Row(
                    scenario=scenario,
                    acc_id=acc_id,
                    pe_budget=budget_name,
                    rt=s.rt,
                    energy=s.energy,
                    qoe=s.qoe,
                    overall=s.overall,
                )
                rows.append(row)
                per_scenario.append(row)
            n = len(per_scenario)
            rows.append(
                Figure5Row(
                    scenario="average",
                    acc_id=acc_id,
                    pe_budget=budget_name,
                    rt=sum(r.rt for r in per_scenario) / n,
                    energy=sum(r.energy for r in per_scenario) / n,
                    qoe=sum(r.qoe for r in per_scenario) / n,
                    overall=sum(r.overall for r in per_scenario) / n,
                )
            )
    return rows


def format_figure5(rows: list[Figure5Row], metric: str = "overall") -> str:
    """Render one metric as the Figure 5 grid (scenarios x accelerators)."""
    if metric not in ("rt", "energy", "qoe", "overall"):
        raise ValueError(f"unknown metric {metric!r}")
    budgets = sorted({r.pe_budget for r in rows})
    accs = sorted({r.acc_id for r in rows})
    scenarios = list(dict.fromkeys(r.scenario for r in rows))
    lines = [f"Figure 5 — {metric} score"]
    index = {(r.scenario, r.acc_id, r.pe_budget): r for r in rows}
    for budget in budgets:
        lines.append(f"[{budget} PEs]")
        lines.append(f"{'scenario':<22s}" + "".join(f"{a:>6s}" for a in accs))
        for scenario in scenarios:
            cells = []
            for acc in accs:
                row = index.get((scenario, acc, budget))
                cells.append(
                    f"{getattr(row, metric):6.2f}" if row else "     -"
                )
            lines.append(f"{scenario:<22s}" + "".join(cells))
    return "\n".join(lines)


def best_accelerator(
    rows: list[Figure5Row], scenario: str, pe_budget: str
) -> str:
    """The accelerator id with the highest overall score for a scenario."""
    candidates = [
        r for r in rows if r.scenario == scenario and r.pe_budget == pe_budget
    ]
    if not candidates:
        raise KeyError(f"no rows for {scenario!r} @ {pe_budget}")
    return max(candidates, key=lambda r: r.overall).acc_id
