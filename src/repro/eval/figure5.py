"""Figure 5: score breakdowns for every accelerator and scenario.

Runs the full sweep — 13 accelerator styles x {4K, 8K} PEs x 7 usage
scenarios — and reports the four bars of each subplot (real-time, energy,
QoE and overall score) plus the cross-scenario average of subplot (h).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import RunSpec, execute
from repro.costmodel.analysis import ordered_sum
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
    base: RunSpec | None = None,
    acc_ids: tuple[str, ...] = ACCELERATOR_IDS,
    pe_budgets: dict[str, int] | None = None,
    scenarios: tuple[str, ...] = SCENARIO_ORDER,
) -> list[Figure5Row]:
    """Produce every Figure 5 bar, including the (h) averages.

    Each bar is one :func:`repro.api.execute` run of ``base`` with the
    bar's scenario, accelerator and PE budget set, as a
    :class:`~repro.api.Sweep` sets its grid fields.  ``base`` carries the
    rest (seed, duration, scheduler, frame loss, score preset) and must
    describe a single-scenario run.
    """
    base = base or RunSpec(scenario=SCENARIO_ORDER[0])
    if base.mode != "single":
        raise ValueError(
            f"Figure 5 plots single-scenario runs; the base spec "
            f"{base.describe()!r} is a {base.mode} run"
        )
    budgets = pe_budgets or PE_BUDGETS
    rows: list[Figure5Row] = []
    for budget_name, total_pes in budgets.items():
        for acc_id in acc_ids:
            per_scenario = []
            for scenario in scenarios:
                s = execute(base.replace(
                    scenario=scenario, accelerator=acc_id, pes=total_pes,
                )).score
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
                    rt=ordered_sum(r.rt for r in per_scenario) / n,
                    energy=ordered_sum(r.energy for r in per_scenario) / n,
                    qoe=ordered_sum(r.qoe for r in per_scenario) / n,
                    overall=ordered_sum(r.overall for r in per_scenario) / n,
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
