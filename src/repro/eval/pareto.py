"""Pareto-frontier analysis over accelerator designs and QoE policies.

Section 3.7: "XRBench reveals all individual scores to users to facilitate
Pareto frontier analysis".  This module computes frontiers over arbitrary
(higher-is-better, lower-is-better) objective pairs — most usefully
(XRBench score, mean energy per inference) — across the Table 5 designs,
and, for the QoE control plane, (QoE, throughput, energy) across
admission policies.

:func:`pareto_frontier` is duck-typed: any point with a ``dominates``
method and a ``sort_key`` property participates, so run-database reports
reuse the same frontier logic over :class:`QoePoint` records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import RunSpec, execute
from repro.costmodel.analysis import ordered_sum
from repro.hardware import ACCELERATOR_IDS

__all__ = ["DesignPoint", "QoePoint", "evaluate_designs", "pareto_frontier"]


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated accelerator design."""

    acc_id: str
    total_pes: int
    xrbench_score: float
    mean_energy_mj: float
    mean_drop_rate: float

    @property
    def sort_key(self) -> float:
        """Frontier ordering: best (highest) score first."""
        return -self.xrbench_score

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance: at least as good everywhere, better somewhere.

        Score is higher-is-better; energy and drop rate lower-is-better.
        """
        at_least = (
            self.xrbench_score >= other.xrbench_score
            and self.mean_energy_mj <= other.mean_energy_mj
            and self.mean_drop_rate <= other.mean_drop_rate
        )
        strictly = (
            self.xrbench_score > other.xrbench_score
            or self.mean_energy_mj < other.mean_energy_mj
            or self.mean_drop_rate < other.mean_drop_rate
        )
        return at_least and strictly


@dataclass(frozen=True)
class QoePoint:
    """One evaluated run configuration in QoE/throughput/energy space.

    QoE and throughput are higher-is-better, energy lower-is-better —
    the triple the admission-control plane trades off: shedding raises
    per-survivor QoE but drops throughput; degrading holds throughput
    while spending quality.
    """

    label: str
    qoe: float
    throughput_rps: float
    energy_mj: float

    @property
    def sort_key(self) -> tuple[float, float]:
        """Frontier ordering: best QoE first, throughput breaks ties."""
        return (-self.qoe, -self.throughput_rps)

    def dominates(self, other: "QoePoint") -> bool:
        """At least as good on all three axes, strictly better on one."""
        at_least = (
            self.qoe >= other.qoe
            and self.throughput_rps >= other.throughput_rps
            and self.energy_mj <= other.energy_mj
        )
        strictly = (
            self.qoe > other.qoe
            or self.throughput_rps > other.throughput_rps
            or self.energy_mj < other.energy_mj
        )
        return at_least and strictly


def evaluate_designs(
    acc_ids: tuple[str, ...] = ACCELERATOR_IDS,
    total_pes: int = 4096,
) -> list[DesignPoint]:
    """Run the suite on every design and collect the objective values."""
    points = []
    for acc_id in acc_ids:
        suite = execute(RunSpec.for_suite(acc_id, pes=total_pes))
        energies: list[float] = []
        drops: list[float] = []
        for report in suite.scenario_reports:
            energies.extend(
                r.energy_mj for r in report.simulation.completed()
            )
            drops.append(report.simulation.frame_drop_rate())
        points.append(
            DesignPoint(
                acc_id=acc_id,
                total_pes=total_pes,
                xrbench_score=suite.xrbench_score,
                mean_energy_mj=ordered_sum(energies) / len(energies),
                mean_drop_rate=ordered_sum(drops) / len(drops),
            )
        )
    return points


def pareto_frontier(points: list) -> list:
    """The non-dominated subset, sorted by each point's ``sort_key``.

    Accepts any homogeneous point list exposing ``dominates`` and
    ``sort_key`` (:class:`DesignPoint`, :class:`QoePoint`, or
    third-party types).  Duplicate points never dominate each other
    (dominance requires strict improvement somewhere), so ties survive
    onto the frontier together.
    """
    if not points:
        raise ValueError("no design points given")
    frontier = [
        p for p in points
        if not any(q.dominates(p) for q in points if q is not p)
    ]
    return sorted(frontier, key=lambda p: p.sort_key)
