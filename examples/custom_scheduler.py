"""Plugging a custom scheduler into the benchmark runtime.

XRBench treats the scheduler as user-replaceable (the yellow boxes of
Figure 2) and explicitly encourages software-stack optimisation.  This
example implements an *affinity* scheduler — each model is pinned to the
engine that runs it fastest, and only overflows elsewhere when its home
engine is busy and the request is about to miss its deadline — and races
it against the built-in schedulers on the saturated AR-gaming workload.

A scheduler is any object with ``select(now_s, waiting, idle_engines,
system, costs)``: ``waiting`` holds the waiting work items in dispatch
order (oldest data first) and ``idle_engines`` the idle engines in index
order.  It returns one item of ``waiting`` and one engine of
``idle_engines``, or ``None`` to leave the engines idle.

Run:  python examples/custom_scheduler.py
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro import Harness, build_accelerator
from repro.core import score_simulation
from repro.costmodel import CostTable
from repro.hardware import AcceleratorSystem
from repro.runtime import (
    ExecutionEngine,
    MultiScenarioSimulator,
    SessionSpec,
    WorkItem,
    make_scheduler,
)
from repro.workload import get_scenario


@dataclass
class AffinityScheduler:
    """Pin each model to its fastest engine; spill only under pressure."""

    spill_margin_s: float = 0.004
    _home: dict[str, int] = field(default_factory=dict)

    def _home_engine(
        self, code: str, system: AcceleratorSystem, costs: CostTable
    ) -> int:
        if code not in self._home:
            self._home[code] = min(
                range(system.num_subs),
                key=lambda i: system.model_cost(costs, code, i).latency_s,
            )
        return self._home[code]

    def select(
        self,
        now_s: float,
        waiting: Sequence[WorkItem],
        idle_engines: Sequence[ExecutionEngine],
        system: AcceleratorSystem,
        costs: CostTable,
    ) -> tuple[WorkItem, ExecutionEngine] | None:
        if not waiting or not idle_engines:
            return None
        idle = {engine.index: engine for engine in idle_engines}
        for item in waiting:
            request = item.request
            home = self._home_engine(request.model_code, system, costs)
            if home in idle:
                return item, idle[home]
            # Home engine busy: spill to the fastest idle engine only if
            # waiting longer would likely blow the deadline.
            slack_left = request.deadline_s - now_s
            if slack_left < self.spill_margin_s:
                best = min(
                    idle_engines,
                    key=lambda e: system.model_cost(
                        costs, request.model_code, e.index
                    ).latency_s,
                )
                return item, best
        return None


def run_with(scheduler, label: str, costs: CostTable) -> None:
    # A single-scenario run is a one-session group.
    sim = MultiScenarioSimulator(
        sessions=[SessionSpec(0, get_scenario("ar_gaming"))],
        system=build_accelerator("J", 8192),
        scheduler=scheduler,
        duration_s=1.0,
        costs=costs,
    )
    result = sim.run().sessions[0]
    score = score_simulation(result)
    print(
        f"{label:<16s} overall={score.overall:.3f} rt={score.rt:.3f} "
        f"qoe={score.qoe:.3f} drops={result.frame_drop_rate():.1%}"
    )


def main() -> None:
    costs = Harness().costs
    print("AR gaming on accelerator J @ 8K PEs, by scheduler:")
    run_with(make_scheduler("latency_greedy"), "latency-greedy", costs)
    run_with(make_scheduler("round_robin"), "round-robin", costs)
    run_with(make_scheduler("edf"), "edf", costs)
    run_with(AffinityScheduler(), "affinity (ours)", costs)


if __name__ == "__main__":
    main()
