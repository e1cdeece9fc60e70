"""Cached whole-model cost tables.

The runtime asks "what would model X cost on engine Y" thousands of times
per simulation; :class:`CostTable` memoises the answer per
(task code, dataflow, PE count) so a full Figure-5 sweep stays fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.workload import UNIT_MODELS

from .analysis import CostModel, ModelCost, memoized_model_cost
from .dataflow import Dataflow

__all__ = ["CostTable"]


@dataclass
class CostTable:
    """Memoised model costs across engines."""

    _cache: dict[tuple[str, Dataflow, int], ModelCost] = field(
        default_factory=dict
    )

    def cost(
        self, task_code: str, dataflow: Dataflow, num_pes: int
    ) -> ModelCost:
        """Cost of one inference of ``task_code`` on the given engine."""
        key = (task_code, dataflow, num_pes)
        if key not in self._cache:
            model = UNIT_MODELS.get(task_code)
            if model is None:
                raise KeyError(
                    f"unknown task code {task_code!r}; "
                    f"available: {sorted(UNIT_MODELS)}"
                )
            engine = CostModel(dataflow=dataflow, num_pes=num_pes)
            self._cache[key] = memoized_model_cost(engine, model.graph)
        return self._cache[key]

    def latency_s(
        self, task_code: str, dataflow: Dataflow, num_pes: int
    ) -> float:
        return self.cost(task_code, dataflow, num_pes).latency_s

    def energy_mj(
        self, task_code: str, dataflow: Dataflow, num_pes: int
    ) -> float:
        return self.cost(task_code, dataflow, num_pes).energy_mj
