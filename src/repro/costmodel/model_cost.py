"""Whole-model costs by task code, for callers outside a run.

:class:`CostTable` answers "what would model X cost on engine Y" by task
code, from the process-wide store
(:func:`~repro.costmodel.cached.stored_cost`).  A run prices through its
own :class:`~repro.costmodel.PriceTable` instead; this view serves
reports, ablations and pre-run estimates.
"""

from __future__ import annotations

from repro.workload import UNIT_MODELS

from .analysis import ModelCost
from .cached import stored_cost
from .dataflow import Dataflow

__all__ = ["CostTable"]


class CostTable:
    """Nominal model costs keyed by task code: a stateless store view."""

    def cost(
        self, task_code: str, dataflow: Dataflow, num_pes: int
    ) -> ModelCost:
        """Cost of one inference of ``task_code`` on the given engine."""
        model = UNIT_MODELS.get(task_code)
        if model is None:
            raise KeyError(
                f"unknown task code {task_code!r}; "
                f"available: {sorted(UNIT_MODELS)}"
            )
        return stored_cost(dataflow, num_pes, model.graph)

    def latency_s(
        self, task_code: str, dataflow: Dataflow, num_pes: int
    ) -> float:
        return self.cost(task_code, dataflow, num_pes).latency_s

    def energy_mj(
        self, task_code: str, dataflow: Dataflow, num_pes: int
    ) -> float:
        return self.cost(task_code, dataflow, num_pes).energy_mj
