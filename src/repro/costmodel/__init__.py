"""Analytical accelerator cost model (the MAESTRO substitute)."""

from .analysis import CostModel, LayerCost, ModelCost
from .cached import CostCacheStats, PriceTable, stored_cost
from .dataflow import DATAFLOW_SPECS, Dataflow, DataflowSpec
from .dvfs import DEFAULT_DVFS_POINTS, DvfsPoint, best_point_for_slack, scale_cost
from .energy import DEFAULT_ENERGY_MODEL, EnergyModel
from .model_cost import CostTable

__all__ = [
    "DEFAULT_DVFS_POINTS",
    "DvfsPoint",
    "best_point_for_slack",
    "scale_cost",
    "CostCacheStats",
    "CostModel",
    "CostTable",
    "DATAFLOW_SPECS",
    "DEFAULT_ENERGY_MODEL",
    "Dataflow",
    "DataflowSpec",
    "EnergyModel",
    "LayerCost",
    "ModelCost",
    "PriceTable",
    "stored_cost",
]
