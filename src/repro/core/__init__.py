"""XRBench core: scoring metrics, aggregation, reports and export."""

from .aggregate import (
    InferenceScore,
    ModelScore,
    ScenarioScore,
    benchmark_score,
    score_sessions,
    score_simulation,
)
from .config import ScoreConfig, get_score_preset, register_score_preset
from .export import benchmark_to_dict, scenario_to_dict, submission, to_csv
from .report import BenchmarkReport, MultiSessionReport, ScenarioReport
from .scores import (
    accuracy_score,
    energy_score,
    inference_score,
    qoe_score,
    realtime_score,
)

__all__ = [
    "benchmark_to_dict",
    "scenario_to_dict",
    "submission",
    "to_csv",
    "BenchmarkReport",
    "InferenceScore",
    "ModelScore",
    "MultiSessionReport",
    "ScenarioReport",
    "ScenarioScore",
    "ScoreConfig",
    "accuracy_score",
    "benchmark_score",
    "energy_score",
    "get_score_preset",
    "inference_score",
    "qoe_score",
    "realtime_score",
    "register_score_preset",
    "score_sessions",
    "score_simulation",
]
