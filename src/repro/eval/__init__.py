"""Evaluation drivers: regenerate every table and figure of the paper."""

from .ablations import (
    AblationRow,
    dvfs_ablation,
    enmax_sensitivity,
    jitter_ablation,
    quantization_ablation,
    rt_k_sensitivity,
    scheduler_ablation,
)
from .observations import Observation, format_observations, verify_observations
from .pareto import DesignPoint, QoePoint, evaluate_designs, pareto_frontier
from .rundb import (
    DEFAULT_DB_PATH,
    ReportGenerator,
    RunDatabase,
    RunRecord,
    summarize_report,
)
from .stats import ScoreStatistics, SeedSweep, seed_sweep

from .figure3 import Figure3Row, format_figure3, run_figure3
from .figure5 import Figure5Row, best_accelerator, format_figure5, run_figure5
from .figure6 import Figure6Result, format_figure6, run_figure6
from .figure7 import Figure7Row, format_figure7, run_figure7
from .figure8 import Figure8Series, format_figure8, run_figure8
from .tables import table1, table2, table3, table5, table6, table7

__all__ = [
    "AblationRow",
    "DEFAULT_DB_PATH",
    "DesignPoint",
    "QoePoint",
    "ReportGenerator",
    "RunDatabase",
    "RunRecord",
    "summarize_report",
    "dvfs_ablation",
    "enmax_sensitivity",
    "evaluate_designs",
    "jitter_ablation",
    "pareto_frontier",
    "quantization_ablation",
    "rt_k_sensitivity",
    "scheduler_ablation",
    "ScoreStatistics",
    "SeedSweep",
    "seed_sweep",
    "Observation",
    "format_observations",
    "verify_observations",
    "Figure3Row",
    "Figure5Row",
    "format_figure3",
    "run_figure3",
    "Figure6Result",
    "Figure7Row",
    "Figure8Series",
    "best_accelerator",
    "format_figure5",
    "format_figure6",
    "format_figure7",
    "format_figure8",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_figure8",
    "table1",
    "table2",
    "table3",
    "table5",
    "table6",
    "table7",
]
