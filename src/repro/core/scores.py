"""Unit score functions (Box 2 / Definitions 10-13).

All four unit scores are bounded to [0, 1] so they compose by
multiplication and decompose cleanly for Pareto analysis:

* **Real-time score** — a shifted sigmoid over the inference latency
  relative to its slack: ``1 / (1 + exp(k * (Linf - Tsl)))``.  ``k``
  controls deadline sensitivity (Figure 8); the default k=15 is applied
  with latencies in *milliseconds*, which yields the near-binary
  met/missed behaviour the paper's reported breakdowns show (an
  inference 1 ms past its deadline scores ~3e-7, one 1 ms inside it
  ~0.9999997).  Figure 8 itself plots the function with second-scale
  deadlines; :func:`realtime_score` is unit-agnostic as long as latency,
  slack and ``k`` agree.
* **Energy score** — ``(Enmax - En) / Enmax`` clipped to [0, 1]
  (Definition 11, ``Enmax`` = 1500 mJ by default).
* **Accuracy score** — the ratio of measured to target model quality,
  oriented so higher is better and capped at 1.  (Box 2 prints the cap
  as ``max(1, .)``, an obvious typo for ``min``.)
* **QoE score** — the fraction of streamed frames actually processed
  (Definition 13), defined per model over a whole scenario run.
"""

from __future__ import annotations

import math

from repro.workload import MetricType, QualityGoal

from .config import ACC_EPSILON, ENERGY_MAX_MJ, RT_SCORE_K

__all__ = [
    "realtime_score",
    "energy_score",
    "accuracy_score",
    "qoe_score",
    "inference_score",
]


def realtime_score(
    latency_ms: float, slack_ms: float, k: float = RT_SCORE_K
) -> float:
    """Definition 10: sigmoid deadline score.

    Args:
        latency_ms: end-to-end inference latency ``Linf``.
        slack_ms: time window ``Tsl`` between data availability and the
            deadline.  May be negative if the data arrived after the
            deadline (the score is then ~0 for any positive latency).
        k: deadline sensitivity, ``>= 0``; 0 makes the score a flat 0.5.
    """
    if latency_ms < 0:
        raise ValueError(f"latency must be >= 0, got {latency_ms}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    exponent = k * (latency_ms - slack_ms)
    # Guard the exp; the sigmoid saturates far before overflow anyway.
    if exponent > 500.0:
        return 0.0
    if exponent < -500.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(exponent))


def energy_score(
    energy_mj: float, energy_max_mj: float = ENERGY_MAX_MJ
) -> float:
    """Definition 11: linear energy headroom against ``Enmax``."""
    if energy_mj < 0:
        raise ValueError(f"energy must be >= 0, got {energy_mj}")
    if energy_max_mj <= 0:
        raise ValueError(f"energy_max must be > 0, got {energy_max_mj}")
    return min(1.0, max(0.0, (energy_max_mj - energy_mj) / energy_max_mj))


def accuracy_score(
    goal: QualityGoal, measured: float, epsilon: float = ACC_EPSILON
) -> float:
    """Definition 12: measured-vs-target quality ratio, capped at 1."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if measured < 0:
        raise ValueError(f"measured quality must be >= 0, got {measured}")
    if goal.metric_type is MetricType.HIGHER_IS_BETTER:
        raw = measured / goal.target
    else:
        raw = goal.target / (measured + epsilon)
    return min(1.0, raw)


def qoe_score(frames_executed: int, frames_streamed: int) -> float:
    """Definition 13: processed fraction of the model's input frames."""
    if frames_executed < 0 or frames_streamed < 0:
        raise ValueError("frame counts must be >= 0")
    if frames_executed > frames_streamed:
        raise ValueError(
            f"executed {frames_executed} > streamed {frames_streamed}"
        )
    if frames_streamed == 0:
        # No work was ever offered; the experience is undegraded.
        return 1.0
    return frames_executed / frames_streamed


def inference_score(
    rt: float, energy: float, accuracy: float
) -> float:
    """Definition 14: the per-inference product of the three unit scores."""
    if not (
        0.0 <= rt <= 1.0 and 0.0 <= energy <= 1.0 and 0.0 <= accuracy <= 1.0
    ):
        # Only to name the bad input: the check above decides.
        for name, v in (
            ("rt", rt), ("energy", energy), ("accuracy", accuracy)
        ):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} score must be in [0, 1], got {v}")
    return rt * energy * accuracy
