"""Figure 7: dynamic-cascading probability sweep.

Varies the probability that Gaze Estimation is triggered after Eye
Segmentation (25% .. 100%) in the VR-gaming scenario, on accelerators B
(low score) and J (high score) with 4K PEs, averaging over repeated
trials as the paper does (200 experiments).

A spec names its scenario, and the mutated scenario has no name, so each
trial runs as one :class:`~repro.runtime.SessionSpec` through
:func:`repro.api.run_group`, the runner behind :func:`repro.api.execute`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import RunSpec, run_group
from repro.core import get_score_preset
from repro.costmodel.analysis import ordered_sum
from repro.hardware import build_accelerator
from repro.runtime import SessionSpec
from repro.workload import get_scenario

__all__ = ["Figure7Row", "run_figure7", "format_figure7"]

DEFAULT_PROBABILITIES: tuple[float, ...] = (0.25, 0.50, 0.75, 1.00)


@dataclass(frozen=True)
class Figure7Row:
    """Mean scores for one (accelerator, cascading probability) cell."""

    acc_id: str
    probability: float
    rt: float
    energy: float
    qoe: float
    overall: float
    trials: int


def run_figure7(
    base: RunSpec | None = None,
    acc_ids: tuple[str, ...] = ("B", "J"),
    probabilities: tuple[float, ...] = DEFAULT_PROBABILITIES,
    trials: int = 200,
    total_pes: int = 4096,
) -> list[Figure7Row]:
    """Sweep the ES->GE trigger probability, averaging ``trials`` seeds.

    The figure sets each trial's scenario, accelerator, PE budget and
    seed, as a :class:`~repro.api.Sweep` sets its grid fields.  ``base``
    carries the rest (duration, scheduler, frame loss, score preset) and
    must describe a single-scenario run.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    base = base or RunSpec(scenario="vr_gaming")
    if base.mode != "single":
        raise ValueError(
            f"Figure 7 plots single-scenario runs; the base spec "
            f"{base.describe()!r} is a {base.mode} run"
        )
    score = get_score_preset(base.score_preset)
    vr_gaming = get_scenario("vr_gaming")
    rows: list[Figure7Row] = []
    for acc_id in acc_ids:
        system = build_accelerator(acc_id, total_pes)
        for p in probabilities:
            scenario = vr_gaming.with_dependency_probability("ES", "GE", p)
            scores = [
                run_group(
                    [SessionSpec(
                        session_id=0, scenario=scenario, seed=seed,
                        frame_loss_probability=base.frame_loss,
                    )],
                    system,
                    scheduler=base.scheduler,
                    duration_s=base.duration_s,
                    score=score,
                ).session_reports[0].score
                for seed in range(trials)
            ]
            rows.append(
                Figure7Row(
                    acc_id=acc_id,
                    probability=p,
                    rt=ordered_sum(s.rt for s in scores) / trials,
                    energy=ordered_sum(s.energy for s in scores) / trials,
                    qoe=ordered_sum(s.qoe for s in scores) / trials,
                    overall=ordered_sum(s.overall for s in scores) / trials,
                    trials=trials,
                )
            )
    return rows


def format_figure7(rows: list[Figure7Row]) -> str:
    lines = [
        "Figure 7 — VR gaming, ES->GE cascading probability sweep (4K PEs)",
        f"{'acc':<4s}{'prob':>6s}{'rt':>8s}{'energy':>8s}{'qoe':>8s}{'overall':>9s}",
    ]
    for r in rows:
        lines.append(
            f"{r.acc_id:<4s}{r.probability:>6.0%}{r.rt:>8.3f}"
            f"{r.energy:>8.3f}{r.qoe:>8.3f}{r.overall:>9.3f}"
        )
    return "\n".join(lines)
