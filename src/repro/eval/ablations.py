"""Ablation studies over the reproduction's design choices.

Each function here isolates one of the knobs that shape the results:

* :func:`scheduler_ablation` — latency-greedy vs round-robin vs EDF
  (Section 3.5 makes the scheduler user-replaceable; this quantifies why).
* :func:`jitter_ablation` — scores with sensor jitter on vs off
  (Section 3.4 argues jitter is frequently disregarded but matters).
* :func:`rt_k_sensitivity` — how the deadline-sensitivity constant ``k``
  moves scenario scores (Figure 8's knob applied end to end).
* :func:`enmax_sensitivity` — how the ``Enmax`` energy budget reweights
  designs (Definition 11's bound).
* :func:`dvfs_ablation` — energy saved by running each model at the
  slowest DVFS point that still fits its deadline slack (appendix B.1's
  slack-into-energy argument).
* :func:`quantization_ablation` — accuracy-score impact of int8/int4
  weights on the light reference models, via the numpy engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import Harness, HarnessConfig, ScoreConfig
from repro.costmodel import CostTable, Dataflow
from repro.costmodel.dvfs import best_point_for_slack
from repro.hardware import build_accelerator
from repro.nn.quantize import quality_proxy
from repro.workload import UNIT_MODELS
from repro.workload.sensors import SENSORS
from repro.zoo import build_model

__all__ = [
    "AblationRow",
    "scheduler_ablation",
    "jitter_ablation",
    "rt_k_sensitivity",
    "enmax_sensitivity",
    "dvfs_ablation",
    "quantization_ablation",
]


@dataclass(frozen=True)
class AblationRow:
    """One (setting, metric) outcome."""

    setting: str
    scenario: str
    overall: float
    rt: float
    qoe: float
    detail: float = 0.0


def scheduler_ablation(
    scenario: str = "ar_gaming",
    acc_id: str = "J",
    total_pes: int = 8192,
) -> list[AblationRow]:
    """Score the same workload under each shipped scheduler."""
    rows = []
    for name in ("latency_greedy", "round_robin", "edf"):
        harness = Harness(config=HarnessConfig(scheduler=name))
        score = harness.run_scenario(
            scenario, build_accelerator(acc_id, total_pes)
        ).score
        rows.append(
            AblationRow(
                setting=name, scenario=scenario,
                overall=score.overall, rt=score.rt, qoe=score.qoe,
            )
        )
    return rows


def jitter_ablation(
    scenario: str = "social_interaction_a",
    acc_id: str = "A",
    total_pes: int = 4096,
    seeds: int = 10,
) -> list[AblationRow]:
    """Quantify the score variance induced by sensor jitter.

    On a scenario whose only randomness is jitter (the default Social
    Interaction A cascades ES->GE deterministically), the seed only
    perturbs frame arrival times — so the across-seed spread of the
    scores *is* the jitter effect the paper says is "frequently
    disregarded".  Returns two rows: the seed-averaged scores
    ("jitter_mean") and the max-min spread ("jitter_spread").
    """
    harness = Harness()
    system = build_accelerator(acc_id, total_pes)
    scores = [
        harness.run_scenario(scenario, system, seed=s).score
        for s in range(seeds)
    ]
    overall = [s.overall for s in scores]
    mean = sum(overall) / len(overall)
    spread = max(overall) - min(overall)
    return [
        AblationRow(
            setting="jitter_mean", scenario=scenario, overall=mean,
            rt=sum(s.rt for s in scores) / len(scores),
            qoe=sum(s.qoe for s in scores) / len(scores),
            detail=max(SENSORS["camera"].jitter_ms, 0.0),
        ),
        AblationRow(
            setting="jitter_spread", scenario=scenario, overall=spread,
            rt=max(s.rt for s in scores) - min(s.rt for s in scores),
            qoe=max(s.qoe for s in scores) - min(s.qoe for s in scores),
        ),
    ]


def rt_k_sensitivity(
    scenario: str = "ar_gaming",
    acc_id: str = "J",
    total_pes: int = 8192,
    ks: tuple[float, ...] = (1.0, 15.0, 50.0),
) -> list[AblationRow]:
    """Scenario scores under different deadline-sensitivity constants."""
    rows = []
    for k in ks:
        harness = Harness(config=HarnessConfig(score=ScoreConfig(rt_k=k)))
        score = harness.run_scenario(
            scenario, build_accelerator(acc_id, total_pes)
        ).score
        rows.append(
            AblationRow(
                setting=f"k={k:g}", scenario=scenario,
                overall=score.overall, rt=score.rt, qoe=score.qoe,
                detail=k,
            )
        )
    return rows


def enmax_sensitivity(
    scenario: str = "ar_assistant",
    acc_id: str = "C",
    total_pes: int = 4096,
    enmaxes: tuple[float, ...] = (500.0, 1500.0, 4500.0),
) -> list[AblationRow]:
    """Scenario scores under different per-inference energy budgets."""
    rows = []
    for enmax in enmaxes:
        harness = Harness(
            config=HarnessConfig(score=ScoreConfig(energy_max_mj=enmax)),
        )
        score = harness.run_scenario(
            scenario, build_accelerator(acc_id, total_pes)
        ).score
        rows.append(
            AblationRow(
                setting=f"Enmax={enmax:g}mJ", scenario=scenario,
                overall=score.overall, rt=score.rt, qoe=score.qoe,
                detail=enmax,
            )
        )
    return rows


def dvfs_ablation(
    total_pes: int = 4096,
    dataflow: Dataflow = Dataflow.WS,
) -> dict[str, dict[str, float]]:
    """Per-model energy savings from slack-aware DVFS.

    For each unit model at its most demanding shipped rate, picks the
    slowest operating point that still fits the deadline slack and
    reports nominal vs scaled energy.
    """
    costs = CostTable()
    # Most demanding rate each model is shipped at (Table 2).
    rates = {"HT": 45, "ES": 60, "GE": 60, "KD": 3, "SR": 3, "SS": 10,
             "OD": 10, "AS": 30, "DE": 30, "DR": 30, "PD": 30}
    out: dict[str, dict[str, float]] = {}
    for code in UNIT_MODELS:
        cost = costs.cost(code, dataflow, total_pes)
        slack = 1.0 / rates[code]
        point, scaled = best_point_for_slack(cost, slack)
        out[code] = {
            "slack_ms": slack * 1e3,
            "nominal_latency_ms": cost.latency_ms,
            "nominal_energy_mj": cost.energy_mj,
            "chosen_frequency": point.frequency_scale,
            "scaled_latency_ms": scaled.latency_ms,
            "scaled_energy_mj": scaled.energy_mj,
            "energy_saving": 1.0 - scaled.energy_mj / cost.energy_mj,
        }
    return out


def quantization_ablation(
    codes: tuple[str, ...] = ("KD", "AS", "GE"),
    bit_widths: tuple[int, ...] = (8, 4),
) -> dict[str, dict[int, dict[str, float]]]:
    """Accuracy-score impact of weight quantisation on light models.

    Uses the numpy reference engine; heavier models are excluded for
    runtime reasons (their behaviour is architecture-wise identical).
    """
    from repro.core import accuracy_score

    out: dict[str, dict[int, dict[str, float]]] = {}
    for code in codes:
        model = UNIT_MODELS[code]
        graph = build_model(code)
        out[code] = {}
        for bits in bit_widths:
            measured = quality_proxy(graph, model.quality, bits=bits)
            out[code][bits] = {
                "measured_quality": measured,
                "accuracy_score": accuracy_score(model.quality, measured),
                "meets_goal": float(model.quality.is_met(measured)),
            }
    return out
