"""Dynamic voltage/frequency scaling (DVFS) on top of the cost model.

Appendix B.1 observes that latency slack can be traded for energy ("we can
adjust energy to meet the deadlines or optimize using the slack to the
deadline (e.g., DVFS)") — which is exactly why energy is a knob, not an
absolute minimisation target, and why the energy score is bounded rather
than open-ended.  This module makes that trade concrete:

* :class:`DvfsPoint` — an operating point: relative frequency ``f`` and the
  classical dynamic-power scaling ``E_dynamic ~ f^2`` (voltage tracks
  frequency), with leakage scaling ~1/f per unit work (slower runs leak
  longer).
* :func:`scale_cost` — re-derives a :class:`ModelCost` at an operating
  point, *consistently*: the per-layer breakdown and utilization are
  rescaled along with the totals, so layer sums always equal the model
  totals at every ladder point.
* :func:`best_point_for_slack` — picks the slowest (most energy-efficient)
  point that still fits a latency budget, i.e. the paper's
  slack-into-energy optimisation.

The live runtime counterpart is :mod:`repro.runtime.governor`, which
applies these trades per dispatch through the run's price table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .analysis import _RAMP_CYCLES, LayerCost, ModelCost, ordered_sum

__all__ = ["DvfsPoint", "DEFAULT_DVFS_POINTS", "scale_cost",
           "best_point_for_slack"]


@dataclass(frozen=True)
class DvfsPoint:
    """One DVFS operating point, relative to the nominal 1 GHz design."""

    name: str
    frequency_scale: float  # 1.0 = nominal

    def __post_init__(self) -> None:
        if not 0.1 <= self.frequency_scale <= 2.0:
            raise ValueError(
                f"frequency_scale must be in [0.1, 2.0], got "
                f"{self.frequency_scale}"
            )

    @property
    def latency_scale(self) -> float:
        """Latency multiplier: work takes 1/f as long."""
        return 1.0 / self.frequency_scale

    @property
    def dynamic_energy_scale(self) -> float:
        """Dynamic energy ~ V^2, and V tracks f in the DVFS ladder."""
        return self.frequency_scale ** 2

    @property
    def leakage_energy_scale(self) -> float:
        """Leakage accrues over the (longer) runtime."""
        return 1.0 / self.frequency_scale


#: A realistic mobile-SoC ladder around the nominal point.
DEFAULT_DVFS_POINTS: tuple[DvfsPoint, ...] = (
    DvfsPoint("eco", 0.5),
    DvfsPoint("low", 0.7),
    DvfsPoint("nominal", 1.0),
    DvfsPoint("boost", 1.3),
)


def _energy_factor(point: DvfsPoint, leakage_fraction: float) -> float:
    """The linear energy map applied at ``point``.

    Dynamic energy (share ``1 - leakage_fraction``) scales with V^2 ~ f^2;
    leakage (share ``leakage_fraction``) accrues over the 1/f runtime.
    Being a single scalar, it applies identically to every layer and to
    the model total, so scaled layer energies always sum to the scaled
    model energy.
    """
    return (
        (1.0 - leakage_fraction) * point.dynamic_energy_scale
        + leakage_fraction * point.leakage_energy_scale
    )


def _scale_layer(lc: LayerCost, point: DvfsPoint,
                 energy_factor: float) -> LayerCost:
    """One layer re-derived at ``point``.

    Every cycle takes ``1/f`` as long at frequency scale ``f``, so the
    layer's wall-clock latency — including its pipeline-fill ramp —
    scales by ``latency_scale``.  :attr:`LayerCost.latency_cycles` adds
    the (nominal-clock) ramp constant after the cycle max, so the cycle
    fields are rescaled such that ``latency_cycles`` lands exactly on
    ``latency_scale * (max + ramp)``; utilization is re-derived against
    the new cycle count (achieved MACs/cycle falls as cycles stretch).
    """
    s = point.latency_scale
    m = max(lc.compute_cycles, lc.onchip_cycles, lc.offchip_cycles)
    target_max = s * (m + _RAMP_CYCLES) - _RAMP_CYCLES
    if m > 0.0 and target_max > 0.0:
        k = target_max / m
        compute = lc.compute_cycles * k
        onchip = lc.onchip_cycles * k
        offchip = lc.offchip_cycles * k
    else:
        # Degenerate layers (no cycles at all, or a boost point whose
        # target latency falls below the bare ramp): pin the whole
        # target, clamped non-negative, on the off-chip path.
        compute = 0.0
        onchip = 0.0
        offchip = max(0.0, target_max)
    old_cycles = m + _RAMP_CYCLES
    new_cycles = max(compute, onchip, offchip) + _RAMP_CYCLES
    return LayerCost(
        lc.layer_name,
        compute,
        onchip,
        offchip,
        lc.energy_mj * energy_factor,
        min(1.0, lc.utilization * old_cycles / new_cycles),
    )


def scale_cost(cost: ModelCost, point: DvfsPoint,
               leakage_fraction: float = 0.1) -> ModelCost:
    """Re-derive a model cost at a DVFS operating point.

    ``leakage_fraction`` is the share of the nominal energy attributed to
    leakage (which scales with runtime rather than V^2).

    The returned cost is *internally consistent*: its per-layer
    breakdown is rescaled along with the totals, so the layer latency
    and energy sums equal ``latency_s``/``energy_mj`` at every operating
    point, and ``utilization`` reflects the achieved MACs/cycle at the
    scaled cycle count.  (Historically only the two totals were scaled,
    leaving ``layer_costs`` and ``utilization`` at their nominal values —
    any consumer summing layers at a non-nominal point got nominal
    numbers back.)
    """
    if not 0.0 <= leakage_fraction <= 1.0:
        raise ValueError(
            f"leakage_fraction must be in [0, 1], got {leakage_fraction}"
        )
    energy_factor = _energy_factor(point, leakage_fraction)
    layers = tuple(
        _scale_layer(lc, point, energy_factor) for lc in cost.layer_costs
    )
    if layers:
        latency_s = ordered_sum(lc.latency_s for lc in layers)
        energy_mj = ordered_sum(lc.energy_mj for lc in layers)
    else:
        # Hand-built costs without a layer breakdown: scale the totals.
        latency_s = cost.latency_s * point.latency_scale
        energy_mj = cost.energy_mj * energy_factor
    utilization = cost.utilization
    if latency_s > 0.0 and cost.latency_s > 0.0:
        # util = total_macs / (cycles * pes), and cycles ~ latency.
        utilization = min(1.0, cost.utilization * cost.latency_s / latency_s)
    return replace(
        cost,
        latency_s=latency_s,
        energy_mj=energy_mj,
        utilization=utilization,
        layer_costs=layers,
    )


def best_point_for_slack(
    cost: ModelCost,
    slack_s: float,
    points: tuple[DvfsPoint, ...] = DEFAULT_DVFS_POINTS,
    leakage_fraction: float = 0.1,
) -> tuple[DvfsPoint, ModelCost]:
    """The most energy-efficient operating point that fits the slack.

    Falls back to the fastest point when nothing fits (the inference will
    miss its deadline regardless; might as well minimise lateness).
    """
    if slack_s <= 0:
        fastest = max(points, key=lambda p: p.frequency_scale)
        return fastest, scale_cost(cost, fastest, leakage_fraction)
    candidates = [
        (p, scale_cost(cost, p, leakage_fraction)) for p in points
    ]
    feasible = [
        (p, c) for p, c in candidates if c.latency_s <= slack_s
    ]
    if not feasible:
        fastest = max(points, key=lambda p: p.frequency_scale)
        return fastest, scale_cost(cost, fastest, leakage_fraction)
    return min(feasible, key=lambda pc: pc[1].energy_mj)
