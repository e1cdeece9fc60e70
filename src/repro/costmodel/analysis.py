"""Per-layer analytical cost analysis (the MAESTRO substitute).

For each layer the model computes:

* **compute cycles** — MACs divided by the effective MAC rate.  The
  effective rate is the PE count clipped by the layer's usable
  parallelism under the chosen dataflow, derated by the dataflow's
  mapping efficiency and by tile-quantisation losses (a layer whose
  parallelism is 1.5x the array runs two passes at 75% occupancy).
* **memory cycles** — DRAM traffic over the off-chip bandwidth plus
  scratchpad streaming over the on-chip (NoC) bandwidth.  Traffic uses a
  simple stationary-tensor tiling model: the dataflow's stationary
  operand is fetched once; if it does not fit in its scratchpad share,
  the streaming operands are re-fetched once per stationary tile.
* **energy** — MAC energy + scratchpad accesses (scaled by the
  dataflow's operand reuse) + DRAM traffic + leakage over the layer's
  latency.

Latency per layer is ``max(compute, onchip, offchip)`` — the classical
double-buffered overlap assumption — plus a pipeline-fill ramp.  Layers
execute back to back; memory-only layers (pooling, upsample, concat)
contribute their streaming time.

A cold analysis runs in two steps.  Each graph builds its
dataflow-independent layer table once
(:attr:`~repro.nn.ModelGraph.layer_table`: conv dims, MACs and tensor
bytes per layer), and :meth:`CostModel.model_cost` prices an engine in
one pass over that table, with the engine's constants read once.
:class:`~repro.costmodel.dataflow.DataflowSpec` stays the one definition
of the dataflow math.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.config import (
    CLOCK_HZ,
    OFFCHIP_BW_BYTES_PER_CYCLE,
    ONCHIP_BW_BYTES_PER_CYCLE,
    ONCHIP_MEMORY_BYTES,
)
from repro.nn import LayerSpec, ModelGraph
from repro.nn.graph import LayerRow

from .dataflow import DATAFLOW_SPECS, Dataflow, DataflowSpec
from .energy import DEFAULT_ENERGY_MODEL, EnergyModel

__all__ = [
    "LayerCost", "ModelCost", "CostModel", "memoized_model_cost",
    "ordered_sum",
]

#: Cycles to fill/drain the PE array pipeline per layer.
_RAMP_CYCLES = 512.0


def ordered_sum(values: Iterable[float]) -> float:
    """Add ``values`` left to right, starting from ``0``.

    This is what the built-in ``sum()`` computes on CPython 3.11 and
    earlier.  CPython 3.12 made ``sum()`` of floats compensated, which
    can round the last bit differently, and the schedulers and DVFS
    governors compare the prices these reductions produce: reducing
    through this loop gives every interpreter the same prices.
    """
    total: float = 0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class LayerCost:
    """Cost breakdown of one layer on one accelerator configuration."""

    layer_name: str
    compute_cycles: float
    onchip_cycles: float
    offchip_cycles: float
    energy_mj: float
    utilization: float  # achieved MACs/cycle over peak

    @property
    def latency_cycles(self) -> float:
        return (
            max(self.compute_cycles, self.onchip_cycles, self.offchip_cycles)
            + _RAMP_CYCLES
        )

    @property
    def latency_s(self) -> float:
        return self.latency_cycles / CLOCK_HZ


@dataclass(frozen=True)
class ModelCost:
    """Aggregate cost of a whole model inference."""

    model_name: str
    dataflow: Dataflow
    num_pes: int
    latency_s: float
    energy_mj: float
    utilization: float
    layer_costs: tuple[LayerCost, ...]

    @property
    def latency_ms(self) -> float:
        return self.latency_s * 1e3


@dataclass(frozen=True)
class CostModel:
    """Analytical latency/energy model for one (dataflow, PE count) engine.

    Attributes:
        dataflow: the engine's dataflow style.
        num_pes: number of processing elements.
        onchip_bw: scratchpad/NoC bandwidth in bytes per cycle.
        offchip_bw: DRAM bandwidth in bytes per cycle.
        buffer_bytes: on-chip scratchpad capacity.
        energy_model: energy coefficients.
    """

    dataflow: Dataflow
    num_pes: int
    onchip_bw: float = ONCHIP_BW_BYTES_PER_CYCLE
    offchip_bw: float = OFFCHIP_BW_BYTES_PER_CYCLE
    buffer_bytes: int = ONCHIP_MEMORY_BYTES
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL

    def __post_init__(self) -> None:
        if self.num_pes < 1:
            raise ValueError(f"num_pes must be >= 1, got {self.num_pes}")
        if self.onchip_bw <= 0 or self.offchip_bw <= 0:
            raise ValueError("bandwidths must be > 0")
        if self.buffer_bytes <= 0:
            raise ValueError("buffer size must be > 0")

    @property
    def spec(self) -> DataflowSpec:
        return DATAFLOW_SPECS[self.dataflow]

    # -- per-layer analysis -------------------------------------------------

    def layer_cost(self, layer: LayerSpec) -> LayerCost:
        """Analyse one layer."""
        return self._layer_costs((LayerRow.of(layer),))[0]

    def _layer_costs(self, rows: Iterable[LayerRow]) -> tuple[LayerCost, ...]:
        """Analyse ``rows`` in one pass, with the engine's constants hoisted."""
        spec = self.spec
        dataflow = self.dataflow
        num_pes = self.num_pes
        onchip_bw = self.onchip_bw
        offchip_bw = self.offchip_bw
        share = self.buffer_bytes / 2.0
        mapping_efficiency = spec.mapping_efficiency
        buf_reads_per_mac = spec.buf_reads_per_mac
        em = self.energy_model
        costs: list[LayerCost] = []
        for name, layer, dims, macs, w, i, o in rows:
            if dims is None:
                # No MACs: stream input in, output out.
                dram_bytes = i + o
                offchip_cycles = dram_bytes / offchip_bw
                onchip_cycles = dram_bytes / onchip_bw
                latency_cycles = (
                    max(onchip_cycles, offchip_cycles) + _RAMP_CYCLES
                )
                energy = (
                    em.buffer_mj(dram_bytes)
                    + em.dram_mj(dram_bytes)
                    + em.leakage_mj(num_pes, latency_cycles / CLOCK_HZ)
                )
                costs.append(LayerCost(
                    name, 0.0, onchip_cycles, offchip_cycles, energy, 0.0
                ))
                continue

            # Off-chip traffic under the stationary-tensor tiling model.
            if dataflow is Dataflow.WS:
                stationary, streaming = w, i + o
            elif dataflow is Dataflow.OS:
                stationary, streaming = o, i + w
            else:  # RS keeps rows of everything; the largest is stationary.
                stationary = max(w, i, o)
                streaming = w + i + o - stationary
            dram_bytes = stationary + streaming * max(1.0, stationary / share)
            offchip_cycles = dram_bytes / offchip_bw

            # Achieved MAC rate.  Tile quantisation: past the array size
            # the last pass runs partially occupied.
            parallelism = spec.usable_parallelism(layer, dims)
            occupied = parallelism
            if parallelism > num_pes:
                occupied = parallelism / -(-parallelism // num_pes)
            compute_cycles = macs / max(1.0, occupied * mapping_efficiency)

            # NoC streaming: tensors cross the on-chip network once per
            # tile pass (multicast distributes them across PEs; per-MAC
            # operand reads come from PE-local register files and are
            # charged to the energy model, not to bandwidth).
            onchip_cycles = dram_bytes / onchip_bw

            latency_cycles = (
                max(compute_cycles, onchip_cycles, offchip_cycles)
                + _RAMP_CYCLES
            )
            reuse_i, reuse_w, reuse_o = spec.operand_reuse(layer, dims)
            buffer_accesses = (
                macs / reuse_i + macs / reuse_w + macs / reuse_o
            ) * buf_reads_per_mac
            energy = (
                em.compute_mj(macs)
                + em.buffer_mj(buffer_accesses)
                + em.dram_mj(dram_bytes)
                + em.leakage_mj(num_pes, latency_cycles / CLOCK_HZ)
            )
            costs.append(LayerCost(
                name,
                compute_cycles,
                onchip_cycles,
                offchip_cycles,
                energy,
                min(1.0, macs / (latency_cycles * num_pes)),
            ))
        return tuple(costs)

    # -- whole-model analysis -------------------------------------------------

    def model_cost(self, graph: ModelGraph) -> ModelCost:
        """Analyse a whole model graph: one pass over its layer table."""
        costs = self._layer_costs(graph.layer_table)
        total_cycles = ordered_sum(c.latency_cycles for c in costs)
        total_macs = float(graph.total_macs)
        return ModelCost(
            model_name=graph.name,
            dataflow=self.dataflow,
            num_pes=self.num_pes,
            latency_s=total_cycles / CLOCK_HZ,
            energy_mj=ordered_sum(c.energy_mj for c in costs),
            utilization=(
                total_macs / (total_cycles * self.num_pes)
                if total_cycles > 0
                else 0.0
            ),
            layer_costs=costs,
        )


#: Process-wide memo over the *pure* analytical model cost.  CostModel
#: and ModelGraph are both frozen and hashable, and the analysis is a
#: deterministic function of the pair, so the answer — an immutable
#: ModelCost — can be shared across every cost table in the process.
#: Its DVFS-scaled counterparts live beside it in the same way:
#: :func:`repro.costmodel.dvfs.memoized_scale_cost` keys on the identity
#: of the nominal ModelCost this memo hands out.
_MODEL_COST_MEMO: dict[tuple[CostModel, ModelGraph], ModelCost] = {}


def memoized_model_cost(engine: CostModel, graph: ModelGraph) -> ModelCost:
    """``engine.model_cost(graph)`` answered from the process-wide memo.

    Cost *tables* cache per instance; that still re-pays the per-engine
    pass for every fresh table (each benchmark repeat, each session
    group) on the same handful of graphs.  This memo hoists the pure
    computation to process scope.  Deliberately NOT used by
    :class:`~repro.costmodel.UncachedCostTable`, whose whole point is
    re-running the per-engine pass per query.
    """
    key = (engine, graph)
    cost = _MODEL_COST_MEMO.get(key)
    if cost is None:
        cost = _MODEL_COST_MEMO[key] = engine.model_cost(graph)
    return cost
