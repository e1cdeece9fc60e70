"""Accelerator dataflows (Section 4.1).

Three dataflow styles, mirroring the paper's accelerator taxonomy:

* **WS** (weight stationary, NVDLA-inspired): parallelises output and
  input channels with input columns.  Excellent on channel-heavy
  convolutions and GEMM/FC layers; poor on depthwise convolutions, whose
  channel extents give it almost nothing to parallelise.
* **OS** (output stationary): a hand-optimised dataflow parallelising
  output rows and columns with a 16-way adder tree reducing input-channel
  partial sums.  Excellent on large spatial maps (segmentation, depth) and
  depthwise convolutions; weak on FC/attention projections whose output
  spatial extent is small.
* **RS** (row stationary, Eyeriss-inspired): parallelises output channels,
  output rows and kernel rows — the balanced middle ground, with the best
  operand reuse (lowest energy) but slightly lower peak mapping
  efficiency.

Each dataflow exposes (a) the *usable parallelism* of a layer, which
bounds spatial PE utilisation, and (b) per-operand on-chip reuse factors,
which drive the energy model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.nn import ConvDims, LayerSpec, OpType

__all__ = ["Dataflow", "DataflowSpec", "DATAFLOW_SPECS"]

#: OS reduces input channels through a 16-way adder tree.
OS_ADDER_TREE_WAYS = 16


class Dataflow(enum.Enum):
    """The three dataflow styles of Table 5."""

    WS = "WS"
    OS = "OS"
    RS = "RS"


@dataclass(frozen=True)
class DataflowSpec:
    """Static properties of a dataflow style.

    Attributes:
        dataflow: which style this describes.
        mapping_efficiency: fraction of the ideal throughput achieved even
            when parallelism is abundant (drain/fill and control overhead).
        buf_reads_per_mac: average scratchpad reads per MAC after the
            dataflow's local (register-level) reuse is accounted for —
            lower is more energy-efficient.
    """

    dataflow: Dataflow
    mapping_efficiency: float
    buf_reads_per_mac: float

    def usable_parallelism(self, layer: LayerSpec, dims: ConvDims) -> float:
        """How many MAC lanes the layer can keep busy on this dataflow.

        This is the crux of the dataflow differences: a 4 K-PE array only
        helps if the layer has that much parallelism along the dims the
        dataflow spreads across the array.
        """
        if self.dataflow is Dataflow.WS:
            # Output x input channels x input columns.  Depthwise conv
            # degenerates: only the channel (group) extent is available,
            # and NVDLA-style engines exploit little of it.
            if layer.op is OpType.DWCONV2D:
                return max(1.0, dims.groups / 8.0)
            return float(dims.k * dims.c * min(dims.x, 4) * dims.groups)
        if self.dataflow is Dataflow.OS:
            # Output rows x columns, with the adder tree reducing input
            # channels.  Depthwise maps well spatially but the adder tree
            # idles (one input channel per output).
            tree = min(dims.c, OS_ADDER_TREE_WAYS)
            return float(dims.y * dims.x * tree)
        if self.dataflow is Dataflow.RS:
            # Output channels x output rows x kernel rows.
            return float(dims.k * dims.y * dims.r * dims.groups)
        raise AssertionError(f"unhandled dataflow {self.dataflow}")

    def operand_reuse(
        self, layer: LayerSpec, dims: ConvDims
    ) -> tuple[float, float, float]:
        """(input, weight, output) on-chip reuse multipliers, >= 1.

        Higher reuse means fewer scratchpad round-trips per MAC for that
        operand.  Weight-stationary reuses weights across the output
        spatial extent; output-stationary keeps partial sums local across
        the reduction; row-stationary gets decent reuse on all three.
        """
        spatial = float(dims.y * dims.x)
        reduction = float(dims.c * dims.r * dims.s)
        if self.dataflow is Dataflow.WS:
            return (2.0, max(1.0, spatial), 2.0)
        if self.dataflow is Dataflow.OS:
            return (2.0, 2.0, max(1.0, reduction))
        if self.dataflow is Dataflow.RS:
            return (
                max(1.0, float(dims.r)),
                max(1.0, min(spatial, 64.0)),
                max(1.0, min(reduction, 64.0)),
            )
        raise AssertionError(f"unhandled dataflow {self.dataflow}")


#: Mapping efficiencies are end-to-end effective rates (stalls, drain,
#: imperfect tiling): real accelerators achieve 20-40% of peak on full
#: models, and these values calibrate the suite into the deadline-stress
#: regime the paper's evaluation operates in: PD at 30 FPS takes over
#: 50 ms on a 2K-PE WS engine against its 33 ms deadline, so the 4K-PE
#: J system saturates (Figure 6), and 25-45 ms on a 4K-PE engine
#: (``tests/costmodel/test_analysis.py::TestCalibrationShape``).
DATAFLOW_SPECS: dict[Dataflow, DataflowSpec] = {
    Dataflow.WS: DataflowSpec(Dataflow.WS, mapping_efficiency=0.35,
                              buf_reads_per_mac=1.0),
    Dataflow.OS: DataflowSpec(Dataflow.OS, mapping_efficiency=0.33,
                              buf_reads_per_mac=1.1),
    Dataflow.RS: DataflowSpec(Dataflow.RS, mapping_efficiency=0.30,
                              buf_reads_per_mac=0.7),
}
