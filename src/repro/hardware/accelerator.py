"""Accelerator system descriptions.

A :class:`SubAccelerator` is one independently-schedulable engine (a PE
array with a fixed dataflow).  An :class:`AcceleratorSystem` is the whole
simulated chip: one sub-accelerator for FDA styles, several for SFDA/HDA
styles (Table 5).  The hardware-occupancy condition of appendix B.2 —
one engine runs one model at a time — is enforced by the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel import CostModel, Dataflow

__all__ = ["SubAccelerator", "AcceleratorSystem", "AcceleratorStyle"]


@dataclass(frozen=True)
class SubAccelerator:
    """One engine of an accelerator system."""

    index: int
    dataflow: Dataflow
    num_pes: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"index must be >= 0, got {self.index}")
        if self.num_pes < 1:
            raise ValueError(f"num_pes must be >= 1, got {self.num_pes}")

    def cost_model(self) -> CostModel:
        return CostModel(dataflow=self.dataflow, num_pes=self.num_pes)

    def describe(self) -> str:
        return f"{self.dataflow.value}@{self.num_pes}PE"


class AcceleratorStyle:
    """The three accelerator styles of Table 5."""

    FDA = "FDA"
    SFDA = "SFDA"
    HDA = "HDA"


@dataclass(frozen=True)
class AcceleratorSystem:
    """A complete accelerator configuration (one row of Table 5)."""

    acc_id: str            # "A" .. "M"
    style: str             # FDA / SFDA / HDA
    total_pes: int
    subs: tuple[SubAccelerator, ...]

    def __post_init__(self) -> None:
        if not self.subs:
            raise ValueError(f"accelerator {self.acc_id} has no engines")
        if sum(s.num_pes for s in self.subs) != self.total_pes:
            raise ValueError(
                f"accelerator {self.acc_id}: engine PEs "
                f"{[s.num_pes for s in self.subs]} do not sum to "
                f"{self.total_pes}"
            )
        indices = [s.index for s in self.subs]
        if indices != list(range(len(self.subs))):
            raise ValueError(
                f"accelerator {self.acc_id}: engine indices must be "
                f"0..{len(self.subs) - 1}, got {indices}"
            )
        dataflows = {s.dataflow for s in self.subs}
        if self.style == AcceleratorStyle.FDA and len(self.subs) != 1:
            raise ValueError("FDA systems have exactly one engine")
        if self.style == AcceleratorStyle.SFDA and len(dataflows) != 1:
            raise ValueError("SFDA systems use a single dataflow style")
        if self.style == AcceleratorStyle.HDA and len(dataflows) < 2:
            raise ValueError("HDA systems mix dataflow styles")

    @property
    def num_subs(self) -> int:
        return len(self.subs)

    def describe(self) -> str:
        engines = " + ".join(s.describe() for s in self.subs)
        return f"{self.acc_id} ({self.style}, {self.total_pes}PE): {engines}"
