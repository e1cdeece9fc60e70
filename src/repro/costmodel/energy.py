"""Energy model constants.

Per-operation energies for an 8-bit edge accelerator in a recent mobile
process node, in picojoules.  The absolute values are calibration
constants: they are chosen within the plausible published
ranges (Horowitz ISSCC'14 scaling and follow-ups) such that heavy
inferences land in the hundreds-of-mJ regime the paper's energy scores
imply against the 1500 mJ ``Enmax`` budget.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EnergyModel", "DEFAULT_ENERGY_MODEL"]


@dataclass(frozen=True)
class EnergyModel:
    """Energy coefficients for the analytical cost model.

    Attributes:
        mac_pj: energy of one 8-bit MAC.
        buf_pj_per_byte: on-chip scratchpad access energy per byte.
        dram_pj_per_byte: off-chip DRAM access energy per byte.
        leakage_w_per_pe: static power per PE while the array is powered;
            accrued over an inference's latency, it is what makes slow,
            saturated systems *also* energy-inefficient (the 4K-vs-8K
            energy-score gap of Figure 6).
    """

    mac_pj: float = 5.0
    buf_pj_per_byte: float = 10.0
    dram_pj_per_byte: float = 250.0
    leakage_w_per_pe: float = 3e-4

    def __post_init__(self) -> None:
        for name in ("mac_pj", "buf_pj_per_byte", "dram_pj_per_byte",
                     "leakage_w_per_pe"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def compute_mj(self, macs: float) -> float:
        return macs * self.mac_pj * 1e-9

    def buffer_mj(self, bytes_accessed: float) -> float:
        return bytes_accessed * self.buf_pj_per_byte * 1e-9

    def dram_mj(self, bytes_moved: float) -> float:
        return bytes_moved * self.dram_pj_per_byte * 1e-9

    def leakage_mj(self, num_pes: int, seconds: float) -> float:
        return self.leakage_w_per_pe * num_pes * seconds * 1e3


DEFAULT_ENERGY_MODEL = EnergyModel()
