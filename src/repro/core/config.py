"""Benchmark-wide configuration constants.

These mirror the defaults stated in the paper:

* ``RT_SCORE_K`` — the steepness constant ``k`` of the real-time score
  sigmoid (Definition 10, default 15; Figure 8 sweeps it).
* ``ENERGY_MAX_MJ`` — ``Enmax``, the per-inference energy budget used to
  bound the energy score into [0, 1] (Definition 11, default 1500 mJ).
* ``ACC_EPSILON`` — the ``epsilon`` guarding lower-is-better accuracy ratios
  against division by zero (Definition 12, default 1e-6).
* ``DEFAULT_DURATION_S`` — how long a scenario is simulated.  The paper's
  harness defaults to one second of streamed input.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.registry import score_presets as SCORE_PRESET_REGISTRY

RT_SCORE_K: float = 15.0
ENERGY_MAX_MJ: float = 1500.0
ACC_EPSILON: float = 1e-6
DEFAULT_DURATION_S: float = 1.0

#: Clock frequency of every simulated accelerator (Section 4.1: 1 GHz).
CLOCK_HZ: float = 1e9

#: On-chip (NoC) bandwidth shared by the PE array, bytes per cycle.
#: Section 4.1: 256 GB/s at 1 GHz -> 256 B/cycle.
ONCHIP_BW_BYTES_PER_CYCLE: float = 256.0

#: On-chip shared scratchpad size (Section 4.1: 8 MiB).
ONCHIP_MEMORY_BYTES: int = 8 * 1024 * 1024

#: Off-chip (DRAM) bandwidth, bytes per cycle.  Not stated explicitly in the
#: paper; we use LPDDR5-class 64 GB/s, a realistic mobile SoC figure.
OFFCHIP_BW_BYTES_PER_CYCLE: float = 64.0


@dataclass(frozen=True)
class ScoreConfig:
    """Tunable knobs of the scoring module.

    Instances are immutable so a config can be shared across a whole sweep
    without aliasing surprises.
    """

    rt_k: float = RT_SCORE_K
    energy_max_mj: float = ENERGY_MAX_MJ
    acc_epsilon: float = ACC_EPSILON

    def __post_init__(self) -> None:
        if self.rt_k < 0:
            raise ValueError(f"rt_k must be >= 0, got {self.rt_k}")
        if self.energy_max_mj <= 0:
            raise ValueError(
                f"energy_max_mj must be > 0, got {self.energy_max_mj}"
            )
        if self.acc_epsilon <= 0:
            raise ValueError(
                f"acc_epsilon must be > 0, got {self.acc_epsilon}"
            )


def register_score_preset(
    name: str, config: ScoreConfig | None = None, *, overwrite: bool = False
):
    """Name-address a :class:`ScoreConfig` for ``RunSpec.score_preset``."""
    return SCORE_PRESET_REGISTRY.register(name, config, overwrite=overwrite)


def get_score_preset(name: str) -> ScoreConfig:
    """Look up a scoring preset by name."""
    return SCORE_PRESET_REGISTRY.get(name)


#: The paper's defaults, plus the sensitivity points its Figure 8 / the
#: Enmax ablation explore, name-addressable for serializable specs.
register_score_preset("default", ScoreConfig())
register_score_preset("strict_rt", ScoreConfig(rt_k=30.0))
register_score_preset("lenient_rt", ScoreConfig(rt_k=5.0))
register_score_preset("low_power", ScoreConfig(energy_max_mj=750.0))
