"""Multi-seed statistics for the dynamic scenarios.

The artifact appendix warns that results on Outdoor Activity A/B and AR
Assistant are non-deterministic (their KD->SR control dependency is a
probabilistic trigger), and that Figure 7 averages 200 experiments.  This
module runs a scenario across seeds and reports mean, standard deviation
and a normal-approximation confidence interval per score component, so
users can report dynamic-scenario results responsibly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.api import RunSpec, execute
from repro.costmodel.analysis import ordered_sum
from repro.hardware import AcceleratorSystem

__all__ = ["ScoreStatistics", "SeedSweep", "seed_sweep"]

#: Two-sided z values for the confidence levels we expose.
_Z_VALUES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


@dataclass(frozen=True)
class ScoreStatistics:
    """Summary statistics of one score component across seeds."""

    name: str
    mean: float
    std: float
    minimum: float
    maximum: float
    n: int

    def confidence_interval(
        self, level: float = 0.95
    ) -> tuple[float, float]:
        """Normal-approximation CI of the mean."""
        try:
            z = _Z_VALUES[level]
        except KeyError:
            raise ValueError(
                f"unsupported confidence level {level}; "
                f"choose from {sorted(_Z_VALUES)}"
            ) from None
        half = z * self.std / math.sqrt(self.n) if self.n > 1 else 0.0
        return (self.mean - half, self.mean + half)

    def describe(self) -> str:
        lo, hi = self.confidence_interval()
        return (
            f"{self.name}: {self.mean:.3f} +/- {self.std:.3f} "
            f"(95% CI [{lo:.3f}, {hi:.3f}], n={self.n})"
        )


@dataclass(frozen=True)
class SeedSweep:
    """All component statistics for one scenario x system sweep."""

    scenario: str
    system: str
    statistics: dict[str, ScoreStatistics]

    def get(self, name: str) -> ScoreStatistics:
        try:
            return self.statistics[name]
        except KeyError:
            raise KeyError(
                f"no statistic {name!r}; available: "
                f"{sorted(self.statistics)}"
            ) from None

    def describe(self) -> str:
        lines = [f"{self.scenario} on {self.system}:"]
        for name in ("overall", "rt", "energy", "qoe", "drop_rate"):
            if name in self.statistics:
                lines.append("  " + self.statistics[name].describe())
        return "\n".join(lines)


def _summarise(name: str, values: list[float]) -> ScoreStatistics:
    n = len(values)
    mean = ordered_sum(values) / n
    variance = (
        ordered_sum((v - mean) ** 2 for v in values) / (n - 1)
        if n > 1 else 0.0
    )
    return ScoreStatistics(
        name=name,
        mean=mean,
        std=math.sqrt(variance),
        minimum=min(values),
        maximum=max(values),
        n=n,
    )


def seed_sweep(
    spec: RunSpec,
    seeds: int = 20,
    *,
    system: AcceleratorSystem | None = None,
    score=None,
) -> SeedSweep:
    """Run ``spec`` across ``seeds`` consecutive seeds and summarise.

    The declarative funnel path: the spec's own ``seed`` field is
    replaced by 0..seeds-1, everything else re-executes unchanged.  A
    pre-built ``system`` may be supplied when the caller sweeps many
    systems.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    if spec.mode != "single":
        raise ValueError(
            f"seed sweeps need a single-scenario spec, got mode "
            f"{spec.mode!r}"
        )
    samples: dict[str, list[float]] = {
        "overall": [], "rt": [], "energy": [], "qoe": [], "drop_rate": [],
    }
    described = None
    for seed in range(seeds):
        report = execute(
            spec.replace(seed=seed), system=system, score=score,
        )
        described = report.simulation.system.describe()
        samples["overall"].append(report.score.overall)
        samples["rt"].append(report.score.rt)
        samples["energy"].append(report.score.energy)
        samples["qoe"].append(report.score.qoe)
        samples["drop_rate"].append(report.simulation.frame_drop_rate())
    return SeedSweep(
        scenario=spec.scenario,
        system=described,
        statistics={
            name: _summarise(name, values)
            for name, values in samples.items()
        },
    )
