"""Automated verification of the paper's Section 4 claims.

Runs the full sweep once and checks each claim of Sections 4.2-4.4
programmatically, producing a pass/fail report.  The same properties
are asserted (with slack) by the integration test suite; this module
exists so a user who changes the calibration, a model, or the scheduler
can immediately see which paper shapes still hold.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import RunSpec, execute
from repro.hardware import ACCELERATOR_IDS
from repro.workload import SCENARIO_ORDER

__all__ = ["Observation", "verify_observations", "format_observations"]


@dataclass(frozen=True)
class Observation:
    """One verified claim."""

    claim: str
    source: str           # paper section
    holds: bool
    evidence: str


def _sweep() -> dict[tuple[str, int, str], float]:
    return {
        (acc, pes, scenario): execute(RunSpec(
            scenario=scenario, accelerator=acc, pes=pes,
        )).score.overall
        for pes in (4096, 8192)
        for acc in ACCELERATOR_IDS
        for scenario in SCENARIO_ORDER
    }


def verify_observations() -> list[Observation]:
    """Check every Section 4 claim against a fresh sweep."""
    sweep = _sweep()
    observations: list[Observation] = []

    # 4.2.1 — the composite score is necessary.
    j4 = execute(RunSpec(scenario="ar_gaming", accelerator="J", pes=4096))
    j8 = execute(RunSpec(scenario="ar_gaming", accelerator="J", pes=8192))
    observations.append(
        Observation(
            claim="4K J fails AR gaming while 8K J delivers it",
            source="4.2.1 / Figure 6",
            holds=(
                j4.simulation.frame_drop_rate() > 0.2
                and j4.score.overall < j8.score.overall - 0.1
                and j8.score.qoe > 0.9
            ),
            evidence=(
                f"4K: overall={j4.score.overall:.2f} "
                f"drops={j4.simulation.frame_drop_rate():.0%}; "
                f"8K: overall={j8.score.overall:.2f} "
                f"qoe={j8.score.qoe:.2f}"
            ),
        )
    )

    # 4.2.2 — utilisation is the wrong metric.
    observations.append(
        Observation(
            claim="Higher utilisation does not mean better experience",
            source="4.2.2 / Figure 6",
            holds=(
                j4.simulation.mean_utilization()
                >= j8.simulation.mean_utilization() - 0.02
                and j4.score.overall < j8.score.overall
            ),
            evidence=(
                # Raw busy fraction, clamped only for display.
                f"util 4K={min(1.0, j4.simulation.mean_utilization()):.0%} "
                f"vs 8K={min(1.0, j8.simulation.mean_utilization()):.0%}; "
                f"overall "
                f"{j4.score.overall:.2f} vs {j8.score.overall:.2f}"
            ),
        )
    )

    # Observation 1 — scenarios prefer different accelerators.
    winners = {
        scenario: max(
            ACCELERATOR_IDS, key=lambda a: sweep[(a, 4096, scenario)]
        )
        for scenario in SCENARIO_ORDER
    }
    observations.append(
        Observation(
            claim="Every usage scenario prefers a different XR system",
            source="4.4 Observation 1",
            holds=len(set(winners.values())) >= 3,
            evidence=", ".join(f"{s}->{w}" for s, w in winners.items()),
        )
    )

    # Observation 2 — optimal style depends on chip size.
    changed = [
        scenario
        for scenario in SCENARIO_ORDER
        if winners[scenario]
        != max(ACCELERATOR_IDS, key=lambda a: sweep[(a, 8192, scenario)])
    ]
    observations.append(
        Observation(
            claim="Optimal accelerator styles depend on the chip size",
            source="4.4 Observation 2",
            holds=bool(changed),
            evidence=f"winner changes at 8K for: {', '.join(changed) or '-'}",
        )
    )

    # Observation 3 — multi-accelerator friendliness.
    assistant_multi = max(
        sweep[(a, 4096, "ar_assistant")] for a in "DEFGHIJKLM"
    )
    assistant_fda = max(sweep[(a, 4096, "ar_assistant")] for a in "ABC")
    vr_quads = max(sweep[(a, 4096, "vr_gaming")] for a in "GHIM")
    vr_a = sweep[("A", 4096, "vr_gaming")]
    observations.append(
        Observation(
            claim=(
                "Multi-accelerator systems win the many-model scenario; "
                "the monolithic FDA wins the few-model scenario"
            ),
            source="4.4 Observation 3",
            holds=(assistant_multi >= assistant_fda - 0.01 and vr_a > vr_quads),
            evidence=(
                f"ar_assistant: multi {assistant_multi:.2f} vs FDA "
                f"{assistant_fda:.2f}; vr_gaming: A {vr_a:.2f} vs best quad "
                f"{vr_quads:.2f}"
            ),
        )
    )
    return observations


def format_observations(observations: list[Observation]) -> str:
    lines = ["Section 4 claims, verified against this build:"]
    for obs in observations:
        status = "HOLDS " if obs.holds else "BROKEN"
        lines.append(f"[{status}] ({obs.source}) {obs.claim}")
        lines.append(f"         {obs.evidence}")
    return "\n".join(lines)
