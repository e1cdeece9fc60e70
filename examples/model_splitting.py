"""Herald-style model splitting on the saturated AR-gaming workload.

The paper credits multi-DNN workloads with an "expanded computation
scheduling space" (Kwon et al., HPCA 2021 — Herald): models can be split
at layer boundaries and their segments pipelined across sub-accelerators.
This example splits PlaneRCNN — the model that saturates every 4K-PE
system — into 1..4 segments on the heterogeneous accelerator J and shows
the classic pipelining trade-off: segment chains lift PD's *throughput*
(QoE: frames stop dropping) but cannot fix its *latency* (each frame
still flows through every segment, so deadlines stay missed), and the
extra scheduling slots squeeze the co-running models.

Run:  python examples/model_splitting.py
"""

from __future__ import annotations

from repro.core import score_simulation
from repro.hardware import build_accelerator
from repro.runtime import (
    LatencyGreedyScheduler,
    MultiScenarioSimulator,
    SessionSpec,
    segment_scenario,
)
from repro.workload import get_scenario


def run(segments: int, total_pes: int = 4096):
    scenario = get_scenario("ar_gaming")
    if segments > 1:
        scenario = segment_scenario(scenario, "PD", segments)
    sim = MultiScenarioSimulator(
        sessions=[SessionSpec(0, scenario)],
        system=build_accelerator("J", total_pes),
        scheduler=LatencyGreedyScheduler(),
        duration_s=1.0,
    ).run().sessions[0]
    return sim, score_simulation(sim)


def main() -> None:
    print("AR gaming on accelerator J @ 4K PEs, PlaneRCNN split k ways:\n")
    print(f"{'k':>3s} {'overall':>8s} {'rt':>6s} {'qoe':>6s} "
          f"{'drops':>7s} {'PD qoe':>7s} {'PD rt':>6s}")
    for k in (1, 2, 3, 4):
        sim, score = run(k)
        pd_code = "PD" if k == 1 else f"PD.{k - 1}"
        pd = score.model(pd_code)
        print(
            f"{k:>3d} {score.overall:8.3f} {score.rt:6.2f} "
            f"{score.qoe:6.2f} {sim.frame_drop_rate():7.1%} "
            f"{pd.qoe:7.2f} {pd.mean_unit('rt'):6.2f}"
        )
    print(
        "\nSplitting rescues PD's frame rate (QoE -> 1.0) but not its\n"
        "latency: every frame still traverses the full pipeline, so the\n"
        "real-time score stays pinned at zero — throughput and latency\n"
        "are different battles, which is exactly why XRBench scores both."
    )


if __name__ == "__main__":
    main()
