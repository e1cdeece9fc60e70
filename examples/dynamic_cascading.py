"""Dynamic model cascading: the Figure 7 experiment as a library script.

The eye pipeline cascades Gaze Estimation after Eye Segmentation.  In a
real device GE only runs when ES finds a sufficiently-open eye, so the
trigger probability is a workload parameter.  This sweep varies it from
25% to 100% on a low-scoring (B) and a high-scoring (J) design and shows
the paper's finding: the constrained design sheds QoE to protect its
real-time behaviour as cascading pressure rises, while the strong design
barely moves.

A spec names its scenario, and a mutated scenario has no name, so each
trial hands the mutated scenario to the runner as a ``SessionSpec``.

Run:  python examples/dynamic_cascading.py
"""

from __future__ import annotations

from repro import build_accelerator, get_scenario
from repro.api import run_group
from repro.runtime import SessionSpec

TRIALS = 40  # the paper uses 200; 40 keeps this example snappy


def main() -> None:
    base = get_scenario("vr_gaming")

    print(
        f"VR gaming, ES->GE cascade probability sweep "
        f"({TRIALS} trials per point)\n"
    )
    for acc_id in ("B", "J"):
        system = build_accelerator(acc_id, 4096)
        print(f"accelerator {acc_id} ({system.describe()}):")
        for prob in (0.25, 0.50, 0.75, 1.00):
            scenario = base.with_dependency_probability("ES", "GE", prob)
            sums = {"rt": 0.0, "qoe": 0.0, "overall": 0.0, "ge_frames": 0.0}
            for seed in range(TRIALS):
                session = SessionSpec(
                    session_id=0, scenario=scenario, seed=seed
                )
                score = run_group([session], system).session_reports[0].score
                sums["rt"] += score.rt
                sums["qoe"] += score.qoe
                sums["overall"] += score.overall
                sums["ge_frames"] += score.model("GE").frames_streamed
            print(
                f"  p={prob:4.0%}: overall={sums['overall'] / TRIALS:.3f} "
                f"rt={sums['rt'] / TRIALS:.3f} "
                f"qoe={sums['qoe'] / TRIALS:.3f} "
                f"(GE triggered {sums['ge_frames'] / TRIALS:.0f} frames/s)"
            )
        print()


if __name__ == "__main__":
    main()
