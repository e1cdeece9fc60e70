"""Deep dive: why hardware utilisation is the wrong metric (Section 4.2.2).

Reproduces the Figure 6 analysis interactively: the 4K-PE accelerator J
shows a *denser* execution timeline (higher utilisation) on AR gaming
than its 8K-PE sibling, yet it drops ~10x more frames and its plane-
detection model never meets a deadline.  The XRBench score catches this;
utilisation alone would rank the systems backwards.

Run:  python examples/ar_gaming_deep_dive.py
"""

from __future__ import annotations

from repro import RunSpec, execute


def main() -> None:
    for total_pes in (4096, 8192):
        report = execute(
            RunSpec(scenario="ar_gaming", accelerator="J", pes=total_pes)
        )
        sim, score = report.simulation, report.score

        print(f"=== accelerator J @ {total_pes} PEs ===")
        print(
            # Raw busy fraction, clamped only for display.
            f"utilisation {min(1.0, sim.mean_utilization()):6.1%}   "
            f"drops {sim.frame_drop_rate():6.1%}   "
            f"overall score {score.overall:.2f}"
        )
        print(report.timeline(width=96, until_s=0.6))

        # Per-model accounting: PD is what starves.
        for m in score.model_scores:
            delays = report.delay_over_deadline_ms()
            print(
                f"  {m.model_code}: executed {m.frames_executed}/"
                f"{m.frames_streamed}, missed {m.missed_deadlines} "
                f"deadlines (mean lateness {delays[m.model_code]:.1f} ms), "
                f"rt={m.mean_unit('rt'):.2f}, qoe={m.qoe:.2f}"
            )
        print()

    print(
        "Takeaway: the 4K system is busier (looks 'better utilised') but\n"
        "delivers the worse experience — exactly the paper's argument for\n"
        "the composite XRBench score over raw utilisation."
    )


if __name__ == "__main__":
    main()
