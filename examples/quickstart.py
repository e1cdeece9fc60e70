"""Quickstart: score one accelerator on one XR usage scenario.

Runs the AR-gaming scenario (hand tracking at 45 FPS, depth estimation
and plane detection at 30 FPS) on accelerator J — the heterogeneous
WS+OS design of Table 5 — at both the 4K and 8K PE budgets, and prints
the score report the XRBench harness produces.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import RunSpec, execute


def main() -> None:
    for total_pes in (4096, 8192):
        report = execute(
            RunSpec(scenario="ar_gaming", accelerator="J", pes=total_pes)
        )
        print(report.summary())
        print()

    # The full suite produces the single mandatory XRBench SCORE.
    suite = execute(RunSpec.for_suite("J", pes=8192))
    print(suite.summary())


if __name__ == "__main__":
    main()
