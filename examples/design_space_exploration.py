"""Design-space exploration across the Table 5 accelerator styles.

Sweeps all thirteen accelerator configurations at 4K and 8K PEs over the
whole scenario suite, prints the per-scenario winners (the paper's
Observation 1: every scenario prefers a different design), how winners
shift with the PE budget (Observation 2), and a compact Pareto view of
score vs. mean energy per inference.

Run:  python examples/design_space_exploration.py
"""

from __future__ import annotations

from repro import RunSpec, execute
from repro.hardware import ACCELERATOR_IDS
from repro.workload import SCENARIO_ORDER


def main() -> None:
    results: dict[tuple[str, int], dict] = {}

    for pes in (4096, 8192):
        for acc_id in ACCELERATOR_IDS:
            suite = execute(RunSpec.for_suite(acc_id, pes=pes))
            per_scenario = {
                r.simulation.scenario.name: r.score.overall
                for r in suite.scenario_reports
            }
            energies = [
                r.energy_mj
                for rep in suite.scenario_reports
                for r in rep.simulation.completed()
            ]
            results[(acc_id, pes)] = {
                "xrbench": suite.xrbench_score,
                "per_scenario": per_scenario,
                "mean_energy_mj": sum(energies) / len(energies),
            }

    for pes in (4096, 8192):
        print(f"=== {pes} PEs: per-scenario winners ===")
        for scenario in SCENARIO_ORDER:
            best = max(
                ACCELERATOR_IDS,
                key=lambda a: results[(a, pes)]["per_scenario"][scenario],
            )
            score = results[(best, pes)]["per_scenario"][scenario]
            print(f"  {scenario:<22s} -> {best}  ({score:.2f})")
        print()

    print("=== XRBench score vs mean energy per inference (4K PEs) ===")
    rows = sorted(
        ((a, results[(a, 4096)]) for a in ACCELERATOR_IDS),
        key=lambda kv: -kv[1]["xrbench"],
    )
    for acc_id, data in rows:
        bar = "#" * int(data["xrbench"] * 40)
        print(
            f"  {acc_id}  score={data['xrbench']:.3f}  "
            f"energy={data['mean_energy_mj']:6.1f} mJ  {bar}"
        )

    # Pareto frontier: no other design both scores higher and uses less
    # energy.
    frontier = [
        a
        for a in ACCELERATOR_IDS
        if not any(
            results[(b, 4096)]["xrbench"] > results[(a, 4096)]["xrbench"]
            and results[(b, 4096)]["mean_energy_mj"]
            < results[(a, 4096)]["mean_energy_mj"]
            for b in ACCELERATOR_IDS
        )
    ]
    print(f"\nPareto-optimal designs at 4K PEs: {', '.join(frontier)}")


if __name__ == "__main__":
    main()
