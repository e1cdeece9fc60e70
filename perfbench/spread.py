"""Run workloads over several seeds; print each metric's median and spread.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--trace 0]
                                [--workload NAME ...]

Runs ``run.py`` once per workload and seed, for ``run_seconds`` of
``BENCHMARK.json`` each, and prints every metric of each workload by
name and unit: its median over the seeds and its quartile spread
(q3 - q1, ``statistics.quantiles(values, n=4)``) as a share of the
median.  End-to-end metrics also show their bound, and ``!`` marks a
spread above a third of it.  The last line of each workload counts the
failed and attempted executions.  Exits 1 if any execution failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

from compare import quartiles

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in benchmark["workloads"]])
    args = parser.parse_args()
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    any_failed = False
    for workload in args.workload or [w["name"] for w in benchmark["workloads"]]:
        values: dict[str, list[float]] = {m["name"]: [] for m in declared}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(benchmark["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            result = json.loads(done.stdout.splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        for metric in declared:
            series = values[metric["name"]]
            mid = median(series)
            q1, _, q3 = quartiles(series)
            share = (q3 - q1) / mid if mid else 0.0
            line = (f"{workload:14s} {metric['name']:34s} {mid:12.6g} "
                    f"{metric['unit']:16s} spread {share:7.2%}")
            if "bound" in metric:
                mark = "!" if share > metric["bound"] / 3 else ""
                line += f" bound {metric['bound']:.0%} {mark}"
            print(line, flush=True)
        print(f"{workload:14s} failed {failed} of {attempted} executions "
              f"over {args.seeds} seeds", flush=True)
        any_failed |= failed > 0
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
