"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``*-trace0.json`` files ``run.py`` wrote for one
commit (a copy of ``perfbench/results``), ideally ten seeds per workload.
Results measured on different machines, or with runs of different
lengths, are refused (exit 2): their difference says nothing about the
code.  Otherwise each end-to-end
metric of ``BENCHMARK.json`` gets one row per workload with both sides'
medians and quartiles and a verdict:

* ``worse``: the change's median is worse than the base's by more than
  the metric's bound (exit 1);
* ``unresolved``: the base's own quartile spread exceeds the bound, and
  not every change run beats every base run;
* ``ok`` otherwise.

Seeds measured on both sides also have their output digests compared,
so a speed-only change can be shown to leave the simulation
bit-identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list[dict[str, Any]]:
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(Path(directory).glob("*-trace0.json"))
    ]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def spread(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def verdict(metric: dict[str, Any], base: list[float],
            change: list[float]) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    b, c = median(base), median(change)
    if sign * (c - b) > metric["bound"] * abs(b):
        return "worse"
    q1, _, q3 = quartiles(base)
    beats_all = all(sign * (x - y) < 0 for x in change for y in base)
    if (q3 - q1) > metric["bound"] * abs(b) and not beats_all:
        return "unresolved"
    return "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    machines = {
        json.dumps(r["fingerprint"]["machine"], sort_keys=True)
        for r in base + change
    }
    if len(machines) > 1:
        print("refused: results come from different machines:")
        for machine in sorted(machines):
            print(f"  {machine}")
        return 2
    lengths = {r["seconds"] for r in base + change}
    if len(lengths) > 1:
        print(f"refused: runs of different lengths {sorted(lengths)} s")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    worse = False
    print(f"{'workload':14s} {'metric':18s} {'base median [q1,q3]':>30s} "
          f"{'change median [q1,q3]':>30s} {'ratio':>7s}  verdict")
    for workload in sorted({r["workload"] for r in base + change}):
        sides = [[r for r in side if r["workload"] == workload]
                 for side in (base, change)]
        if not all(sides):
            print(f"{workload:14s} measured on one side only")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, c = ([r["metrics"][name]["value"] for r in side]
                    for side in sides)
            mark = verdict(metric, b, c)
            worse |= mark == "worse"
            bq, cq = quartiles(b), quartiles(c)
            print(f"{workload:14s} {name:18s} {spread(bq):>30s} "
                  f"{spread(cq):>30s} {cq[1] / bq[1]:7.3f}  {mark} "
                  f"(n={len(b)}/{len(c)})")
        digests = [{r["seed"]: r["digests"]["0"] for r in side}
                   for side in sides]
        shared = sorted(set(digests[0]) & set(digests[1]))
        same = sum(digests[0][s] == digests[1][s] for s in shared)
        print(f"{workload:14s} outputs bit-identical on {same} of "
              f"{len(shared)} shared seeds")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
