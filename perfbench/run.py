"""Host-time benchmark of the XRBench simulator: one workload, one seed.

    python3 perfbench/run.py --workload overload_256 --seed 1 \\
        --seconds 35 --trace 0

Measures the host time the simulator takes to run a workload (not the
simulated time of the modelled hardware).  Each sample is one fresh
process (``child.py``), started serially from the repository root with
``src`` on ``PYTHONPATH`` and its own ``PYTHONHASHSEED``; samples are
taken until ``--seconds`` have passed and each metric is their median.

``--trace 0`` starts two cold processes per warm one and reports the
end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s``: process start until the workload is ready to execute
  (interpreter start, imports, building the specs, compiling the first
  plan), over every process;
* ``wall_s``: process start to exit of a cold process, which sets up and
  executes once, minus the time it spent on probes and output checks;
* ``cold_run_s``: the first execution in a process, memos empty;
* ``warm_run_s``: each later execution in a warm process;
* ``dispatches_per_s``: simulated dispatches (execution records) per
  host second of a warm execution;
* ``peak_rss_mb``: maximum resident memory of a cold process, read as
  soon as its execution returns, before the probe and the output checks.

Times are put on one host-speed scale before the medians are taken
(see ``probe.py``): each is multiplied by ``REFERENCE_S`` over the
host-speed probes taken next to it in the same process -- set-up by the
first probe, an execution by the mean of the probes before and after
it, a process by the mean of all of its probes.  On a shared host this
roughly halves the spread between runs; the unscaled times and the
probes are kept in the results file.

``--trace 1`` alternates warm and traced processes and reports the
per-layer metrics: medians over the traced processes (see ``child.py``
and ``tracer.py``), ``trace.overhead_ratio`` (traced over untraced cold
execution) and ``check.in_process_repeat_match`` (1 when every
execution in a process gives the same digest as its first).

Every execution is checked (``workloads.inspect``), and the digest of
the n-th execution must be the same in every process.  A violation
counts the execution as failed.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; full samples, the
machine fingerprint and the digests go to
``perfbench/results/<workload>-seed<seed>-trace<0|1>.json``, and traced
spans to ``...-seed<seed>.trace.json`` (Chrome trace-event format).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median
from typing import Any

from probe import REFERENCE_S

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
CHILD_TIMEOUT_S = 150


def spawn(
    args: argparse.Namespace, env: dict[str, str], kind: str, index: int
) -> dict[str, Any]:
    """Run one child process to completion; returns its report."""
    env = dict(env, PYTHONHASHSEED=str((args.seed * 7919 + index) % (1 << 32)))
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--kind", kind, "--scratch", str(RESULTS),
    ]
    spawned = time.monotonic()
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    exited = time.monotonic()
    if done.returncode != 0:
        raise SystemExit(
            f"perfbench: {kind} process exited with {done.returncode}"
        )
    report = json.loads(done.stdout.decode().splitlines()[-1])
    report.update(
        kind=kind, index=index, hash_seed=env["PYTHONHASHSEED"],
        spawned=spawned, exited=exited,
    )
    return report


def mark_failures(children: list[dict[str, Any]]) -> dict[int, str]:
    """Fail executions whose digest is off, or whose process kept a shim.

    The reference digest of the n-th execution is the most common one
    among all processes; returns the references.
    """
    seen: dict[int, Counter[str]] = {}
    for child in children:
        for n, run in enumerate(child["runs"]):
            seen.setdefault(n, Counter())[run["digest"]] += 1
    reference = {n: c.most_common(1)[0][0] for n, c in seen.items()}
    for child in children:
        for n, run in enumerate(child["runs"]):
            if run["digest"] != reference[n]:
                run["failures"].append(
                    f"execution {n} digest {run['digest'][:12]} != "
                    f"{reference[n][:12]} (PYTHONHASHSEED="
                    f"{child['hash_seed']})"
                )
        for name in child.get("unrestored", ()):
            child["runs"][-1]["failures"].append(
                f"{name} is not the original after the shims were removed"
            )
    return reference


def scaled(child: dict[str, Any], n: int) -> float:
    """Execution ``n`` of a process, in seconds on the benchmark's scale."""
    before, after = child["probes"][n:n + 2]
    return child["runs"][n]["seconds"] * REFERENCE_S * 2 / (before + after)


def process_scale(child: dict[str, Any]) -> float:
    """Scale factor for a whole process: reference over its mean probe."""
    return REFERENCE_S * len(child["probes"]) / sum(child["probes"])


def end_to_end(children: list[dict[str, Any]]) -> dict[str, float]:
    cold = [c for c in children if c["kind"] == "cold"]
    warm = [
        (c["runs"][n]["dispatches"], scaled(c, n))
        for c in children if c["kind"] == "warm"
        for n in range(1, len(c["runs"]))
    ]
    return {
        "setup_s": median(
            (c["ready"] - c["spawned"]) * REFERENCE_S / c["probes"][0]
            for c in children
        ),
        "wall_s": median(
            (c["exited"] - c["spawned"] - c["overhead_s"]) * process_scale(c)
            for c in cold
        ),
        "cold_run_s": median(scaled(c, 0) for c in children),
        "warm_run_s": median(seconds for _, seconds in warm),
        "dispatches_per_s": median(d / seconds for d, seconds in warm),
        "peak_rss_mb": median(c["peak_rss_mb"] for c in cold),
    }


def per_layer(children: list[dict[str, Any]]) -> dict[str, float]:
    traced = [c for c in children if c["kind"] == "traced"]
    untraced = [c for c in children if c["kind"] != "traced"]

    def layer(child: dict[str, Any], name: str) -> float:
        value = child["layers"][name]
        return value * process_scale(child) if name.endswith("_s") else value

    out = {
        name: median(layer(c, name) for c in traced)
        for name in traced[0]["layers"]
    }
    out["trace.overhead_ratio"] = (
        median(scaled(c, 0) for c in traced)
        / median(scaled(c, 0) for c in untraced)
    )
    out["check.in_process_repeat_match"] = int(all(
        run["digest"] == c["runs"][0]["digest"]
        for c in children for run in c["runs"]
    ))
    return out


def fingerprint(children: list[dict[str, Any]]) -> dict[str, Any]:
    """The machine the results come from, and the code they measure."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), cpu,
            )
    except OSError:
        pass
    head = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=False,
        )
        head = done.stdout.strip() or head
    return {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": children[0]["numpy"],
        },
        "git_head": head,
    }


def main() -> None:
    benchmark = json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator source under {ROOT / 'src'}")
    RESULTS.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ))

    # Compile the bytecode and warm the file cache before timing set-up.
    subprocess.run(
        [sys.executable, "-c", "import repro.api, repro.eval.rundb"],
        cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S, check=True,
    )
    # Cold processes give one wall time each, warm ones five warm
    # executions, so untraced runs start two cold per warm one.
    kinds = ("warm", "traced") if args.trace else ("cold", "cold", "warm")
    children: list[dict[str, Any]] = []
    deadline = time.monotonic() + args.seconds
    while len(children) < len(kinds) or time.monotonic() < deadline:
        children.append(spawn(
            args, env, kinds[len(children) % len(kinds)], len(children)
        ))

    reference = mark_failures(children)
    values = per_layer(children) if args.trace else end_to_end(children)
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    runs = [run for c in children for run in c["runs"]]
    failed = sum(bool(run["failures"]) for run in runs)

    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        events = []
        for child in children:
            for event in child.pop("spans", ()):
                event["pid"] = child["index"]
                events.append(event)
        (RESULTS / f"{stem}.trace.json").write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
            encoding="utf-8",
        )
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "fingerprint": fingerprint(children),
        "digests": reference, "metrics": metrics, "failed": failed,
        "attempted": len(runs), "children": children,
    }
    (RESULTS / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )

    for failure in [f for run in runs for f in run["failures"]][:20]:
        print(f"FAILED {failure}")
    for target in next((c["missing"] for c in children if "missing" in c), ()):
        print(f"not traced, missing from the program: {target}")
    print(f"fingerprint {json.dumps(record['fingerprint'])}")
    print(f"digest {reference[0]} ({len(children)} processes)")
    print(f"host speed: median probe {median(p for c in children for p in c['probes']):.4g} s "
          f"(scale reference {REFERENCE_S} s)")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
