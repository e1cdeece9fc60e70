"""One benchmark sample: a fresh process that sets a workload up and runs it.

Started by ``run.py``, one at a time; prints one JSON line.  Kinds:

* ``cold``: set up, execute once, exit -- what one CLI invocation pays;
* ``warm``: set up, execute ``1 + WARM_RUNS`` times in one process;
* ``traced``: set up and execute twice with the layer shims installed,
  remove them, then execute a third time untraced.

Set-up is interpreter start, the simulator imports, building the specs
and compiling the first plan.  Each execution is timed on its own, with
a host-speed probe (``probe.py``) taken before the first execution and
after each one.  The probes and the output checks that follow each
execution are timed apart, so ``run.py`` can leave them out of the
process's wall time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Any

WARM_RUNS = 5

#: Layers timed for the per-layer metrics, and the runs each is read
#: from: ``("setup", "cold")`` for layers that predict ``setup_s``,
#: ``cold_run_s`` or ``wall_s``; ``("warm",)`` for those that predict
#: ``warm_run_s``.
COLD = ("setup", "cold")
WARM = ("warm",)
TIMED_LAYERS: dict[str, tuple[str, ...]] = {
    "api.compile_plan": COLD,
    "hardware.build_accelerator": COLD,
    "costmodel.analysis": COLD,
    "costmodel.cost": WARM,
    "costmodel.dense": WARM,
    "workload.jitter": COLD,
    "workload.spawn_dependent": WARM,
    "runtime.waiting_offer": WARM,
    "runtime.scheduler": WARM,
    "runtime.governor": WARM,
    "runtime.split_graph": COLD,
    "core.score": WARM,
}


def jitter_memo() -> tuple[int, int]:
    """(hits, misses) of the jitter-draw memo; zeros if there is none."""
    from repro.workload import sensors

    info = getattr(getattr(sensors, "_jitter_unit", None), "cache_info", None)
    if info is None:
        return 0, 0
    current = info()
    return current.hits, current.misses


def layer_metrics(
    tracer: Any, counts: dict[str, float], import_s: float,
    memo: tuple[int, int],
) -> dict[str, float]:
    """The per-layer metrics of one traced process."""
    from tracer import API_LAYERS

    def stat(layer: str, runs: tuple[str, ...]) -> tuple[int, float, float]:
        calls, total, child = 0, 0.0, 0.0
        for run in runs:
            c, t, ch = tracer.stat(run, layer)
            calls, total, child = calls + c, total + t, child + ch
        return calls, total, child

    out: dict[str, float] = {"import.repro_s": import_s}
    for layer, runs in TIMED_LAYERS.items():
        calls, total, _ = stat(layer, runs)
        out[f"{layer}_s"] = total
        out[f"{layer}_calls"] = calls
    _, run_total, run_child = stat("runtime.run", WARM)
    _, push_s, _ = stat("runtime.event_push", WARM)
    pops, pop_s, _ = stat("runtime.event_pop", WARM)
    offered = counts["requests_offered"]
    out.update({
        "api.plan_cache_hits": counts.get("plan_cache_hits", 0),
        "api.self_s": sum(
            total - child for _, total, child in
            (stat(layer, WARM) for layer in API_LAYERS)
        ),
        "costmodel.cache_hits": counts["cache_hits"],
        "costmodel.cache_lookups": counts["cache_lookups"],
        "costmodel.hit_ratio": (
            counts["cache_hits"] / counts["cache_lookups"]
            if counts["cache_lookups"] else 0.0
        ),
        "workload.root_requests_s": stat("workload.root_requests", COLD)[1],
        "workload.jitter_memo_hit_ratio": (
            memo[0] / (memo[0] + memo[1]) if memo[0] + memo[1] else 0.0
        ),
        "workload.requests_offered": offered,
        "runtime.run_s": run_total,
        "runtime.loop_self_s": run_total - run_child,
        "runtime.events": pops,
        "runtime.event_queue_s": push_s + pop_s,
        "runtime.waiting_offers": out.pop("runtime.waiting_offer_calls"),
        "runtime.dispatches": counts["dispatches"],
        "runtime.completed": counts["completed"],
        "runtime.useful_ratio": counts["completed"] / offered if offered else 0.0,
        "runtime.fault_killed": counts["fault_killed"],
        "runtime.fault_lost": counts["fault_lost"],
        "core.export_s": stat("core.export", COLD)[1],
        "core.export_bytes": counts.get("export_bytes", 0),
        "eval.rundb_append_s": stat("eval.rundb_append", COLD)[1],
        "eval.rundb_appends": counts.get("rundb_appends", 0),
        "eval.rundb_bytes": counts.get("rundb_bytes", 0),
        "eval.report_render_s": stat("eval.report_render", COLD)[1],
    })
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--kind", choices=("cold", "warm", "traced"),
                        required=True)
    parser.add_argument("--scratch", required=True,
                        help="directory for the run databases")
    args = parser.parse_args()
    traced = args.kind == "traced"
    origin = time.perf_counter()

    import numpy

    import workloads
    import_s = time.perf_counter() - origin
    from probe import probe

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.start_run("setup")
        memo_start = jitter_memo()
    workload = workloads.build(args.workload, args.seed, args.scratch)
    ready = time.monotonic()
    probes = [probe()]
    overhead_s = time.monotonic() - ready

    positions = {"cold": 1, "warm": 1 + WARM_RUNS, "traced": 3}[args.kind]
    runs: list[dict[str, Any]] = []
    unrestored: list[str] = []
    cold_counts: dict[str, float] = {}
    for position in range(positions):
        if tracer is not None:
            if position < 2:
                tracer.start_run("cold" if position == 0 else "warm")
            else:
                unrestored = tracer.uninstall()
        start = time.perf_counter()
        execution = workload.run()
        seconds = time.perf_counter() - start
        if position == 0:
            # Read before the probe and the checks allocate anything.
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
        if tracer is not None:
            tracer.end_run()
            if position == 0:
                memo_end = jitter_memo()
        start = time.perf_counter()
        probes.append(probe())
        outcome = workloads.inspect(execution)
        del execution
        overhead_s += time.perf_counter() - start
        if position == 0:
            cold_counts = outcome.counts
        runs.append({
            "seconds": seconds, "dispatches": outcome.counts["dispatches"],
            "digest": outcome.digest, "failures": outcome.failures,
        })
    workload.close()

    result: dict[str, Any] = {
        "ready": ready,
        "import_s": import_s,
        "numpy": numpy.__version__,
        "overhead_s": overhead_s,
        "peak_rss_mb": peak_rss_mb,
        "probes": probes,
        "runs": runs,
    }
    if tracer is not None:
        memo = (memo_end[0] - memo_start[0], memo_end[1] - memo_start[1])
        result["layers"] = layer_metrics(tracer, cold_counts, import_s, memo)
        result["unrestored"] = unrestored
        result["missing"] = tracer.missing
        result["spans"] = tracer.chrome_events(origin)
        result["layer_runs"] = tracer.runs
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
