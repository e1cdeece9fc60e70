"""The benchmark's workloads and the checks run on every execution.

Every workload is a closed loop with one caller: its specs run one after
another through the public API, each waiting for the previous one.  The
specs are built from the workload seed alone; the simulator receives
only the specs.

* ``overload_256`` -- the concurrent pattern at scale: 256 ``vr_gaming``
  sessions on accelerator J (8192 PEs), whole-model dispatch, every
  policy static, 2 s simulated.  About 54k requests are offered and
  1.4k dispatched, so the run is arrival, offer and supersede traffic
  plus, when cold, the jitter draws behind the load generator.
* ``dispatch_mix`` -- the cascaded-concurrent pattern with every dynamic
  mechanism on: 8 sessions cycling four scenarios, segment dispatch,
  preemptive ``edf``, ``slack`` DVFS, ``degrade`` admission, ``flaky``
  faults and churn 0.25; four such specs of 10 s (about 9.8k requests
  and 14.5k dispatches in all).  It loads the scheduler, governor, dense
  cost view, segmentation, admission and fault handlers on every
  dispatch.
* ``design_sweep`` -- the paper's Figure 5 grid: 7 scenarios x 13
  accelerators x 2 PE budgets, 182 single-session specs of 1 s run by
  ``Experiment.run(workers=1)``.  Each report is exported with
  ``scenario_to_dict`` and appended to a fresh ``RunDatabase``, and the
  database report is rendered once at the end.  It loads per-spec
  ``compile_plan``, the cold cost-model analysis over 26 systems, the
  single-session path, scoring and the export and run-database writes.

Only ``design_sweep`` exports through ``scenario_to_dict``: for a
session degraded by admission control the export measures quantised
model quality by running the networks, which takes about 14 s and
1.3 GB on first use, far more than the simulation it reports on.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import operator
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any

import repro.api as api
from repro.core import export
from repro.eval import rundb
from repro.hardware import ACCELERATOR_IDS, PE_BUDGETS
from repro.workload import SCENARIO_ORDER

MIX_SCENARIOS = (
    "ar_gaming", "vr_gaming", "social_interaction_a", "outdoor_activity_a",
)


def spec_seed(seed: int) -> int:
    """The RunSpec seed for a workload seed (RunSpec seeds are >= 0)."""
    return seed % (1 << 31)


@dataclass
class Execution:
    """What one execution of a workload produced."""

    reports: list[Any]
    export: bytes = b""
    counts: dict[str, int] = field(default_factory=dict)


class SessionWorkload:
    """Multi-tenant specs, compiled at set-up and executed in turn."""

    def __init__(self, specs: list[api.RunSpec]) -> None:
        self.plans = [api.compile_plan(spec) for spec in specs]

    def run(self) -> Execution:
        return Execution([api.execute_plan(plan) for plan in self.plans])

    def close(self) -> None:
        pass


class SweepWorkload:
    """The Figure 5 grid, run serially and exported to a run database."""

    def __init__(self, sweep: api.Sweep, scratch: str) -> None:
        self.specs = tuple(sweep.expand())
        api.compile_plan(self.specs[0])
        self.dir = tempfile.mkdtemp(prefix="rundb-", dir=scratch)
        self.runs = 0

    def run(self) -> Execution:
        sink = api.CollectingSink()
        experiment = api.Experiment(name="design_sweep", specs=self.specs)
        reports = experiment.run(workers=1, sinks=[sink])
        self.runs += 1
        db = rundb.RunDatabase(os.path.join(self.dir, f"{self.runs}.jsonl"))
        exports = []
        for spec, report in zip(self.specs, reports):
            exports.append(export.scenario_to_dict(report))
            db.append(spec, report)
        rundb.ReportGenerator.from_database(db).render()
        text = json.dumps(exports, sort_keys=True).encode()
        finished = [e for e in sink.events if e.kind == "experiment_finished"]
        return Execution(reports, text, {
            "plan_cache_hits": finished[-1].payload.get("plan_cache_hits", 0),
            "export_bytes": len(text),
            "rundb_appends": len(reports),
            "rundb_bytes": db.path.stat().st_size,
        })

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def build(name: str, seed: int, scratch: str) -> SessionWorkload | SweepWorkload:
    """Set a workload up: build its specs from ``seed``, compile the first."""
    if name == "overload_256":
        return SessionWorkload([api.RunSpec(
            scenario="vr_gaming", sessions=256, accelerator="J", pes=8192,
            duration_s=2.0, seed=spec_seed(seed),
        )])
    if name == "dispatch_mix":
        # A spec's seed also sets its churn windows and fault plan, which
        # move its dispatch count by up to 15%; four specs of 10 s rather
        # than one of 40 s average that out between workload seeds.
        return SessionWorkload([api.RunSpec(
            scenario=tuple(MIX_SCENARIOS[i % 4] for i in range(8)),
            accelerator="J", pes=8192, granularity="segment",
            scheduler="edf", preemptive=True, dvfs_policy="slack",
            admission="degrade", faults="flaky", churn=0.25,
            duration_s=10.0, seed=spec_seed(seed * 4 + part),
        ) for part in range(4)])
    if name == "design_sweep":
        return SweepWorkload(api.Sweep(
            base=api.RunSpec(scenario=SCENARIO_ORDER[0], duration_s=1.0,
                             seed=spec_seed(seed)),
            grid={
                "pes": tuple(PE_BUDGETS.values()),
                "accelerator": tuple(ACCELERATOR_IDS),
                "scenario": tuple(SCENARIO_ORDER),
            },
        ), scratch)
    raise ValueError(f"unknown workload {name!r}")


# -- output checks -------------------------------------------------------------


@dataclass
class Outcome:
    """The checked outputs of one execution."""

    digest: str
    failures: list[str]
    #: Simulated work: dispatches, requests offered and completed, fault
    #: kills and losses, cost-cache hits and lookups, and what the
    #: workload counted itself (see ``Execution.counts``).
    counts: dict[str, int]


@functools.cache
def _outcome(cls: type) -> operator.attrgetter[Any]:
    """Getter of a request's simulated outcome: every field but the id."""
    return operator.attrgetter(*(
        f.name for f in dataclasses.fields(cls) if f.name != "request_id"
    ))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _check_session(sim: Any, where: str, failures: list[str]) -> None:
    """Invariants every simulated session must hold."""
    for request in sim.requests:
        if request.completed == request.dropped:
            failures.append(
                f"{where}: {request!r} reached no terminal state"
            )
            break
        if request.failed_faulted and not request.dropped:
            failures.append(f"{where}: {request!r} failed but not dropped")
            break
    faults = sim.faults
    if faults is not None and faults.killed != faults.recovered + faults.lost:
        failures.append(
            f"{where}: killed {faults.killed} != recovered "
            f"{faults.recovered} + lost {faults.lost}"
        )
    for engine, busy in sim.busy_time_s.items():
        if busy > sim.duration_s + 1e-9:
            failures.append(
                f"{where}: engine {engine} busy {busy}s > {sim.duration_s}s"
            )


def inspect(execution: Execution) -> Outcome:
    """Check an execution's outputs and digest them.

    The digest covers every simulated request outcome (minus the
    process-global request id), engine record, admission and fault log,
    busy time and score, plus the export JSON where the workload exports.
    """
    digest = hashlib.sha256(execution.export)
    failures: list[str] = []
    counts = dict.fromkeys((
        "dispatches", "requests_offered", "completed", "fault_killed",
        "fault_lost", "cache_hits", "cache_lookups",
    ), 0)
    sessions: list[tuple[Any, float, str]] = []
    for n, report in enumerate(execution.reports):
        result = getattr(report, "result", None)
        if result is None:  # a single-session ScenarioReport
            sessions.append((report.simulation, report.overall, f"spec {n}"))
            continue
        sessions += [
            (r.simulation, r.overall,
             f"spec {n} session {r.simulation.session_id}")
            for r in report.session_reports
        ]
        # The system-wide record log against the per-session logs: two
        # record lists the simulator keeps apart.
        if not _close(result.total_energy_mj(),
                      sum(s.total_energy_mj() for s in result.sessions)):
            failures.append(f"spec {n}: energy != sum of session energies")
        for engine, busy in result.busy_time_s.items():
            if busy > result.duration_s + 1e-9:
                failures.append(f"spec {n}: engine {engine} busy {busy}s")
        if result.cost_stats is not None:
            counts["cache_hits"] += result.cost_stats.hits
            counts["cache_lookups"] += result.cost_stats.lookups
    for sim, overall, where in sessions:
        _check_session(sim, where, failures)
        digest.update(repr((
            sim.scenario.name, sim.session_id, sim.duration_s,
            sim.active_duration_s, sorted(sim.busy_time_s.items()),
            sorted(sim.spawned_frames.items()), sim.admission, sim.faults,
            overall,
        )).encode())
        if sim.requests:
            row = _outcome(type(sim.requests[0]))
            digest.update(repr([row(r) for r in sim.requests]).encode())
        digest.update(repr(sim.records).encode())
        counts["dispatches"] += len(sim.records)
        counts["requests_offered"] += len(sim.requests)
        counts["completed"] += sum(r.completed for r in sim.requests)
        if sim.faults is not None:
            counts["fault_killed"] += sim.faults.killed
            counts["fault_lost"] += sim.faults.lost
    if execution.export:
        exported = json.loads(execution.export)
        for (sim, _, where), row in zip(sessions, exported):
            if not _close(row["energy_mj"],
                          sum(r.energy_mj for r in sim.records)):
                failures.append(f"{where}: exported energy != record sum")
    counts.update(execution.counts)
    return Outcome(digest.hexdigest(), failures, counts)
