"""Declarative run API: one serializable entry point for all execution.

The paper's value is scenario diversity scored under one methodology;
this package makes the *run description* itself a first-class, frozen,
JSON-round-trippable value so every front end — the Python API, the
``xrbench`` CLI, the eval figure drivers, the benchmarks, and future
distributed workers — compiles through one funnel:

    RunSpec ── compile_plan() ──> DispatchPlan ── execute_plan() ──> Report
    Sweep ─ expand ─> [RunSpec] ── Experiment.run() ──> [Report]

``execute(spec)`` is compile-then-execute, and every run shape —
single scenario, session group, suite — goes through one runner,
:func:`run_group`.

Quickstart::

    from repro.api import RunSpec, Sweep, Experiment, execute

    # One run, declaratively.
    report = execute(RunSpec(scenario="ar_gaming", accelerator="J"))
    print(report.summary())

    # The same spec, over the wire and back, byte-identical results.
    spec = RunSpec.from_json(report_spec_json)

    # A cartesian sweep on two worker processes.
    sweep = Sweep(
        base=RunSpec(scenario="ar_gaming", duration_s=0.5),
        grid={"scenario": ("ar_gaming", "vr_gaming"),
              "accelerator": ("A", "J")},
    )
    reports = Experiment.from_sweep(sweep).run(workers=2)

Every name a spec mentions (scenario, scheduler, accelerator, score
preset) resolves through :mod:`repro.registry`, so third-party
registrations are addressable from JSON without code changes.  A live
scenario object a spec cannot name (a mutated variant) runs through
:func:`run_group` directly, as a :class:`repro.runtime.SessionSpec`.
"""

from .events import (
    CollectingSink,
    EventSink,
    ProgressEvent,
    StreamSink,
)
from .execute import (
    Experiment,
    Report,
    execute,
    execute_plan,
    run_group,
)
from .plan import (
    DispatchPlan,
    PlanSession,
    compile_plan,
    diff_plans,
    estimate_plan,
    workload_fingerprint,
)
from .spec import (
    ADMISSION_POLICIES,
    DVFS_POLICIES,
    FAULT_PROFILES,
    RunSpec,
    Sweep,
)

__all__ = [
    "ADMISSION_POLICIES",
    "CollectingSink",
    "DVFS_POLICIES",
    "DispatchPlan",
    "EventSink",
    "FAULT_PROFILES",
    "Experiment",
    "PlanSession",
    "ProgressEvent",
    "Report",
    "RunSpec",
    "StreamSink",
    "Sweep",
    "compile_plan",
    "diff_plans",
    "estimate_plan",
    "execute",
    "execute_plan",
    "run_group",
]
