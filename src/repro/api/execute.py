"""The single execution funnel: ``execute(spec) -> Report``.

Every front end — the CLI, the eval figure drivers, the examples, the
benchmarks — runs through this module, and every run shape goes through
one runner, :func:`run_group`: it multiplexes a group of sessions onto
one system (:class:`~repro.runtime.MultiScenarioSimulator`) and scores
each session.  A single-scenario run is a one-session group
(:class:`~repro.core.ScenarioReport`), a session group is one group
(:class:`~repro.core.MultiSessionReport`), and the seven-scenario suite
is one one-session group per scenario
(:class:`~repro.core.BenchmarkReport`).  A caller holding a live
scenario object a spec cannot name (Figure 7's cascading-probability
variants, say) hands :func:`run_group` its
:class:`~repro.runtime.SessionSpec` values directly.

:func:`execute` compiles a :class:`~repro.api.RunSpec` into a
:class:`~repro.api.DispatchPlan` and :func:`execute_plan` runs it,
streaming :class:`~repro.api.events.ProgressEvent` records to pluggable
sinks; :attr:`RunSpec.mode` picks the report shape.

:class:`Experiment` executes spec lists — serially, or on a process
pool (``workers > 1``) for wall-clock parallelism.  Both paths produce
identical reports: every run prices through its own
:class:`~repro.costmodel.PriceTable` over the process-wide cost store
(so a 13-accelerator x 7-scenario sweep analyses each (model, engine
shape) pair once per process), and every spec carries its own seeds.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

from repro.core.aggregate import score_sessions
from repro.core.config import ScoreConfig, get_score_preset
from repro.core.report import (
    BenchmarkReport,
    MultiSessionReport,
    ScenarioReport,
)
from repro.hardware import AcceleratorSystem, build_accelerator
from repro.runtime import (
    FaultPlan,
    MultiScenarioSimulator,
    SessionSpec,
    make_scheduler,
)
from repro.workload import get_scenario

from .events import EventSink, ProgressEvent, emit
from .plan import (
    DispatchPlan,
    PlanSession,
    compile_plan,
    workload_fingerprint,
)
from .spec import RunSpec, Sweep

__all__ = [
    "Report",
    "execute",
    "execute_plan",
    "Experiment",
    "run_group",
]

#: What :func:`execute` returns, depending on :attr:`RunSpec.mode`.
Report = ScenarioReport | MultiSessionReport | BenchmarkReport


def run_group(
    sessions: Sequence[SessionSpec],
    system: AcceleratorSystem,
    *,
    scheduler: str = "latency_greedy",
    preemptive: bool = False,
    duration_s: float = 1.0,
    score: ScoreConfig | None = None,
    measured_quality: dict[str, float] | None = None,
    granularity: str = "model",
    segments_per_model: int = 2,
    dvfs_policy: str = "static",
    admission: str = "none",
    faults: FaultPlan | None = None,
    segment_plan: Mapping[str, Sequence[str]] | None = None,
) -> MultiSessionReport:
    """Multiplex a group of sessions onto one system and score each.

    The one runner behind every run shape.  The run prices through its
    own :class:`~repro.costmodel.PriceTable`, so its ``cost_stats``
    count its lookups alone.  ``preemptive=True`` asks a capable
    scheduler (edf, rate_monotonic) to displace resuming segment chains
    with more urgent waiting work at segment boundaries.
    ``dvfs_policy`` selects the runtime DVFS
    governor (``"static"``, ``"slack"``, ``"race_to_idle"``),
    ``admission`` the QoE admission controller (``"none"``, ``"shed"``,
    ``"degrade"``) and ``faults`` a compiled fault plan (``None`` runs
    fault-free).  ``segment_plan`` is a plan's segment-chain table; the
    run raises if it differs from the split the run derives.
    """
    result = MultiScenarioSimulator(
        sessions=list(sessions),
        system=system,
        scheduler=make_scheduler(
            scheduler, **({"preemptive": True} if preemptive else {})
        ),
        duration_s=duration_s,
        granularity=granularity,
        segments_per_model=segments_per_model,
        dvfs_policy=dvfs_policy,
        admission=admission,
        faults=faults,
        segment_plan=segment_plan,
    ).run()
    scores = score_sessions(result, score, measured_quality)
    reports = tuple(
        ScenarioReport(simulation=session, score=scored)
        for session, scored in zip(result.sessions, scores)
    )
    return MultiSessionReport(result=result, session_reports=reports)


def execute(
    spec: RunSpec,
    *,
    system: AcceleratorSystem | None = None,
    score: ScoreConfig | None = None,
    measured_quality: dict[str, float] | None = None,
    sinks: Sequence[EventSink] = (),
    index: int = 0,
    total: int = 1,
) -> Report:
    """Execute one spec and return its report.

    Compile-then-execute: the spec is compiled into a
    :class:`~repro.api.DispatchPlan` and handed to
    :func:`execute_plan` — the planner/executor seam.  The keyword
    overrides exist for callers that already hold richer objects than a
    spec can serialize — a pre-built ``system`` (ignoring
    ``spec.accelerator``/``spec.pes``; the plan is compiled against it,
    so fault schedules see its engine count) or an inline
    :class:`ScoreConfig` replacing the named preset.  The spec-only call
    is the fully-declarative path.
    """
    return execute_plan(
        compile_plan(spec, system=system),
        system=system, score=score,
        measured_quality=measured_quality,
        sinks=sinks, index=index, total=total,
    )


def _planned_sessions(
    rows: Sequence[PlanSession],
) -> list[SessionSpec]:
    """Plan rows as executor session specs (scenarios resolved by name)."""
    return [
        SessionSpec(
            session_id=row.session_id,
            scenario=get_scenario(row.scenario),
            seed=row.seed,
            frame_loss_probability=row.frame_loss,
            arrival_s=row.arrival_s,
            departure_s=row.departure_s,
        )
        for row in rows
    ]


def execute_plan(
    plan: DispatchPlan,
    *,
    system: AcceleratorSystem | None = None,
    score: ScoreConfig | None = None,
    measured_quality: dict[str, float] | None = None,
    sinks: Sequence[EventSink] = (),
    index: int = 0,
    total: int = 1,
) -> Report:
    """Execute a compiled :class:`~repro.api.DispatchPlan`.

    The executor half of the planner/executor split: consumes the
    plan's resolved session table, fault schedule, segment-chain table
    and policy bindings without re-deriving them from the spec.  A
    suite runs each scenario's row as its own one-session group at
    whole-model granularity; any other plan is one group.  A plan
    round-tripped through :meth:`DispatchPlan.to_json` /
    :meth:`DispatchPlan.from_json` replays to identical results.  The
    returned report carries the plan's fingerprints
    (``plan_fingerprint``, ``workload_fingerprint``), so export and the
    run database name the plan that ran without compiling it again.
    """
    if score is None:
        score = get_score_preset(plan.score_preset)
    if system is None:
        system = build_accelerator(plan.accelerator, plan.pes)
    label = plan.describe()
    emit(sinks, ProgressEvent(
        kind="spec_started", label=label, index=index, total=total,
    ))
    sessions = _planned_sessions(plan.sessions)
    # FaultPlan is frozen, so one resolved plan serves every group.
    shared: dict[str, Any] = {
        "scheduler": plan.scheduler,
        "duration_s": plan.duration_s,
        "score": score,
        "measured_quality": measured_quality,
        "dvfs_policy": plan.dvfs_policy,
        "admission": plan.admission,
        "faults": plan.fault_plan(),
    }
    stamp: dict[str, Any] = {
        "plan_fingerprint": plan.fingerprint,
        "workload_fingerprint": plan.workload_fingerprint,
    }
    report: Report
    if plan.mode == "suite":
        reports = []
        for i, (row, session) in enumerate(zip(plan.sessions, sessions)):
            scenario_report = run_group(
                [session], system, **shared
            ).session_reports[0]
            emit(sinks, ProgressEvent(
                kind="scenario_finished",
                label=row.scenario,
                index=i,
                total=len(sessions),
                payload={
                    "scenario": row.scenario,
                    "overall": scenario_report.overall,
                },
            ))
            reports.append(scenario_report)
        report = BenchmarkReport(
            system=system, scenario_reports=reports, **stamp
        )
    else:
        multi = run_group(
            sessions, system,
            preemptive=plan.preemptive,
            granularity=plan.granularity,
            segments_per_model=plan.segments_per_model,
            segment_plan=(
                plan.chain_codes() if plan.granularity == "segment" else None
            ),
            **shared,
        )
        if plan.mode == "single":
            report = replace(multi.session_reports[0], **stamp)
        else:
            report = replace(multi, **stamp)
    emit(sinks, ProgressEvent(
        kind="spec_finished", label=label, index=index, total=total,
        payload={"overall": _overall(report)},
    ))
    return report


def _overall(report: Report) -> float:
    """The headline score of any report shape (for progress payloads)."""
    if isinstance(report, BenchmarkReport):
        return report.xrbench_score
    if isinstance(report, MultiSessionReport):
        return report.mean_overall
    return report.overall


def _execute_worker(spec_dict: Mapping[str, Any]) -> Report:
    """Process-pool entry point: specs travel as plain dicts.

    The worker re-imports ``repro``, so registries re-bootstrap with the
    built-ins plus anything registered at import time; names registered
    dynamically in the parent resolve here only under the ``fork`` start
    method (see :meth:`Experiment.run`).
    """
    try:
        spec = RunSpec.from_dict(spec_dict)
    except KeyError as exc:
        raise KeyError(
            f"{exc.args[0]} (in a worker process: names registered at "
            f"runtime must come from a module imported in the worker, "
            f"or run with workers=1)"
        ) from None
    return execute(spec)


#: How many serial in-process attempts a sweep cell whose pool worker
#: died (e.g. OOM-killed) gets before the sweep fails.
WORKER_RETRY_LIMIT = 2


def _pooled_result(
    spec: RunSpec,
    future: Any,
    sinks: Sequence[EventSink],
    index: int,
    total: int,
) -> tuple[Report, int]:
    """One pooled cell's report, riding out worker-process deaths.

    A :class:`BrokenProcessPool` means the *worker* died (OOM killer,
    segfaulting native code, a crashed interpreter) — not that the spec
    is invalid — so the cell is retried serially, in this process, up to
    :data:`WORKER_RETRY_LIMIT` times before the sweep fails.  Spec-level
    exceptions (bad names, validation errors) are deterministic and
    re-raise immediately.  Returns ``(report, retries_used)``.
    """
    try:
        return future.result(), 0
    except BrokenProcessPool as exc:
        error: BaseException = exc
    for attempt in range(1, WORKER_RETRY_LIMIT + 1):
        emit(sinks, ProgressEvent(
            kind="spec_retried", label=spec.describe(),
            index=index, total=total,
            payload={"attempt": attempt, "error": type(error).__name__},
        ))
        try:
            return execute(spec), attempt
        except BrokenProcessPool as exc:  # pragma: no cover - defensive
            error = exc
    raise RuntimeError(
        f"spec {spec.describe()!r} failed {WORKER_RETRY_LIMIT + 1} "
        f"times (worker process died); giving up"
    ) from error


@dataclass(frozen=True)
class Experiment:
    """A named, ordered collection of specs executed as one unit.

    Serial runs (``workers=1``) share the process-wide cost store, so a
    later spec's run analyses no (model, engine shape) pair again.
    ``workers > 1`` fans specs out to a process pool; results are
    returned in spec order and are identical to serial execution (each
    spec is self-contained and carries its own seeds).  One caveat:
    scenario/scheduler/accelerator names registered dynamically at
    runtime resolve in pooled workers only under the ``fork`` process
    start method — under ``spawn``/``forkserver`` the worker re-imports
    built-ins only, so put custom registrations in an imported module or
    run serially.
    """

    name: str = "experiment"
    specs: tuple[RunSpec, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.specs, list):
            object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def from_sweep(cls, sweep: Sweep, name: str = "sweep") -> "Experiment":
        return cls(name=name, specs=tuple(sweep.expand()))

    def __len__(self) -> int:
        return len(self.specs)

    def run(
        self,
        *,
        workers: int = 1,
        sinks: Sequence[EventSink] = (),
    ) -> list[Report]:
        """Execute every spec; reports come back in spec order."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        specs = list(self.specs)
        total = len(specs)
        emit(sinks, ProgressEvent(
            kind="experiment_started", label=self.name, total=max(total, 1),
            payload={"specs": total, "workers": workers},
        ))
        retried_cells: list[str] = []
        plan_cache_hits: int | None = None
        if workers == 1 or total <= 1:
            # Plan cache keyed on the workload fingerprint (the spec
            # minus its seed): sweep cells sharing a workload reuse the
            # seed-independent compilation — notably the segment-chain
            # table — instead of recompiling it per cell.
            plans: dict[str, DispatchPlan] = {}
            plan_cache_hits = 0
            reports = []
            for i, spec in enumerate(specs):
                cached = plans.get(workload_fingerprint(spec))
                if cached is not None:
                    plan_cache_hits += 1
                plan = compile_plan(spec, reuse=cached)
                plans[plan.workload_fingerprint] = plan
                reports.append(execute_plan(
                    plan, sinks=sinks, index=i, total=total,
                ))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = []
                for i, spec in enumerate(specs):
                    # Mirror the serial event stream (workers cannot
                    # emit to parent-side sinks themselves; per-scenario
                    # suite events are the one omission).
                    emit(sinks, ProgressEvent(
                        kind="spec_started", label=spec.describe(),
                        index=i, total=total,
                    ))
                    futures.append(
                        pool.submit(_execute_worker, spec.to_dict())
                    )
                reports = []
                retried: list[str] = []
                for i, (spec, future) in enumerate(zip(specs, futures)):
                    report, retries = _pooled_result(
                        spec, future, sinks, i, total
                    )
                    if retries:
                        retried.append(spec.describe())
                    emit(sinks, ProgressEvent(
                        kind="spec_finished", label=spec.describe(),
                        index=i, total=total,
                        payload={"overall": _overall(report)},
                    ))
                    reports.append(report)
                retried_cells = retried
        finished_payload: dict[str, Any] = {"specs": total}
        if plan_cache_hits is not None:
            finished_payload["plan_cache_hits"] = plan_cache_hits
        if retried_cells:
            finished_payload["retried"] = retried_cells
        emit(sinks, ProgressEvent(
            kind="experiment_finished", label=self.name,
            index=max(total - 1, 0), total=max(total, 1),
            payload=finished_payload,
        ))
        return reports

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Experiment":
        return cls(
            name=data.get("name", "experiment"),
            specs=tuple(
                RunSpec.from_dict(d) for d in data.get("specs", ())
            ),
        )
