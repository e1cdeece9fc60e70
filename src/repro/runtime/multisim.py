"""Multi-tenant execution engine: N scenario sessions on one system.

This is the runtime's one event loop.  :class:`MultiScenarioSimulator`
multiplexes any number of independent *sessions* — each a scenario
instance bound to its own seed (a distinct user), with its own load
generator, dependency tracker and QoE accounting — onto one shared
:class:`~repro.hardware.AcceleratorSystem` through a single event queue
and one shared waiting queue.  A single-scenario run is a one-session
group.

Key properties:

* **Segment-level dispatch** (``granularity="segment"``): every model
  whose graph admits residual-safe cuts is split into MAC-balanced
  segments (:func:`repro.runtime.segmentation.split_models`) when a run
  starts.  A dispatched request occupies an engine for one segment at
  a time, yielding it between segments; the next segment may
  resume on a *different* engine (finer engine packing).  In-flight
  requests resume with priority over fresh work, so on a single-engine
  system the schedule — and therefore every completion count — is
  identical to whole-model dispatch (per-layer costs are additive across
  split points).
* **Dynamic sessions**: every session has a lifetime window
  (``arrival_s`` to ``departure_s``) and an optional sequence of
  mid-run :class:`SessionPhase` activity changes.  SESSION_JOIN /
  SESSION_LEAVE / SESSION_PHASE events admit and retire sessions
  incrementally in the maintained waiting/fleet state: a joining
  session's request stream starts at its arrival, a departing session's
  waiting work is retired (marked dropped — it was streamed but will
  never run), and a phase change swaps the session's scenario from that
  instant, retiring the previous activity's waiting work and pending
  segment chains.  Work is only ever *dispatched* inside a session's
  active window; a segment already running on an engine is never aborted
  (it drains, but spawns no successors or cascades once the session is
  gone or has switched activity).  Static sessions
  (arrive at 0, never leave, no phases) take exactly the historical code
  path — the golden schedule checksums pin this bit-identically.
* **Deadline-aware segment preemption** (opt-in): a scheduler exposing
  ``preemptive=True`` and ``should_preempt(...)`` is consulted at each
  segment boundary before a waiting segment chain resumes; EDF and
  rate-monotonic can displace the stale chain when fresher work is more
  urgent.  Preemption points stay at segment boundaries — never
  mid-segment — preserving the paper's preemption-point semantics.
* **Per-session accounting**: each session yields its own
  :class:`~repro.runtime.simulator.SimulationResult`, so existing scoring
  (:func:`repro.core.aggregate.score_simulation`) applies per session
  unchanged; dynamic sessions carry their active window so QoE-style
  rates normalise by *active* (not streamed) duration.  System-level busy
  time and the execution-record log live on the
  :class:`MultiSessionResult`.
* **One price table per run**: each run collects the graph of every
  model its sessions stream (phases included) and of every piece
  :func:`~repro.runtime.segmentation.split_models` cuts, and builds one
  :class:`~repro.costmodel.PriceTable` from the process-wide cost store
  — every code it can dispatch, on every engine, at every DVFS point it
  can run.  The dispatch path reads prices by (code id, engine index,
  ladder position), and the scheduler and governor receive the table.
  Only a custom governor's point off that ladder is priced by key.  A
  run whose sessions bind one code to two different graphs is rejected
  before any event runs.
* **Slack-aware DVFS** (``dvfs_policy``): a
  :class:`~repro.runtime.governor.DvfsGovernor` consulted at every
  dispatch boundary may move the engine's operating point per piece of
  work — the paper's Appendix B.1 slack-into-energy trade, live.  The
  default ``"static"`` policy installs no governor at all, keeping the
  historical dispatch path bit-identical.  Frequency transitions are
  logged per engine and each :class:`ExecutionRecord` carries the point
  it ran at.
* **Determinism**: sessions are iterated in id order, merged queues are
  sorted with session-id tie-breaks, lifecycle events are scheduled at
  build time (so they outrank same-instant work events), and all
  randomness — including the churn plan — flows through the per-session
  seeds: two runs with the same specs are bit-identical.
* **Incremental dispatch state**: the event loop never recomputes what
  it can maintain.  Root arrivals stream from one cursor per session
  phase, so the event heap holds a few entries per session rather than
  the whole schedule, and a root's request is built only when it arrives
  (see :mod:`repro.runtime.events`).  The schedules of every window the
  run plans are built in one batch when it starts
  (:func:`~repro.workload.loadgen.root_schedules`).  Waiting work lives
  in one :class:`~repro.runtime.queues.WaitingQueue` updated on
  arrival/dispatch/retirement: a dict whose insertion order is the
  dispatch order, so a fresh frame superseding a waiting one costs two
  dict operations (work items are built — and their segment plans
  resolved — once per request, not once per scheduler call).  Whether a
  request belongs to its session's current phase is one comparison of
  its run-scoped id against the id the phase started at
  (``_SessionState.phase_ids``), not a per-request map.  Resumable
  segments sit in a heap; engine idleness is a set maintained by
  :class:`~repro.runtime.engine.EngineFleet` on begin/finish; and
  per-session record partitioning is a single pass at result-build time.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.costmodel import (
    DEFAULT_DVFS_POINTS,
    CostCacheStats,
    DvfsPoint,
    PriceTable,
)
from repro.costmodel.analysis import ordered_sum
from repro.hardware import AcceleratorSystem
from repro.nn import ModelGraph
from repro.workload import (
    Dependency,
    InferenceRequest,
    LoadGenerator,
    UsageScenario,
    scale_rates,
)
from repro.workload.loadgen import Schedule, root_schedules

from .admission import (
    DEGRADATION_LADDER,
    AdmissionController,
    AdmissionRecord,
    ControlAction,
    SessionView,
    make_admission,
)
from .engine import EngineFleet, ExecutionEngine, ExecutionRecord, WorkItem
from .events import EventKind, EventQueue
from .faults import FaultAction, FaultPlan, FaultRecord, make_fault_plan
from .governor import DispatchContext, DvfsGovernor, make_governor
from .queues import DependencyTracker, WaitingQueue
from .scheduler import Scheduler
from .segmentation import SegmentChain, dispatch_segment_code, split_models
from .simulator import SimulationResult

__all__ = [
    "GRANULARITIES",
    "SessionPhase",
    "SessionSpec",
    "MultiSessionResult",
    "MultiScenarioSimulator",
]

#: Dispatch granularities: whole models, or Herald-style segments.
GRANULARITIES: tuple[str, ...] = ("model", "segment")


@dataclass(frozen=True)
class SessionPhase:
    """A mid-run activity change: from ``at_s`` the session streams
    ``scenario`` instead of whatever it streamed before.

    Phase boundaries mirror the departure semantics: the session's
    waiting work *and* its pending segment chains are retired (the
    previous activity's frames are stale), while a segment already
    running on an engine finishes — its chain just stops at the next
    segment boundary.
    """

    at_s: float
    scenario: UsageScenario

    def __post_init__(self) -> None:
        if self.at_s <= 0:
            raise ValueError(
                f"phase transitions must happen mid-run (at_s > 0), "
                f"got {self.at_s}"
            )


@dataclass(frozen=True)
class SessionSpec:
    """One tenant: a scenario instance bound to a seed (a distinct user).

    ``arrival_s``/``departure_s`` bound the session's lifetime within the
    run: its request stream starts at arrival and no work of this session
    is dispatched at or after departure.  The defaults — arrive at 0,
    never depart, no phases — describe a static session and reproduce the
    historical behaviour exactly.  ``departure_s=None`` additionally
    means the session's in-flight work may drain past the streamed
    duration, as single-tenant runs always allowed.
    """

    session_id: int
    scenario: UsageScenario
    seed: int = 0
    frame_loss_probability: float = 0.0
    arrival_s: float = 0.0
    departure_s: float | None = None
    phases: tuple[SessionPhase, ...] = ()

    def __post_init__(self) -> None:
        if self.session_id < 0:
            raise ValueError(
                f"session_id must be >= 0, got {self.session_id}"
            )
        if self.arrival_s < 0:
            raise ValueError(
                f"arrival_s must be >= 0, got {self.arrival_s}"
            )
        if self.departure_s is not None and self.departure_s <= self.arrival_s:
            raise ValueError(
                f"session {self.session_id} departs at {self.departure_s} "
                f"but only arrives at {self.arrival_s}"
            )
        if isinstance(self.phases, list):
            object.__setattr__(self, "phases", tuple(self.phases))
        previous = self.arrival_s
        for phase in self.phases:
            if phase.at_s <= previous:
                raise ValueError(
                    f"session {self.session_id} phase transitions must be "
                    f"strictly increasing and after arrival "
                    f"({self.arrival_s}); got at_s={phase.at_s}"
                )
            previous = phase.at_s
        if self.departure_s is not None and previous >= self.departure_s:
            raise ValueError(
                f"session {self.session_id} has a phase transition at "
                f"{previous} at or after its departure ({self.departure_s})"
            )

    @property
    def dynamic(self) -> bool:
        """Whether this session has any lifetime dynamics at all."""
        return (
            self.arrival_s > 0
            or self.departure_s is not None
            or bool(self.phases)
        )


def _merged_scenario(scenarios: list[UsageScenario]) -> UsageScenario:
    """The union scenario a phased session is scored against.

    Models are deduplicated by code (first phase wins — the rates only
    feed per-phase load generation, which already ran); dependencies are
    deduplicated structurally.  Single-phase sessions pass through
    untouched.
    """
    if len(scenarios) == 1:
        return scenarios[0]
    models = {}
    for scenario in scenarios:
        for sm in scenario.models:
            models.setdefault(sm.code, sm)
    dependencies: dict[Dependency, None] = {}
    for scenario in scenarios:
        for dep in scenario.dependencies:
            dependencies.setdefault(dep)
    names = []
    for scenario in scenarios:
        if scenario.name not in names:
            names.append(scenario.name)
    return UsageScenario(
        name="+".join(names),
        description=(
            "phased session: " + ", then ".join(s.name for s in scenarios)
        ),
        models=tuple(models.values()),
        dependencies=tuple(dependencies),
    )


@dataclass
class _SessionState:
    """Mutable runtime state of one session.

    Waiting work is *not* per-session state: all sessions share the
    event loop's single :class:`~repro.runtime.queues.WaitingQueue`,
    which keys its drop policy on (session, model).  ``windows`` is the
    session's phase plan — ``(start_s, stop_s, scenario)`` triples
    covering its active lifetime; ``phase`` indexes the current one.
    ``loadgen``/``deps`` belong to the current phase and work in
    *phase-local* time (``offset_s`` translates to absolute run time).

    ``phase_ids[p]`` is the run's next request id when phase ``p`` was
    entered.  Requests are numbered from one increasing counter: a
    phase's roots take the block reserved on entering it, its dependents
    are numbered at spawn (only a current-phase completion spawns), and
    phases are entered in index order.  So a request of this session
    belongs to phase ``p`` exactly when ``phase_ids[p] <= request_id <
    phase_ids[p + 1]`` — to the current phase when ``request_id >=
    phase_ids[phase]`` — and completions of stale-phase work spawn no
    cascades.  ``cursor`` streams the current phase's roots (``None``
    when it has none).  ``planned`` yields the root schedule of each
    window planned when the run started, in window order; a degrade
    phase spliced in mid-run is not among them.
    """

    spec: SessionSpec
    windows: list[tuple[float, float, UsageScenario]]
    requests: list[InferenceRequest]
    busy_time_s: dict[int, float]
    spawned: dict[str, int]
    phase: int = -1
    loadgen: LoadGenerator | None = None
    deps: DependencyTracker | None = None
    offset_s: float = 0.0
    active: bool = False
    phase_ids: list[int] = field(default_factory=list)
    cursor: _ArrivalCursor | None = None
    planned: Iterator[Schedule] = field(default_factory=lambda: iter(()))

    @property
    def active_duration_s(self) -> float:
        return ordered_sum(stop - start for start, stop, _ in self.windows)


@dataclass(slots=True)
class _ArrivalCursor:
    """One session phase's root arrivals, streamed one event at a time.

    ``rows`` is the phase's root schedule (sorted, in phase-local time):
    a planned window's comes from the batch
    (:func:`~repro.workload.loadgen.root_schedules`) the run builds for
    every window it plans when it starts, a degrade phase's from a batch
    of one when the phase is entered.  Row ``k`` arrives at
    ``rows[k][0] + start_s`` as event ``first_seq + k`` and becomes
    request ``first_id + k``; both blocks are reserved when the phase is
    entered, so every arrival keeps the event key and request id it
    would have had if the whole schedule were pushed then.  ``index`` is the next row to pop (the
    one on the event heap), ``len(rows)`` once every row has popped, so
    ``rows[index:]`` are the rows still to come.

    A degrade action that cancels the phase uncounts those rows at once
    and marks the cursor ``retired``.  Its rows keep popping at their
    keys, because they are dispatch instants and bound the slack
    governor's event horizon, but they build no request.
    """

    rows: Schedule
    start_s: float
    first_seq: int
    first_id: int
    phase: int
    index: int = 0
    retired: bool = False


@dataclass
class MultiSessionResult:
    """Outcome of one multi-tenant run.

    ``sessions`` holds one :class:`SimulationResult` per session (indexed
    by session id), each scored on its own.
    ``busy_time_s`` is the *system-level* per-engine busy time, clipped
    to the streamed duration at accounting time — occupancy is bounded
    by the window, so utilization never reads past 100%; the drain tail
    of in-flight work remains visible in ``records``.
    """

    system: AcceleratorSystem
    duration_s: float
    sessions: list[SimulationResult]
    records: list[ExecutionRecord]
    busy_time_s: dict[int, float]
    cost_stats: CostCacheStats | None = None
    #: Lazy id index: (the sessions list it was built from, the index).
    #: ``init=False`` keeps ``dataclasses.replace`` from copying a cache
    #: built against another instance's sessions.
    _session_index: tuple[
        list[SimulationResult], dict[int, SimulationResult]
    ] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def num_sessions(self) -> int:
        return len(self.sessions)

    def session(self, session_id: int) -> SimulationResult:
        """The session with ``session_id`` — a dict probe, not a scan.

        The id index is built lazily and rebuilt whenever ``sessions``
        is a different list (or a different size) than the one it was
        built from; raises ``KeyError`` for unknown ids.
        """
        cached = self._session_index
        if (
            cached is None
            or cached[0] is not self.sessions
            or len(cached[1]) != len(self.sessions)
        ):
            index = {s.session_id: s for s in self.sessions}
            self._session_index = (self.sessions, index)
        else:
            index = cached[1]
        try:
            return index[session_id]
        except KeyError:
            raise KeyError(
                f"no session {session_id} in this result"
            ) from None

    def all_requests(self) -> list[InferenceRequest]:
        return [r for s in self.sessions for r in s.requests]

    def total_energy_mj(self) -> float:
        """Total energy spent across all sessions, in millijoules.

        Summed over the engine occupancy log, so it is *honest*: energy
        burnt on segments whose request was later dropped (a departed
        session's drained chain) is counted — the hardware spent it.
        """
        return ordered_sum(record.energy_mj for record in self.records)

    def system_utilization(self, sub_index: int) -> float:
        """Busy fraction of one engine across all sessions.

        Busy time is clipped to the streamed duration at accounting
        time, so the fraction is a true occupancy share (<= 1.0 up to
        rounding) even when in-flight work drains past the horizon.
        """
        return self.busy_time_s.get(sub_index, 0.0) / self.duration_s

    def mean_system_utilization(self) -> float:
        subs = self.system.num_subs
        return ordered_sum(
            self.system_utilization(i) for i in range(subs)
        ) / subs


@dataclass
class MultiScenarioSimulator:
    """Runs N concurrent scenario sessions on one accelerator system.

    Attributes:
        sessions: the tenant sessions to multiplex (ids must be unique).
            Each may carry an ``(arrival_s, departure_s)`` lifetime and
            mid-run :class:`SessionPhase` changes; the defaults are the
            static all-alive case.
        system: the shared accelerator system.
        scheduler: the dispatch policy, any object implementing the
            :class:`~repro.runtime.scheduler.Scheduler` protocol's
            ``select(now_s, waiting, idle_engines, system, prices)``
            (checked at construction).  It is called directly with the
            live waiting view and idle list.  If the policy keeps
            cross-run state it should expose ``reset()``, which is
            invoked at the start of every run so a shared instance gives
            order-independent results.
        duration_s: streamed seconds per session (must be positive).
        granularity: ``"model"`` (whole-model dispatch, the seed
            behaviour) or ``"segment"`` (split models yield engines at
            segment boundaries).
        segments_per_model: target segments per model under segment
            granularity; models without enough residual-safe cut points
            run whole.  Any count but the default 2 is rejected at model
            granularity, where nothing splits.
        engine_dvfs: optional per-engine *base* DVFS operating points.
        dvfs_policy: runtime DVFS governor policy — ``"static"`` (every
            dispatch at the engine's base point, the historical
            behaviour, pinned by the golden schedule checksums),
            ``"slack"`` (greedy slack-into-energy via
            :func:`repro.costmodel.best_point_for_slack`) or
            ``"race_to_idle"`` (always the fastest ladder point).  A
            :class:`~repro.runtime.governor.DvfsGovernor` instance may
            be supplied directly for custom policies.
        admission: QoE admission-control policy — ``"none"`` (the
            open-loop historical path, pinned by the golden schedule
            checksums), ``"shed"`` (reject/drop lowest-priority sessions
            under overload) or ``"degrade"`` (switch struggling
            sessions' models to cheaper variants mid-run).  An
            :class:`~repro.runtime.admission.AdmissionController`
            instance may be supplied directly for custom policies.
        faults: hardware-fault injection — ``"none"`` (no plan installed,
            the historical path, pinned by the golden schedule
            checksums), a profile name from
            :data:`~repro.runtime.faults.FAULT_PROFILES` (a seeded
            :class:`~repro.runtime.faults.FaultPlan` is built from
            ``fault_seed``), or a :class:`FaultPlan` instance.  Engine
            failures kill and requeue in-flight work under the plan's
            retry budget; thermal events clamp the DVFS ladder.
        fault_seed: seed for string-named fault profiles (ignored when a
            plan instance is supplied).
        segment_plan: optional precompiled segment-chain table — model
            code to the exact piece codes it splits into (a
            :class:`~repro.api.DispatchPlan`'s ``segment_chains``).
            When supplied, it must equal the table the run derives
            (:func:`~repro.runtime.segmentation.split_models`) as a
            whole; any difference raises, because plan/table drift must
            fail loudly, not reschedule quietly.
    """

    sessions: list[SessionSpec]
    system: AcceleratorSystem
    scheduler: Scheduler
    duration_s: float = 1.0
    granularity: str = "model"
    segments_per_model: int = 2
    engine_dvfs: dict[int, DvfsPoint] = field(default_factory=dict)
    dvfs_policy: str | DvfsGovernor = "static"
    admission: str | AdmissionController = "none"
    faults: str | FaultPlan | None = "none"
    fault_seed: int = 0
    segment_plan: Mapping[str, Sequence[str]] | None = None

    def __post_init__(self) -> None:
        if not self.sessions:
            raise ValueError("at least one session is required")
        if self.duration_s <= 0:
            raise ValueError(
                f"duration_s must be > 0, got {self.duration_s} "
                f"(a zero-length run has no streamed frames and no "
                f"utilization denominator)"
            )
        if not callable(getattr(self.scheduler, "select", None)):
            raise TypeError(
                f"scheduler {self.scheduler!r} does not implement "
                f"select(now_s, waiting, idle_engines, system, prices)"
            )
        ids = [spec.session_id for spec in self.sessions]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate session ids: {ids}")
        for spec in self.sessions:
            if spec.arrival_s >= self.duration_s:
                raise ValueError(
                    f"session {spec.session_id} arrives at "
                    f"{spec.arrival_s}, at or after the streamed duration "
                    f"{self.duration_s} — it would never be offered work"
                )
        if self.granularity not in GRANULARITIES:
            raise ValueError(
                f"granularity must be one of {GRANULARITIES}, "
                f"got {self.granularity!r}"
            )
        if self.segments_per_model < 1:
            raise ValueError(
                f"segments_per_model must be >= 1, "
                f"got {self.segments_per_model}"
            )
        if self.segments_per_model != 2 and self.granularity != "segment":
            # Only segment dispatch splits models: another count here
            # would be ignored, so it is rejected as RunSpec rejects it.
            raise ValueError(
                f"segments_per_model={self.segments_per_model} only acts "
                f"at segment granularity; set granularity='segment' or "
                f"drop it"
            )
        for index in self.engine_dvfs:
            if not 0 <= index < self.system.num_subs:
                raise ValueError(
                    f"engine_dvfs references engine {index}, but the "
                    f"system has {self.system.num_subs}"
                )
        # Resolve the governor eagerly so a bad policy name fails at
        # construction time; "static" resolves to no governor at all —
        # the exact historical dispatch path.
        if isinstance(self.dvfs_policy, str):
            self._governor = make_governor(self.dvfs_policy)
        else:
            self._governor = self.dvfs_policy
        # Same pattern for the QoE control plane: "none" resolves to no
        # controller, so no control ticks are ever scheduled and the
        # event stream is the exact historical one.
        if isinstance(self.admission, str):
            self._controller = make_admission(self.admission)
        else:
            self._controller = self.admission
        # And for fault injection: "none" resolves to no plan, so no
        # fault events are ever scheduled and the event stream is the
        # exact historical one.  Building the plan here also runs its
        # validation (including the all-engines-down capacity veto) at
        # construction — i.e. spec-compile — time.
        if isinstance(self.faults, str):
            self._fault_plan = make_fault_plan(
                self.faults,
                self.system.num_subs,
                self.duration_s,
                seed=self.fault_seed,
            )
        else:
            self._fault_plan = self.faults
            if (
                self._fault_plan is not None
                and self._fault_plan.num_engines != self.system.num_subs
            ):
                raise ValueError(
                    f"fault plan describes "
                    f"{self._fault_plan.num_engines} engine(s) but the "
                    f"system has {self.system.num_subs}"
                )

    # -- session lifetime planning -------------------------------------------

    def _phase_windows(
        self, spec: SessionSpec
    ) -> list[tuple[float, float, UsageScenario]]:
        """The session's active life as (start, stop, scenario) triples.

        Stops are clipped to the streamed duration; phases that start at
        or after the effective end are skipped (nothing would stream).
        """
        end = self.duration_s
        if spec.departure_s is not None:
            end = min(spec.departure_s, self.duration_s)
        starts = [spec.arrival_s] + [p.at_s for p in spec.phases]
        scenarios = [spec.scenario] + [p.scenario for p in spec.phases]
        windows = []
        for i, (start, scenario) in enumerate(zip(starts, scenarios)):
            stop = starts[i + 1] if i + 1 < len(starts) else end
            stop = min(stop, end)
            if start >= stop:
                continue
            windows.append((start, stop, scenario))
        return windows

    # -- segment planning ----------------------------------------------------

    def _plan_segments(
        self,
    ) -> tuple[dict[str, SegmentChain], dict[str, ModelGraph]]:
        """Per-model compile-time segment chains, and the graphs to price.

        Every model a session can stream gets a chain — phase scenarios'
        models too, as a session may only stream them mid-run — keyed in
        first-seen order.  Each is a
        :class:`~repro.runtime.segmentation.SegmentChain`: the piece
        codes plus prebuilt suffix views with per-(engine, ladder
        position) latency memos, resolved once here instead of per
        request.  Under segment granularity the models
        :func:`~repro.runtime.segmentation.split_models` splits get
        their pieces' chains; every other model is dispatched whole.

        The graphs map every code the run can dispatch to its layer
        graph: the models in first-seen order, then the pieces.  A code
        bound to two different graphs raises ``ValueError`` naming it,
        since the run could price only one of them.
        """
        scenarios = []
        for spec in self.sessions:
            scenarios.append(spec.scenario)
            scenarios.extend(p.scenario for p in spec.phases)
        graphs: dict[str, ModelGraph] = {}

        def bind(code: str, graph: ModelGraph) -> None:
            known = graphs.setdefault(code, graph)
            if known is not graph and known != graph:
                raise ValueError(
                    f"task code {code!r} is bound to two different layer "
                    f"graphs in one run; the run can price only one"
                )

        for scenario in scenarios:
            for sm in scenario.models:
                bind(sm.code, sm.model.graph)
        split = (
            split_models(scenarios, self.segments_per_model)
            if self.granularity == "segment" else {}
        )
        codes = {
            code: tuple(
                dispatch_segment_code(code, idx, len(pieces))
                for idx in range(len(pieces))
            )
            for code, pieces in split.items()
        }
        if self.segment_plan is not None:
            planned = {
                code: tuple(pieces)
                for code, pieces in self.segment_plan.items()
            }
            if planned != codes:
                raise ValueError(
                    f"segment plan drift: the plan records {planned} but "
                    f"the run splits {codes}"
                )
        chains = {}
        for code in list(graphs):
            pieces = split.get(code)
            if pieces is None:
                chains[code] = SegmentChain(code, (None,))
                continue
            chains[code] = SegmentChain(code, codes[code])
            for vcode, piece in zip(codes[code], pieces):
                bind(vcode, piece)
        return chains, graphs

    # -- the event loop ------------------------------------------------------

    def run(self) -> MultiSessionResult:
        # Stateful policies (rotors, inferred periods) start every run
        # clean, so back-to-back runs through one shared instance are
        # order-independent.
        scheduler = self.scheduler
        reset = getattr(scheduler, "reset", None)
        if callable(reset):
            reset()
        preemptive = bool(getattr(scheduler, "preemptive", False))
        chains, graphs = self._plan_segments()

        governor = self._governor
        fleet = EngineFleet([
            ExecutionEngine(
                sub=sub,
                dvfs=self.engine_dvfs.get(sub.index),
                # Busy-time charges clip to the streamed horizon, so the
                # drain tail of in-flight work cannot push
                # window-normalised utilization past 100%.
                horizon_s=self.duration_s,
            )
            for sub in self.system.subs
        ])
        idle = fleet.idle  # live, index-ordered; maintained by the fleet
        engines = fleet.engines
        fplan = self._fault_plan
        # The throttle clamp points come off the governor's ladder when
        # one is installed, so governed and clamped choices price the
        # same points.
        thermal_ladder = tuple(
            getattr(governor, "points", DEFAULT_DVFS_POINTS)
        )
        # One price table for the run: every code the run can dispatch,
        # on every engine, at every point the run can price — nominal,
        # the governor's ladder, the engines' base points and the
        # thermal clamp points.  The dispatch path reads it by (code id,
        # engine index, ladder position): a work item's code id is its
        # chain's ``ids`` entry, and ``positions[i]`` is engine i's
        # effective point, resolved here and again whenever a throttle
        # fires or lifts.
        points = [*getattr(governor, "points", ())]
        points.extend(engine.dvfs for engine in engines)
        if fplan is not None and fplan.has_thermal:
            points.extend(thermal_ladder)
        prices = PriceTable(self.system, points, graphs)
        for chain in chains.values():
            chain.ids = tuple(
                prices.ids[code or chain.model_code] for code in chain.codes
            )
        base_positions = [prices.position(e.dvfs) for e in engines]
        positions = list(base_positions)
        #: The governor's view of each dispatch instant: one object per
        #: run, updated in place (see DispatchContext).
        context = DispatchContext()
        events = EventQueue()
        states: dict[int, _SessionState] = {}
        specs = sorted(self.sessions, key=lambda s: s.session_id)
        # Non-empty by construction: arrival_s < duration_s is
        # validated, and departures/phases are validated after it.
        all_windows = [self._phase_windows(spec) for spec in specs]
        # Every planned window's root schedule, in one batch.
        schedules = iter(root_schedules([
            (scenario, stop - start, spec.seed, spec.frame_loss_probability)
            for spec, windows in zip(specs, all_windows)
            for start, stop, scenario in windows
        ]))
        for spec, windows in zip(specs, all_windows):
            states[spec.session_id] = _SessionState(
                spec=spec,
                windows=windows,
                requests=[],
                busy_time_s={i: 0.0 for i in range(self.system.num_subs)},
                spawned={},
                planned=iter([next(schedules) for _ in windows]),
            )
            # Lifecycle events are scheduled up front: their low sequence
            # numbers give them priority over same-instant work events.
            events.push(
                windows[0][0], EventKind.SESSION_JOIN,
                session_id=spec.session_id,
            )
            for start, _, _ in windows[1:]:
                events.push(
                    start, EventKind.SESSION_PHASE,
                    session_id=spec.session_id,
                )
            if spec.departure_s is not None:
                events.push(
                    min(spec.departure_s, self.duration_s),
                    EventKind.SESSION_LEAVE,
                    session_id=spec.session_id,
                )

        # The QoE control plane: per-session decision logs, the phases
        # cancelled by degrade actions (their dependents still to arrive
        # are uncounted, not charged as drops), and each session's
        # planned-activity baseline further degradation scales from.
        # All empty — and control ticks unscheduled — when no controller
        # is installed, leaving the historical event stream untouched.
        controller = self._controller
        control: dict[int, AdmissionRecord] = {}
        cancelled: dict[int, set[int]] = {}
        degrade_base: dict[int, UsageScenario | None] = {}
        if controller is not None:
            creset = getattr(controller, "reset", None)
            if callable(creset):
                creset()
            policy = (
                self.admission
                if isinstance(self.admission, str)
                else type(controller).__name__
            )
            for sid in states:
                control[sid] = AdmissionRecord(policy=policy)
                cancelled[sid] = set()
                degrade_base[sid] = None
            # Ticks are scheduled up front like lifecycle events (so
            # they outrank same-instant work events); they are
            # system-wide — the handler ignores the tagging session.
            tick_sid = min(states)
            tick = 1
            while tick * controller.period_s < self.duration_s:
                events.push(
                    tick * controller.period_s,
                    EventKind.CONTROL_TICK,
                    session_id=tick_sid,
                )
                tick += 1

        # Fault injection: the plan's events are scheduled up front like
        # lifecycle events (they are system-wide — the handler ignores
        # the tagging session).  All of this state stays empty — and no
        # fault events are ever scheduled — when the profile is "none",
        # leaving the historical event stream untouched.
        faults_log: dict[int, FaultRecord] = {}
        retry_items: dict[int, WorkItem] = {}
        retry_counts: dict[int, int] = {}
        kill_times: dict[int, float] = {}
        thermal_caps: dict[tuple[float, int], float] = {}
        if fplan is not None:
            fault_kinds = {
                "engine_fail": EventKind.ENGINE_FAIL,
                "engine_recover": EventKind.ENGINE_RECOVER,
                "thermal_throttle": EventKind.THERMAL_THROTTLE,
                "thermal_release": EventKind.THERMAL_RELEASE,
            }
            for sid in states:
                faults_log[sid] = FaultRecord(profile=fplan.profile)
            fault_sid = min(states)
            for fe in fplan.events:
                events.push(
                    fe.time_s,
                    fault_kinds[fe.kind],
                    sub_index=fe.engine_index,
                    session_id=fault_sid,
                )
                if fe.max_frequency_scale is not None:
                    thermal_caps[(fe.time_s, fe.engine_index)] = (
                        fe.max_frequency_scale
                    )

        #: In-flight requests waiting for their next segment, as a heap
        #: ordered like the waiting queue (oldest data first, session and
        #: model tie-breaks, then insertion order).  Resumed ahead of
        #: fresh work (a started request is never dropped mid-flight —
        #: only a session departure retires its chain), which also makes
        #: single-engine segment runs schedule-identical to whole-model
        #: runs.
        resumable: list[tuple[float, int, str, int, WorkItem]] = []
        resume_seq = itertools.count()

        #: Every session's waiting work, maintained in dispatch order on
        #: offer/take — schedulers read this view directly.
        waiting = WaitingQueue()
        #: Request ids are run-scoped: every request the run creates,
        #: root or dependent, takes the next id from this one counter.
        request_ids = itertools.count()

        def enter_phase(state: _SessionState, phase: int,
                        rows: Schedule | None) -> None:
            """Swap the session onto phase ``phase`` and stream its roots.

            ``rows`` is the phase's root schedule when the run planned
            the phase (``state.planned``), ``None`` for a degrade phase,
            whose schedule is built here as a batch of one.  The phase's
            roots get an arrival cursor holding blocks of event sequence
            numbers and request ids, one per root; only the first root
            goes on the heap (see :class:`_ArrivalCursor`).  The load
            generator works in phase-local time; the cursor shifts each
            root to absolute run time as it arrives.
            """
            nonlocal request_ids
            start, stop, scenario = state.windows[phase]
            loadgen = LoadGenerator(
                scenario,
                stop - start,
                state.spec.seed,
                frame_loss_probability=state.spec.frame_loss_probability,
            )
            state.phase = phase
            state.loadgen = loadgen
            state.deps = DependencyTracker(scenario)
            state.offset_s = start
            for sm in scenario.models:
                state.spawned.setdefault(sm.code, 0)
            for code, count in loadgen.expected_frames().items():
                state.spawned[code] += count
            if rows is None:
                rows = loadgen.root_schedule()
            first_id = next(request_ids)
            request_ids = itertools.count(first_id + len(rows))
            state.phase_ids.append(first_id)
            state.cursor = None
            if rows:
                cursor = state.cursor = _ArrivalCursor(
                    rows, start, events.reserve(len(rows)), first_id, phase
                )
                events.push_reserved(
                    rows[0][0] + start, cursor.first_seq, EventKind.ARRIVAL,
                    cursor, session_id=state.spec.session_id,
                )

        def retire_waiting(session_id: int,
                           include_resumable: bool) -> None:
            """Purge a departed/phase-changed session's pending work."""
            waiting.purge_session(session_id)
            if not include_resumable:
                return
            kept = [
                entry for entry in resumable
                if entry[4].session_id != session_id
            ]
            if len(kept) != len(resumable):
                for entry in resumable:
                    if entry[4].session_id == session_id:
                        entry[4].request.dropped = True
                resumable[:] = kept
                heapq.heapify(resumable)

        def cheapest_latency(code: str) -> float:
            """A task's best-engine latency at the engines' base points."""
            code_id = prices.ids[code]
            return min(
                prices.cost(code_id, index, base_positions[index]).latency_s
                for index in range(len(engines))
            )

        def apply_degrade(action: ControlAction) -> None:
            """Enter a degraded phase from the control instant.

            PR 4's SESSION_PHASE swap machinery is the mechanism: the
            session's current activity window is truncated at the
            action time, a window streaming the rate-scaled variant of
            the *planned* activity is spliced in after it, and the
            session enters it like any phase change.  The truncated
            phase's not-yet-arrived tail is uncounted rather than
            charged as drops — the degraded stream replaces it from this
            instant, keeping QoE denominators honest.  Its root rows
            still to come are uncounted here, in one pass, and its
            retired cursor streams them on as bare time markers; the
            phase is marked cancelled so its dependents still to arrive
            are uncounted as they do.
            """
            sid = action.session_id
            state = states[sid]
            now_s = action.time_s
            start, stop, current = state.windows[state.phase]
            if stop - now_s <= 0:
                return
            base = degrade_base[sid]
            if base is None:
                base = degrade_base[sid] = current
            ladder = getattr(controller, "ladder", DEGRADATION_LADDER)
            degraded = scale_rates(
                base, ladder[action.level].rate_factor
            )
            state.windows[state.phase] = (start, now_s, current)
            state.windows.insert(state.phase + 1, (now_s, stop, degraded))
            cancelled[sid].add(state.phase)
            cursor = state.cursor
            if cursor is not None:
                spawned = state.spawned
                for _, code, _, _ in cursor.rows[cursor.index:]:
                    spawned[code] -= 1
                cursor.retired = True
            retire_waiting(sid, include_resumable=True)
            enter_phase(state, state.phase + 1, None)

        def fresh_item(request: InferenceRequest,
                       session_id: int) -> WorkItem:
            """The first schedulable piece of a newly-arrived request.

            Segment plans are resolved exactly once, here, and ride on
            the work item — as its compile-time chain — for the rest of
            the request's life: successors, prices and governor
            reservations index the chain instead of re-probing the plan
            table.
            """
            chain = chains[request.model_code]
            codes = chain.codes
            return WorkItem(
                request, session_id, 0, len(codes), codes[0], chain
            )

        def start(item: WorkItem, engine: ExecutionEngine,
                  now_s: float) -> None:
            state = states[item.session_id]
            request = item.request
            index = engine.index
            if governor is None:
                cost = prices.cost(
                    item.chain.ids[item.segment_index], index,
                    positions[index],
                )
                end_s = fleet.begin(engine, item, now_s, cost)
            else:
                # The dispatch boundary is the governor's decision
                # point: it may move the engine's operating point for
                # this piece of work.  The remaining chain is the item's
                # prebuilt suffix view, whose latency memo the governor
                # prices its reservations from.  The returned point is
                # priced at its ladder position (resolved by identity);
                # a point off the ladder is priced by key.
                context.contended = bool(waiting) or bool(resumable)
                context.next_event_s = events.next_time_s
                context.has_dependents = (
                    state.deps is not None
                    and request.model_code in state.deps.upstream
                )
                point = governor.select(
                    now_s, item, engine,
                    item.chain.suffixes[item.segment_index + 1],
                    self.system, prices, context,
                )
                at = prices.position(point)
                if at is None:
                    cost = prices.engine_cost(item.code, index, point)
                else:
                    cost = prices.cost(
                        item.chain.ids[item.segment_index], index, at
                    )
                end_s = fleet.begin(engine, item, now_s, cost, dvfs=point)
            if item.is_first_segment:
                request.start_time_s = now_s
                request.energy_mj = 0.0
            request.energy_mj += cost.energy_mj
            # A single scalar cannot express segment migration: this ends
            # up as the *final* segment's engine.  Exact per-segment
            # attribution lives in the ExecutionRecords.
            request.accelerator_id = index
            # Per-session busy time clips to the session's active span
            # (arrival to departure/horizon): the drain tail past it is
            # real execution (the records keep it) but must not push the
            # session's window-normalised utilization past 100%.
            active_end_s = state.windows[-1][1]
            state.busy_time_s[index] += max(
                0.0, min(end_s, active_end_s) - now_s
            )
            if item.is_final_segment:
                request.end_time_s = end_s
            events.push(
                end_s,
                EventKind.COMPLETION,
                request,
                index,
                session_id=item.session_id,
            )

        def best_engine_for(item: WorkItem) -> ExecutionEngine:
            # Single idle engine: nothing to compare.  Otherwise each
            # idle engine is priced at its own effective point (its base
            # point, or its thermal clamp while throttled); the lowest
            # latency wins and ties go to the lowest index.
            if len(idle) == 1:
                return idle[0]
            return prices.fastest(
                item.chain.ids[item.segment_index], idle, positions
            )

        def kill(item: WorkItem, engine_index: int, now_s: float,
                 planned_end_s: float, unspent_mj: float) -> None:
            """Undo a killed dispatch's accounting and arm its retry.

            The engine-side rollback (truncated record, engine busy
            time) already happened in :meth:`ExecutionEngine.abort`;
            this unwinds what :func:`start` charged at dispatch — the
            session busy time and energy of the unexecuted remainder,
            and the optimistic ``end_time_s`` of a final segment — then
            either schedules a deterministic backoff retry or abandons
            the request as ``failed_faulted`` when the budget is spent.
            """
            sid = item.session_id
            state = states[sid]
            request = item.request
            rid = request.request_id
            # Roll back the session busy-time charge of [now, planned
            # end], clipped to the active window exactly like start()
            # clipped the original charge.
            active_end_s = state.windows[-1][1]
            state.busy_time_s[engine_index] -= max(
                0.0,
                min(planned_end_s, active_end_s)
                - min(now_s, active_end_s),
            )
            if request.energy_mj is not None:
                request.energy_mj -= unspent_mj
            if item.is_final_segment:
                # start() stamped the planned completion; it never
                # happened.
                request.end_time_s = None
            request.faulted = True
            log = faults_log[sid]
            if rid not in kill_times:
                # ``killed`` counts requests, like ``recovered`` and
                # ``lost``: a retry killed again is not a second one.
                kill_times[rid] = now_s
                log.killed += 1
            attempt = retry_counts.get(rid, 0)
            log.actions.append(FaultAction(
                now_s, "kill", engine_index, rid, request.model_code,
                attempt=attempt,
            ))
            if attempt >= fplan.retry_budget:
                request.dropped = True
                request.failed_faulted = True
                log.actions.append(FaultAction(
                    now_s, "exhausted", engine_index, rid,
                    request.model_code, attempt=attempt,
                ))
                return
            retry_counts[rid] = attempt + 1
            request.fault_retries = attempt + 1
            log.retries += 1
            delay_s = round(fplan.backoff_s * (2 ** attempt), 9)
            retry_items[rid] = item
            push(
                round(now_s + delay_s, 9),
                EventKind.WORK_RETRY,
                request,
                session_id=sid,
            )
            log.actions.append(FaultAction(
                now_s, "retry_scheduled", engine_index, rid,
                request.model_code, attempt=attempt + 1,
            ))

        def dispatch(now_s: float) -> None:
            # Pass 1: resume in-flight segmented requests, oldest first.
            # A preemptive scheduler is consulted at each such segment
            # boundary and may displace the resuming chain with fresher,
            # more urgent waiting work (never mid-segment).
            while resumable and idle:
                if preemptive and waiting and scheduler.should_preempt(
                    now_s, resumable[0][4], waiting, self.system, prices
                ):
                    choice = scheduler.select(
                        now_s, waiting, idle, self.system, prices
                    )
                    if choice is not None:
                        item, engine = choice
                        if not engine.idle:
                            raise ValueError(
                                f"scheduler chose busy engine "
                                f"{engine.index} "
                                f"(idle: {[e.index for e in idle]})"
                            )
                        waiting.take(item)
                        start(item, engine, now_s)
                        continue
                item = heapq.heappop(resumable)[4]
                start(item, best_engine_for(item), now_s)
            # Pass 2: let the scheduler fill remaining idle engines.
            while idle:
                choice = scheduler.select(
                    now_s, waiting, idle, self.system, prices
                )
                if choice is None:
                    return
                item, engine = choice
                if not engine.idle:
                    raise ValueError(
                        f"scheduler chose busy engine {engine.index} "
                        f"(idle: {[e.index for e in idle]})"
                    )
                waiting.take(item)
                start(item, engine, now_s)

        # The drain loop below batches all events sharing the minimum
        # timestamp: one unconditional dispatch pass closes each batch,
        # and *between* batch members a dispatch runs only when it
        # provably is not a no-op — an engine is idle AND work could
        # start.  When no engine is idle both dispatch passes fall
        # through their ``idle`` guards without consulting the policy;
        # when nothing waits and nothing resumes, pass 1 is empty and
        # pass 2's scheduler call short-circuits on the empty waiting
        # view before touching any state.  Either way the skipped call
        # would have changed nothing, so schedules stay bit-identical to
        # the dispatch-per-event formulation (the golden checksums pin
        # this, including churned/preemptive/governed cells).
        ARRIVAL = EventKind.ARRIVAL
        COMPLETION = EventKind.COMPLETION
        SESSION_JOIN = EventKind.SESSION_JOIN
        SESSION_PHASE = EventKind.SESSION_PHASE
        CONTROL_TICK = EventKind.CONTROL_TICK
        ENGINE_FAIL = EventKind.ENGINE_FAIL
        ENGINE_RECOVER = EventKind.ENGINE_RECOVER
        THERMAL_THROTTLE = EventKind.THERMAL_THROTTLE
        THERMAL_RELEASE = EventKind.THERMAL_RELEASE
        WORK_RETRY = EventKind.WORK_RETRY
        heap = events._heap  # drained via pop_fields; peeked for batching
        pop_fields = events.pop_fields
        push = events.push
        push_reserved = events.push_reserved
        finish = fleet.finish

        while heap:
            now_s, _, kind, request, sub_index, session_id = pop_fields()
            while True:
                if kind is ARRIVAL:
                    if request.__class__ is _ArrivalCursor:
                        # A streamed root: put the cursor's next row on
                        # the heap under its reserved sequence number,
                        # then build this row's request.  A retired
                        # cursor's rows were uncounted when a degrade
                        # cancelled their phase (see apply_degrade): they
                        # pop only as time markers and build nothing.
                        cursor = request
                        k = cursor.index
                        rows = cursor.rows
                        cursor.index = after = k + 1
                        if after < len(rows):
                            push_reserved(
                                rows[after][0] + cursor.start_s,
                                cursor.first_seq + after, ARRIVAL, cursor,
                                None, session_id,
                            )
                        if not cursor.retired:
                            state = states[session_id]
                            _, code, frame, deadline_s = rows[k]
                            request = InferenceRequest(
                                code, frame, now_s,
                                deadline_s + cursor.start_s,
                                cursor.first_id + k,
                            )
                            state.requests.append(request)
                            if (
                                not state.active
                                or cursor.phase != state.phase
                            ):
                                # Streamed, but the session departed (or
                                # switched activity) before the frame
                                # could even queue: it counts against QoE
                                # like any other drop.
                                request.dropped = True
                            else:
                                waiting.offer(fresh_item(request, session_id))
                    else:
                        # A dependent: numbered at spawn, inside its
                        # phase's id range.
                        state = states[session_id]
                        phase = bisect_right(
                            state.phase_ids, request.request_id
                        ) - 1
                        if (
                            controller is not None
                            and phase in cancelled[session_id]
                        ):
                            # The frame belongs to an activity a degrade
                            # action truncated: its tail was *replaced*
                            # by the degraded stream, so it was never
                            # offered — uncount it instead of charging a
                            # drop.
                            state.spawned[request.model_code] -= 1
                        elif not state.active or phase != state.phase:
                            # Dropped, like a root of a departed session
                            # or a switched activity.
                            state.requests.append(request)
                            request.dropped = True
                        else:
                            state.requests.append(request)
                            waiting.offer(fresh_item(request, session_id))
                elif kind is COMPLETION and fplan is not None and (
                    engines[sub_index].current is None
                    or engines[sub_index].current.request is not request
                    or engines[sub_index].busy_until_s != now_s
                ):
                    # Stale completion: the dispatch that scheduled this
                    # event was killed by an engine failure (and the
                    # engine may since have recovered onto other work),
                    # so there is nothing to finish.  Genuine
                    # completions always see their own item with
                    # busy_until_s at exactly this instant — the event
                    # time IS the float begin() returned.
                    pass
                elif kind is COMPLETION:
                    state = states[session_id]
                    item = finish(sub_index, now_s)
                    if item.request is not request:
                        raise AssertionError(
                            "completion event does not match active "
                            "inference"
                        )
                    if item.is_final_segment:
                        if controller is not None:
                            # The controller's deadline-outcome feed:
                            # every finished request, stale or not —
                            # the hardware ran it, the user saw it.
                            controller.observe(
                                session_id,
                                request.end_time_s > request.deadline_s,
                            )
                        stale = (
                            not state.active
                            or request.request_id
                            < state.phase_ids[state.phase]
                        )
                        if not stale:
                            for dep in state.deps.downstream_of(
                                request.model_code
                            ):
                                child = state.loadgen.spawn_dependent(
                                    dep,
                                    request.model_frame,
                                    now_s - state.offset_s,
                                )
                                if child is not None:
                                    child.request_time_s += state.offset_s
                                    child.deadline_s += state.offset_s
                                    child.request_id = next(request_ids)
                                    # Triggered work is "streamed" for
                                    # QoE purposes the moment it spawns.
                                    state.spawned[child.model_code] += 1
                                    push(
                                        child.request_time_s,
                                        ARRIVAL,
                                        child,
                                        session_id=session_id,
                                    )
                    elif (
                        state.active
                        and request.request_id
                        >= state.phase_ids[state.phase]
                    ):
                        successor = item.successor(
                            item.chain.codes[item.segment_index + 1]
                        )
                        heapq.heappush(resumable, (
                            request.request_time_s,
                            session_id,
                            request.model_code,
                            next(resume_seq),
                            successor,
                        ))
                    else:
                        # The session left — or switched activity — while
                        # this segment ran: the chain stops here (no
                        # stale dispatch) and the request never
                        # completes.
                        request.dropped = True
                elif kind is SESSION_JOIN:
                    state = states[session_id]
                    if controller is None:
                        state.active = True
                    else:
                        action = controller.admit(now_s, session_id)
                        if action is None:
                            state.active = True
                        else:
                            # Rejected at the door: the user is still
                            # present (the stream counts against QoE
                            # as drops) but nothing is ever dispatched.
                            log = control[session_id]
                            log.shed = True
                            log.shed_reason = action.reason
                            log.actions += (action,)
                    enter_phase(state, 0, next(state.planned))
                elif kind is SESSION_PHASE:
                    state = states[session_id]
                    if state.active:
                        retire_waiting(session_id, include_resumable=True)
                        enter_phase(
                            state, state.phase + 1, next(state.planned)
                        )
                        if controller is not None:
                            # A planned activity change starts at full
                            # fidelity: the new scenario was never
                            # degraded (the action log keeps history).
                            degrade_base[session_id] = None
                            control[session_id].degradation_level = 0
                elif kind is CONTROL_TICK:
                    views = [
                        SessionView(
                            session_id=sid,
                            level=control[sid].degradation_level,
                            scenario=(
                                degrade_base[sid]
                                if degrade_base[sid] is not None
                                else s.windows[s.phase][2]
                            ),
                            remaining_s=s.windows[s.phase][1] - now_s,
                        )
                        for sid, s in sorted(states.items())
                        if s.active
                    ]
                    for action in controller.decide(
                        now_s, views, cheapest_latency, len(engines)
                    ):
                        log = control[action.session_id]
                        log.actions += (action,)
                        if action.kind == "shed":
                            log.shed = True
                            log.shed_reason = action.reason
                            victim = states[action.session_id]
                            victim.active = False
                            retire_waiting(
                                action.session_id, include_resumable=True
                            )
                        elif action.kind == "degrade":
                            log.degradation_level = action.level
                            apply_degrade(action)
                elif kind is ENGINE_FAIL:
                    killed = fleet.fail(sub_index, now_s)
                    if killed is not None:
                        k_item, planned_end_s, unspent_mj = killed
                        kill(k_item, sub_index, now_s, planned_end_s,
                             unspent_mj)
                elif kind is ENGINE_RECOVER:
                    fleet.recover(sub_index, now_s)
                elif kind is THERMAL_THROTTLE:
                    engine = engines[sub_index]
                    engine.throttle(
                        now_s,
                        thermal_caps[(now_s, sub_index)],
                        thermal_ladder,
                    )
                    positions[sub_index] = prices.position(
                        engine.effective_dvfs
                    )
                elif kind is THERMAL_RELEASE:
                    engines[sub_index].release_thermal(now_s)
                    positions[sub_index] = base_positions[sub_index]
                elif kind is WORK_RETRY:
                    item = retry_items.pop(request.request_id, None)
                    if item is not None:
                        state = states[session_id]
                        log = faults_log[session_id]
                        rid = request.request_id
                        if (
                            not state.active
                            or rid < state.phase_ids[state.phase]
                        ):
                            # The session departed or switched activity
                            # while the backoff timer ran: nothing to
                            # requeue into.
                            request.dropped = True
                            request.failed_faulted = True
                            log.actions.append(FaultAction(
                                now_s, "session_gone", -1, rid,
                                request.model_code,
                                attempt=retry_counts.get(rid, 0),
                            ))
                        elif waiting.peek(
                            session_id, request.model_code
                        ) is not None:
                            # A fresher frame of the same model is
                            # already waiting: the freshness policy
                            # prefers it, so the stale retry is
                            # abandoned rather than displacing it.
                            request.dropped = True
                            request.failed_faulted = True
                            log.actions.append(FaultAction(
                                now_s, "superseded", -1, rid,
                                request.model_code,
                                attempt=retry_counts.get(rid, 0),
                            ))
                        else:
                            waiting.offer(item)
                            log.actions.append(FaultAction(
                                now_s, "requeued", -1, rid,
                                request.model_code,
                                attempt=retry_counts.get(rid, 0),
                            ))
                else:  # SESSION_LEAVE
                    states[session_id].active = False
                    retire_waiting(session_id, include_resumable=True)
                if not heap or heap[0][0] != now_s:
                    break
                if idle and (waiting or resumable):
                    dispatch(now_s)
                (now_s, _, kind, request, sub_index,
                 session_id) = pop_fields()
            dispatch(now_s)

        if fplan is not None:
            # Single source of truth for recovered/lost: every request a
            # fault ever touched either completed on a surviving engine
            # (recovered, with its first-kill-to-completion latency) or
            # is lost — exhausted retry budgets, superseded frames,
            # departed sessions, and retries still waiting when the run
            # drained all land here, so no killed work silently
            # vanishes.
            for sid, state in states.items():
                log = faults_log[sid]
                for request in state.requests:
                    if not request.faulted:
                        continue
                    if request.completed:
                        log.recovered += 1
                        log.recovery_latencies_s.append(round(
                            request.end_time_s
                            - kill_times[request.request_id],
                            9,
                        ))
                    else:
                        request.dropped = True
                        request.failed_faulted = True
                        log.lost += 1

        records = sorted(
            (record for engine in fleet for record in engine.records),
            key=lambda r: (r.start_s, r.sub_index),
        )
        # One pass partitions the global log per session (the global sort
        # is stable, so each slice stays (start_s, sub_index)-ordered).
        records_by_session: dict[int, list[ExecutionRecord]] = {
            sid: [] for sid in states
        }
        for record in records:
            records_by_session[record.session_id].append(record)
        session_results = [
            SimulationResult(
                scenario=_merged_scenario(
                    [scenario for _, _, scenario in state.windows]
                ),
                system=self.system,
                duration_s=self.duration_s,
                requests=state.requests,
                busy_time_s=state.busy_time_s,
                spawned_frames=state.spawned,
                records=records_by_session[sid],
                session_id=sid,
                active_duration_s=(
                    state.active_duration_s if state.spec.dynamic else None
                ),
                admission=control.get(sid),
                faults=faults_log.get(sid),
            )
            for sid, state in sorted(states.items())
        ]
        return MultiSessionResult(
            system=self.system,
            duration_s=self.duration_s,
            sessions=session_results,
            records=records,
            busy_time_s={e.index: e.busy_time_s for e in fleet},
            cost_stats=prices.stats,
        )
