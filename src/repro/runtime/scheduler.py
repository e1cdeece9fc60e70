"""Pluggable inference dispatchers/schedulers.

The scheduler decides, whenever an engine is free and work is waiting,
which (work item, engine) pair to dispatch next.  XRBench ships a
latency-greedy scheduler (the paper's default for cost-model runs) and a
round-robin scheduler (its default for real systems); EDF and
rate-monotonic schedulers are included as the kind of runtime
optimisation the paper encourages users to plug in.

Schedulers are deliberately simple objects with one required method so
user code can swap in anything (the yellow "user-customisable" boxes of
Figure 2).  :class:`Scheduler` is that protocol: ``select`` picks a
``(work item, engine)`` pair, where work items carry session identity
and segment position and engines are stateful
:class:`~repro.runtime.engine.ExecutionEngine` objects.  It prices
candidates from the run's :class:`~repro.costmodel.PriceTable`, which
the event loop passes it: by index (``prices.fastest``,
``prices.cost``) or by key (``prices.engine_cost``).

Two optional protocol extensions:

* ``reset()`` — clear any cross-run state (a round-robin rotor, lazily
  inferred periods).  The event loop calls it at the start of every run,
  so back-to-back runs through one shared policy object are
  order-independent.
* ``preemptive`` / ``should_preempt(...)`` — deadline-aware segment
  preemption.  Under segment granularity, a completed segment's
  successors normally resume ahead of all fresh work; a scheduler with
  ``preemptive = True`` is consulted at each such segment boundary and
  may displace the waiting stale segment chain when fresher work is more
  urgent.  Preemption points stay at segment boundaries only — a running
  segment is never aborted, preserving the paper's semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

from repro.costmodel import PriceTable
from repro.hardware import AcceleratorSystem
from repro.registry import schedulers as SCHEDULER_REGISTRY
from repro.workload import InferenceRequest

from .engine import ExecutionEngine, WorkItem

__all__ = [
    "Scheduler",
    "LatencyGreedyScheduler",
    "RoundRobinScheduler",
    "EarliestDeadlineScheduler",
    "RateMonotonicScheduler",
    "make_scheduler",
    "register_scheduler",
    "SCHEDULERS",
]


class Scheduler(Protocol):
    """Dispatch decision interface.

    ``waiting`` is the event loop's *maintained* waiting view (a
    :class:`~repro.runtime.queues.WaitingQueue`): a read-only sequence of
    work items already sorted oldest-data-first with (session, model)
    tie-breaks, updated incrementally as frames arrive and dispatch —
    never rebuilt per call.  ``idle_engines`` is likewise the maintained
    index-ordered idle list.  Both are live views owned by the event
    loop: read them, never mutate or retain them across calls.

    ``prices`` is the run's price table: every code the run can
    dispatch, on every engine of ``system``.

    The chosen item must be one of ``waiting`` (the object itself, not
    an equal copy) and the chosen engine one of ``idle_engines``; the
    event loop raises ``ValueError`` otherwise.  The queue builds a
    waiting request's item on the first read that returns it, and every
    later read returns that same object.
    """

    def select(
        self,
        now_s: float,
        waiting: Sequence[WorkItem],
        idle_engines: Sequence[ExecutionEngine],
        system: AcceleratorSystem,
        prices: PriceTable,
    ) -> tuple[WorkItem, ExecutionEngine] | None:
        """Choose the next dispatch, or ``None`` to leave engines idle."""
        ...


def _best_engine(
    code: str,
    idle_engines: Sequence[ExecutionEngine],
    prices: PriceTable,
) -> ExecutionEngine:
    """The idle engine with the lowest expected latency for model ``code``.

    Engines are priced for the whole model at the nominal operating
    point, also when the item is one segment of it: a segment's relative
    engine affinity matches its parent model's.  Latency ties go to the
    lowest index (``idle_engines`` is index-ordered).
    """
    if len(idle_engines) == 1:
        return idle_engines[0]
    return prices.fastest(prices.ids[code], idle_engines, prices.nominal)


@dataclass
class LatencyGreedyScheduler:
    """The paper's default: oldest request first, fastest idle engine.

    "Dispatch an inference job to an idle accelerator with the minimal
    expected latency" (artifact appendix D.2).
    """

    def select(
        self,
        now_s: float,
        waiting: Sequence[WorkItem],
        idle_engines: Sequence[ExecutionEngine],
        system: AcceleratorSystem,
        prices: PriceTable,
    ) -> tuple[WorkItem, ExecutionEngine] | None:
        if not waiting or not idle_engines:
            return None
        item = waiting[0]  # oldest data first
        return item, _best_engine(
            item.request.model_code, idle_engines, prices
        )


@dataclass
class RoundRobinScheduler:
    """Cycles engines regardless of fit (the paper's real-system default)."""

    _next_engine: int = 0

    def select(
        self,
        now_s: float,
        waiting: Sequence[WorkItem],
        idle_engines: Sequence[ExecutionEngine],
        system: AcceleratorSystem,
        prices: PriceTable,
    ) -> tuple[WorkItem, ExecutionEngine] | None:
        if not waiting or not idle_engines:
            return None
        # Advance the rotor to the next idle engine.  The probe dict
        # makes each membership test O(1) without changing the probe
        # order, so choices are identical to a scan of the idle list.
        idle = {engine.index: engine for engine in idle_engines}
        for offset in range(system.num_subs):
            candidate = (self._next_engine + offset) % system.num_subs
            engine = idle.get(candidate)
            if engine is not None:
                self._next_engine = (candidate + 1) % system.num_subs
                return waiting[0], engine
        return None

    def reset(self) -> None:
        """Rewind the rotor so runs sharing this instance are independent."""
        self._next_engine = 0


def _earliest_deadline(waiting: Sequence[WorkItem]) -> WorkItem:
    """The earliest-deadline item of a non-empty ``waiting`` (ties to the
    oldest data, then to ``waiting``'s order): read from a
    :class:`~repro.runtime.queues.WaitingQueue`'s deadline view, or
    scanned from any other sequence.  Both give the same item."""
    earliest = getattr(waiting, "earliest_deadline", None)
    if earliest is not None:
        return earliest()
    return min(
        waiting,
        key=lambda w: (w.request.deadline_s, w.request.request_time_s),
    )


@dataclass
class EarliestDeadlineScheduler:
    """EDF: most urgent request first, fastest idle engine.

    With ``preemptive=True`` the policy also answers the runtime's
    segment-boundary preemption query: a resuming segment chain is
    displaced whenever some waiting request's deadline is strictly
    earlier than the resuming request's.

    Both read the waiting queue's deadline-ordered view
    (:meth:`~repro.runtime.queues.WaitingQueue.earliest_deadline`).
    """

    #: Opt into deadline-aware segment preemption (off by default: the
    #: resume-first order is pinned by the golden schedule checksums).
    preemptive: bool = False

    def select(
        self,
        now_s: float,
        waiting: Sequence[WorkItem],
        idle_engines: Sequence[ExecutionEngine],
        system: AcceleratorSystem,
        prices: PriceTable,
    ) -> tuple[WorkItem, ExecutionEngine] | None:
        if not waiting or not idle_engines:
            return None
        item = _earliest_deadline(waiting)
        return item, _best_engine(
            item.request.model_code, idle_engines, prices
        )

    def should_preempt(
        self,
        now_s: float,
        resuming: WorkItem,
        waiting: Sequence[WorkItem],
        system: AcceleratorSystem,
        prices: PriceTable,
    ) -> bool:
        if not self.preemptive or not waiting:
            return False
        return (
            _earliest_deadline(waiting).request.deadline_s
            < resuming.request.deadline_s
        )


@dataclass
class RateMonotonicScheduler:
    """Rate-monotonic priorities: highest-rate model first.

    The classic real-time policy: shorter-period tasks preempt (here:
    pre-empt the *queue*, not running inferences) longer-period ones.
    Ties break on request age; the engine choice is latency-greedy.
    With ``preemptive=True`` the policy answers the runtime's
    segment-boundary preemption query, displacing a resuming chain when
    a strictly shorter-period model is waiting.
    """

    #: model code -> target period in seconds.  Entries provided at
    #: construction pin a model's priority for good (and survive
    #: ``reset()``).  For other codes the period is inferred from the
    #: request as ``deadline_s - request_time_s``; with
    #: ``memoize_periods=True`` the first inference per model code is
    #: memoized here and reused — classic static RM priorities.  Off by
    #: default: per-request inference is the historical behaviour pinned
    #: by the golden schedule checksums (inferred slack varies with
    #: sensor jitter and cascade timing, so memoizing is a deliberate
    #: semantic choice, not a pure optimisation).
    periods: dict[str, float] = field(default_factory=dict)
    memoize_periods: bool = False
    #: Opt into deadline-aware segment preemption (off by default).
    preemptive: bool = False

    def __post_init__(self) -> None:
        # Own a copy of the caller's dict (memoization must never write
        # inferred, jitter-dependent values into it) and remember which
        # periods were pinned: reset() clears lazily-inferred entries
        # but never the provided ones.
        self.periods = dict(self.periods)
        self._provided = dict(self.periods)

    def _period(self, request: InferenceRequest) -> float:
        known = self.periods.get(request.model_code)
        if known is not None:
            return known
        # Deadline - request time approximates the frame period.
        inferred = max(1e-6, request.deadline_s - request.request_time_s)
        if self.memoize_periods:
            self.periods[request.model_code] = inferred
        return inferred

    def select(
        self,
        now_s: float,
        waiting: Sequence[WorkItem],
        idle_engines: Sequence[ExecutionEngine],
        system: AcceleratorSystem,
        prices: PriceTable,
    ) -> tuple[WorkItem, ExecutionEngine] | None:
        if not waiting or not idle_engines:
            return None
        item = min(
            waiting,
            key=lambda w: (self._period(w.request), w.request.request_time_s),
        )
        return item, _best_engine(
            item.request.model_code, idle_engines, prices
        )

    def should_preempt(
        self,
        now_s: float,
        resuming: WorkItem,
        waiting: Sequence[WorkItem],
        system: AcceleratorSystem,
        prices: PriceTable,
    ) -> bool:
        if not self.preemptive or not waiting:
            return False
        return (
            min(self._period(w.request) for w in waiting)
            < self._period(resuming.request)
        )

    def reset(self) -> None:
        """Drop inferred periods; keep the construction-provided ones.

        Without this, a shared instance leaks one run's inferred periods
        (which depend on that run's jitter and cascade timing) into the
        next — runs through one policy object would not be
        order-independent.
        """
        self.periods = dict(self._provided)


def register_scheduler(
    name: str, cls: type | None = None, *, overwrite: bool = False
):
    """Name-address a scheduler policy class; usable as a decorator.

    ``register_scheduler("my_policy", MyPolicy)`` registers directly;
    ``@register_scheduler("my_policy")`` decorates a class.  Registered
    policies are constructible everywhere a policy name is accepted —
    ``make_scheduler``, ``RunSpec.scheduler`` and the CLI ``--scheduler``
    flag (via ``--spec``).
    """
    return SCHEDULER_REGISTRY.register(name, cls, overwrite=overwrite)


register_scheduler("latency_greedy", LatencyGreedyScheduler)
register_scheduler("round_robin", RoundRobinScheduler)
register_scheduler("edf", EarliestDeadlineScheduler)
register_scheduler("rate_monotonic", RateMonotonicScheduler)

#: Live view of the scheduler registry, kept for the original dict API.
SCHEDULERS: dict[str, type] = SCHEDULER_REGISTRY.backing


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a scheduler by registry name.

    Keyword arguments are forwarded to the policy's constructor, e.g.
    ``make_scheduler("rate_monotonic", periods={"HT": 1 / 45})``.
    """
    cls = SCHEDULER_REGISTRY.get(name)
    return cls(**kwargs)
