"""Execution engines: per-sub-accelerator runtime state.

The multi-tenant runtime models each sub-accelerator as an
:class:`ExecutionEngine` that owns its occupancy state, busy-time
accounting, DVFS operating point (nominal until a governor moves it),
thermal ceiling, and an execution log.  Work arrives as
:class:`WorkItem` values — session-tagged and segment-granular, so a long
model split by :mod:`repro.runtime.segmentation` can yield the engine
between segments (a preemption point) and resume on whichever engine is
best then.

Engines append an :class:`ExecutionRecord` per occupancy interval; the
records are what :mod:`repro.runtime.timeline` renders, so segment-level
runs produce accurate Gantt charts (one bar per segment, not one bar per
request).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Iterator

from repro.costmodel import DvfsPoint, ModelCost
from repro.hardware import SubAccelerator
from repro.workload import InferenceRequest

__all__ = ["WorkItem", "ExecutionRecord", "ExecutionEngine", "EngineFleet"]


@dataclass(slots=True)
class WorkItem:
    """One schedulable unit: a request (or one segment of it) in a session.

    ``task_code`` is the cost-table code pricing this piece; ``None``
    means the whole model.  Segment items of the same request share the
    underlying :class:`InferenceRequest`, whose user-visible timing spans
    first-segment start to last-segment end.

    ``chain`` optionally carries the model's compile-time
    :class:`~repro.runtime.segmentation.SegmentChain` (piece codes and
    per-segment cost tables, resolved once at plan time), so successor
    lookups and governor budget reservations never re-derive the plan.
    The field is identity-irrelevant: two items describing the same
    dispatch compare equal whether or not a chain rides along.

    Items are read-only by contract: nothing assigns a field after
    construction, and the next segment is a new item
    (:meth:`successor`).  The class is not ``frozen`` because a frozen
    dataclass sets every field through ``object.__setattr__``: built
    positionally, the frozen class took about 2.2 µs against 0.6 µs
    (CPython 3.11, Intel Xeon), and a run builds one per request a
    policy reads from the :class:`~repro.runtime.queues.WaitingQueue`
    plus one per later segment.  Nothing relies on frozenness: no item
    is hashed or used as a key (its mutable request field makes
    ``hash()`` raise either way), and schedulers already receive the
    mutable waiting queue and requests under the same read-only
    contract.
    """

    request: InferenceRequest
    session_id: int = 0
    segment_index: int = 0
    num_segments: int = 1
    task_code: str | None = None
    chain: object | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_segments < 1:
            raise ValueError(
                f"num_segments must be >= 1, got {self.num_segments}"
            )
        if not 0 <= self.segment_index < self.num_segments:
            raise ValueError(
                f"segment_index {self.segment_index} out of range for "
                f"{self.num_segments} segments"
            )

    @property
    def code(self) -> str:
        """The cost-table task code of this piece of work."""
        return self.task_code or self.request.model_code

    @property
    def is_first_segment(self) -> bool:
        return self.segment_index == 0

    @property
    def is_final_segment(self) -> bool:
        return self.segment_index == self.num_segments - 1

    def successor(self, task_code: str | None) -> WorkItem:
        """The next segment of the same request."""
        if self.is_final_segment:
            raise ValueError(f"{self!r} has no successor segment")
        return WorkItem(
            self.request, self.session_id, self.segment_index + 1,
            self.num_segments, task_code, self.chain,
        )

    def __repr__(self) -> str:  # keep logs compact
        seg = (
            f" seg {self.segment_index + 1}/{self.num_segments}"
            if self.num_segments > 1
            else ""
        )
        return (
            f"WI(s{self.session_id} {self.request.model_code}"
            f"#{self.request.model_frame}{seg})"
        )


@dataclass(slots=True)
class ExecutionRecord:
    """One engine occupancy interval (the unit of the execution timeline).

    Records are write-once by contract: :meth:`ExecutionEngine.finish`
    or :meth:`ExecutionEngine.abort` builds one, and nothing assigns a
    field afterwards.  The class is not ``frozen`` for the same reason
    as :class:`WorkItem`: a frozen dataclass sets every field through
    ``object.__setattr__``.  Built by keyword, the frozen class took
    about 2.2 µs against 0.8 µs (CPython 3.11, Intel Xeon), and the
    engine builds one per dispatch.  ``repr``, ``==`` and pickling are
    those of the frozen class; records are not hashable, and nothing
    hashes one or uses one as a key.
    """

    sub_index: int
    session_id: int
    model_code: str
    model_frame: int
    segment_index: int
    num_segments: int
    start_s: float
    end_s: float
    energy_mj: float
    #: Name of the DVFS operating point this interval ran at (``None`` =
    #: nominal frequency).  A governed run re-decides per dispatch, so
    #: the record log doubles as the engine's frequency timeline.
    dvfs: str | None = None
    #: ``True`` when the interval was cut short by an engine failure
    #: (fault injection): ``end_s`` is the kill time, not the planned
    #: completion, and ``energy_mj`` is the energy spent up to it.
    aborted: bool = False

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(slots=True)
class ExecutionEngine:
    """Runtime state of one sub-accelerator.

    Enforces the hardware-occupancy condition (one item at a time),
    accrues busy time, and logs every execution.  The engine starts at
    nominal frequency; a DVFS governor may move its operating point per
    dispatch via :meth:`set_operating_point`, which logs every
    frequency transition.

    ``horizon_s`` bounds busy-time accounting: occupancy beyond it (the
    drain tail of in-flight work past the measurement window) is real
    wall-clock execution but must not count toward window-normalised
    utilization, so :meth:`begin` charges only the overlap with
    ``[0, horizon_s]``.  ``None`` (the default) charges the full
    occupancy, for callers that do their own windowing.
    """

    sub: SubAccelerator
    horizon_s: float | None = None
    busy_time_s: float = 0.0
    records: list[ExecutionRecord] = field(default_factory=list)
    #: (time_s, from, to) frequency transitions, oldest first.
    dvfs_transitions: list[
        tuple[float, DvfsPoint | None, DvfsPoint | None]
    ] = field(default_factory=list)
    #: Fault-injection health state: a failed engine accepts no work
    #: (and leaves the fleet's idle list); ``max_frequency_scale`` is
    #: the thermal ceiling on the DVFS ladder while throttled (``None``
    #: = unthrottled).  ``health_log`` records every transition as
    #: ``(time_s, "fail" | "recover" | "throttle:<point>" | "release")``.
    failed: bool = False
    max_frequency_scale: float | None = None
    health_log: list[tuple[float, str]] = field(default_factory=list)
    _point: DvfsPoint | None = field(default=None, repr=False)
    _current: WorkItem | None = field(default=None, repr=False)
    _started_s: float = field(default=0.0, repr=False)
    _until_s: float = field(default=0.0, repr=False)
    _energy_mj: float = field(default=0.0, repr=False)
    _thermal_point: DvfsPoint | None = field(default=None, repr=False)

    @property
    def index(self) -> int:
        return self.sub.index

    @property
    def idle(self) -> bool:
        return self._current is None

    @property
    def current(self) -> WorkItem | None:
        return self._current

    @property
    def busy_until_s(self) -> float:
        """When the engine frees up (meaningless while idle)."""
        return self._until_s

    @property
    def operating_point(self) -> DvfsPoint | None:
        """The point the engine currently runs at (``None`` = nominal)."""
        return self._point

    @property
    def effective_dvfs(self) -> DvfsPoint | None:
        """Nominal (``None``), or the thermal clamp point while a
        ceiling below nominal frequency is imposed."""
        if (
            self.max_frequency_scale is None
            or self.max_frequency_scale >= 1.0
        ):
            return None
        return self._thermal_point

    def throttle(
        self,
        now_s: float,
        max_frequency_scale: float,
        ladder: tuple[DvfsPoint, ...],
    ) -> None:
        """Impose a thermal DVFS ceiling; picks the clamp point off
        ``ladder`` (the fastest point still under the ceiling, or the
        slowest point when none fits)."""
        permitted = [
            p for p in ladder if p.frequency_scale <= max_frequency_scale
        ]
        if permitted:
            point = max(permitted, key=lambda p: p.frequency_scale)
        else:
            point = min(ladder, key=lambda p: p.frequency_scale)
        self.max_frequency_scale = max_frequency_scale
        self._thermal_point = point
        self.health_log.append((now_s, f"throttle:{point.name}"))

    def release_thermal(self, now_s: float) -> None:
        """Lift the thermal ceiling (engine cooled off)."""
        self.max_frequency_scale = None
        self._thermal_point = None
        self.health_log.append((now_s, "release"))

    def abort(self, now_s: float) -> tuple[WorkItem, float, float]:
        """Kill the in-flight item (engine failure at ``now_s``).

        Logs a truncated, ``aborted`` execution record charging only the
        energy spent up to the kill, rolls the busy-time charge of the
        unexecuted remainder back out, and frees the engine.  Returns
        ``(item, planned_end_s, unspent_energy_mj)`` so the caller can
        undo the request-level accounting :meth:`begin`'s dispatch did.
        """
        item = self._current
        if item is None:
            raise ValueError(f"engine {self.index} is idle")
        span = self._until_s - self._started_s
        fraction = (now_s - self._started_s) / span if span > 0 else 1.0
        fraction = min(1.0, max(0.0, fraction))
        spent_mj = self._energy_mj * fraction
        self.records.append(
            ExecutionRecord(
                sub_index=self.index,
                session_id=item.session_id,
                model_code=item.request.model_code,
                model_frame=item.request.model_frame,
                segment_index=item.segment_index,
                num_segments=item.num_segments,
                start_s=self._started_s,
                end_s=now_s,
                energy_mj=spent_mj,
                dvfs=self._point.name if self._point is not None else None,
                aborted=True,
            )
        )
        planned_end_s = self._until_s
        if self.horizon_s is None:
            self.busy_time_s -= planned_end_s - now_s
        else:
            self.busy_time_s -= max(
                0.0,
                min(planned_end_s, self.horizon_s)
                - min(now_s, self.horizon_s),
            )
        self._current = None
        return item, planned_end_s, self._energy_mj - spent_mj

    def set_operating_point(
        self, point: DvfsPoint | None, now_s: float
    ) -> None:
        """Move the engine to ``point``, logging the transition.

        A no-op when the engine is already there, so ungoverned runs
        (every dispatch at nominal) log no transitions.
        """
        if point != self._point:
            self.dvfs_transitions.append((now_s, self._point, point))
            self._point = point

    def begin(self, item: WorkItem, now_s: float, cost: ModelCost) -> float:
        """Occupy the engine with ``item``; returns the completion time."""
        if self._current is not None:
            raise ValueError(
                f"engine {self.index} is already running {self._current!r} "
                f"(hardware-occupancy condition)"
            )
        if self.failed:
            raise ValueError(
                f"engine {self.index} is failed and cannot accept work"
            )
        self._current = item
        self._started_s = now_s
        self._until_s = now_s + cost.latency_s
        self._energy_mj = cost.energy_mj
        if self.horizon_s is None:
            self.busy_time_s += cost.latency_s
        else:
            # Clip the charge to the measurement window at accounting
            # time: the drain tail past the horizon still *runs* (the
            # records keep the true interval) but must not inflate
            # window-normalised utilization past 100%.
            self.busy_time_s += max(
                0.0,
                min(self._until_s, self.horizon_s)
                - min(now_s, self.horizon_s),
            )
        return self._until_s

    def finish(self, now_s: float) -> WorkItem:
        """Release the engine; logs the execution and returns its item."""
        item = self._current
        if item is None:
            raise ValueError(f"engine {self.index} is idle")
        self.records.append(
            ExecutionRecord(
                sub_index=self.index,
                session_id=item.session_id,
                model_code=item.request.model_code,
                model_frame=item.request.model_frame,
                segment_index=item.segment_index,
                num_segments=item.num_segments,
                start_s=self._started_s,
                end_s=self._until_s,
                energy_mj=self._energy_mj,
                dvfs=self._point.name if self._point is not None else None,
            )
        )
        self._current = None
        return item

    def describe(self) -> str:
        point = f" [{self._point.name}]" if self._point else ""
        return f"{self.sub.describe()}{point}"


def _engine_index(engine: ExecutionEngine) -> int:
    return engine.index


@dataclass
class EngineFleet:
    """The system's engines plus an incrementally-maintained idle set.

    All occupancy transitions flow through :meth:`begin`/:meth:`finish`,
    which keep ``idle`` — the index-ordered list of free engines — exact
    at all times.  The event loop therefore reads idleness in O(1)
    instead of scanning every engine on every dispatch pass, and
    schedulers receive the maintained list directly.  The list is *live*:
    it mutates as work starts and finishes, so schedulers must not hold
    on to it across calls.
    """

    engines: list[ExecutionEngine]
    _idle: list[ExecutionEngine] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._idle = sorted(
            (e for e in self.engines if e.idle and not e.failed),
            key=_engine_index,
        )

    @property
    def idle(self) -> list[ExecutionEngine]:
        """Free engines, index-ordered.  Live view — do not mutate."""
        return self._idle

    def begin(self, engine: ExecutionEngine, item: WorkItem,
              now_s: float, cost: ModelCost,
              dvfs: DvfsPoint | None = None) -> float:
        """Occupy ``engine`` with ``item``; returns the completion time.

        ``dvfs`` is the point ``cost`` was priced at (a
        :class:`~repro.costmodel.DvfsPoint`, or ``None`` for nominal):
        the governor's choice, or the engine's thermal clamp point on an
        ungoverned dispatch.  The engine moves there first, so every
        frequency transition is logged on the engine and every record
        names the point its work ran at.
        """
        engine.set_operating_point(dvfs, now_s)
        end_s = engine.begin(item, now_s, cost)
        self._idle.remove(engine)
        return end_s

    def finish(self, sub_index: int, now_s: float) -> WorkItem:
        """Release the engine at ``sub_index``; returns its work item."""
        engine = self.engines[sub_index]
        item = engine.finish(now_s)
        insort(self._idle, engine, key=_engine_index)
        return item

    def fail(
        self, sub_index: int, now_s: float
    ) -> tuple[WorkItem, float, float] | None:
        """Take the engine at ``sub_index`` out of service (fault event).

        An idle engine simply leaves the idle list; a busy one has its
        in-flight item killed via :meth:`ExecutionEngine.abort`, whose
        ``(item, planned_end_s, unspent_energy_mj)`` result is returned
        so the event loop can requeue the item and undo its accounting.
        Returns ``None`` when the engine was idle.
        """
        engine = self.engines[sub_index]
        if engine.failed:
            raise ValueError(f"engine {sub_index} is already failed")
        killed = None
        if engine.idle:
            self._idle.remove(engine)
        else:
            killed = engine.abort(now_s)
        engine.failed = True
        engine.health_log.append((now_s, "fail"))
        return killed

    def recover(self, sub_index: int, now_s: float) -> None:
        """Return the engine at ``sub_index`` to service (fault event)."""
        engine = self.engines[sub_index]
        if not engine.failed:
            raise ValueError(f"engine {sub_index} is not failed")
        engine.failed = False
        engine.health_log.append((now_s, "recover"))
        insort(self._idle, engine, key=_engine_index)

    def __len__(self) -> int:
        return len(self.engines)

    def __getitem__(self, index: int) -> ExecutionEngine:
        return self.engines[index]

    def __iter__(self) -> Iterator[ExecutionEngine]:
        return iter(self.engines)
