"""Event machinery of the discrete-event benchmark runtime.

Eleven event kinds (:class:`EventKind`) drive the simulation:

* work: an inference-request *arrival* — a sensor frame of a root model,
  or a dependent request spawned when an upstream inference completes —
  and an inference *completion* on a sub-accelerator;
* session lifecycle in dynamic multi-tenant runs: *session join* (the
  tenant's request stream starts), *session leave* (its waiting work is
  retired) and *session phase* (it switches activity and streams a
  different scenario from then on);
* the *control tick*, periodic when a QoE admission controller is
  installed, at which it may shed or degrade overloaded sessions;
* fault injection: *engine fail* and *engine recover*, *thermal
  throttle* and *thermal release*, and *work retry* when a killed
  item's backoff expires.

Events are totally ordered by (time, sequence number) so simultaneous
events resolve deterministically.  Lifecycle, control-tick and fault
events are scheduled when the run starts, which gives them lower
sequence numbers — and therefore priority — over same-instant arrivals
and completions.  The event loop drains all events sharing the minimum
timestamp as one batch (see :meth:`EventQueue.pop_fields` /
:attr:`EventQueue.next_time_s`), processing them in exactly this
(time, seq) order.

Root arrivals are streamed rather than pushed up front.  When a session
enters a phase, the event loop reserves one sequence number per root
request of the phase (:meth:`EventQueue.reserve`) and pushes only the
first arrival; each arrival, as it pops, pushes the next one under its
reserved number.  Every arrival thus carries the key it would have had
if the whole sorted schedule had been pushed at once, and the next one
is on the heap before it could be the minimum, so the pop order and
:attr:`EventQueue.next_time_s` are unchanged while the heap holds a few
entries per session instead of every frame of the run.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field

from repro.workload import InferenceRequest

__all__ = ["EventKind", "EventQueue"]


class EventKind(enum.Enum):
    ARRIVAL = "arrival"
    COMPLETION = "completion"
    SESSION_JOIN = "session_join"
    SESSION_LEAVE = "session_leave"
    SESSION_PHASE = "session_phase"
    #: Periodic QoE control-plane tick: an installed
    #: :class:`~repro.runtime.admission.AdmissionController` is consulted
    #: and may shed or degrade sessions.  Never scheduled when the
    #: admission policy is ``"none"``, so the historical event stream is
    #: untouched.
    CONTROL_TICK = "control_tick"
    #: Fault-injection events (repro.runtime.faults): an engine dies
    #: (its in-flight work is killed and requeued under a retry budget),
    #: comes back, hits a thermal DVFS ceiling, or cools off; WORK_RETRY
    #: fires when a killed item's backoff expires and it may requeue.
    #: None of these are ever scheduled when the fault profile is
    #: ``"none"``, so the historical event stream is untouched.
    ENGINE_FAIL = "engine_fail"
    ENGINE_RECOVER = "engine_recover"
    THERMAL_THROTTLE = "thermal_throttle"
    THERMAL_RELEASE = "thermal_release"
    WORK_RETRY = "work_retry"


@dataclass
class EventQueue:
    """A deterministic min-heap of events.

    The heap holds flat
    ``(time_s, seq, kind, request, sub_index, session_id)`` tuples: sift
    comparisons touch only the leading floats and ints (``seq`` is
    unique, so later fields are never compared), and the hot path —
    thousands of pushes and pops per simulated second — allocates one
    tuple per event.  ``session_id`` tags the tenant session the event
    belongs to (0 in single-session runs).  ``request`` is the request
    of a work event and ``None`` for events that concern a session or an
    engine as a whole; a streamed root arrival carries its stream's
    cursor there instead, which the event loop turns into the request
    when the event pops.  The queue never looks inside it.
    """

    _heap: list[
        tuple[float, int, EventKind, object, int | None, int]
    ] = field(default_factory=list)
    _seq: itertools.count = field(default_factory=itertools.count)

    def push(
        self,
        time_s: float,
        kind: EventKind,
        request: InferenceRequest | None = None,
        sub_index: int | None = None,
        session_id: int = 0,
    ) -> None:
        self.push_reserved(
            time_s, next(self._seq), kind, request, sub_index, session_id
        )

    def reserve(self, n: int) -> int:
        """Take ``n`` consecutive sequence numbers; returns the first.

        For a caller that streams an already-sorted run of events one
        at a time, pushing each with :meth:`push_reserved` once its
        predecessor pops: event ``k`` of the run goes in under
        ``first + k``, the number it would have had if the whole run had
        been pushed now.
        """
        first = next(self._seq)
        self._seq = itertools.count(first + n)
        return first

    def push_reserved(
        self,
        time_s: float,
        seq: int,
        kind: EventKind,
        request: object = None,
        sub_index: int | None = None,
        session_id: int = 0,
    ) -> None:
        """Push an event under a sequence number already taken from the
        counter: by :meth:`reserve`, or by :meth:`push` for the next one."""
        if time_s < 0:
            raise ValueError(f"event time must be >= 0, got {time_s}")
        heapq.heappush(
            self._heap, (time_s, seq, kind, request, sub_index, session_id)
        )

    def pop_fields(
        self,
    ) -> tuple[float, int, EventKind, object, int | None, int]:
        """Pop the next event: its ``(time_s, seq, kind, request,
        sub_index, session_id)`` heap tuple, earliest ``(time_s, seq)``
        first."""
        if not self._heap:
            raise IndexError("pop from empty event queue")
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def next_time_s(self) -> float | None:
        return self._heap[0][0] if self._heap else None
