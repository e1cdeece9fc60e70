"""Runtime data structures (Figure 2): the waiting queue.  Figure 2's
active inference table is :class:`~repro.runtime.engine.EngineFleet`,
which tracks what each engine runs, and its dependency tracker is
:attr:`repro.workload.LoadGenerator.dependents`, which maps a completed
upstream inference to the downstream requests it may spawn.

:class:`WaitingQueue` implements the frame-freshness drop policy: at most
one *waiting* request per (session, model).  When a new frame arrives
while the previous one is still waiting to start, the stale frame is
dropped — processing it could no longer contribute to the target rate
(its successor has already arrived), and real XR runtimes prefer the
fresh frame.  Requests that have *started* are never aborted.  One queue
spans every session, holding session-tagged
:class:`~repro.runtime.engine.WorkItem` values readable in dispatch
order, so the event loop hands schedulers a ready-sorted view instead of
rebuilding and re-sorting a list on every scheduler call.  Arrivals come
in time order, so the queue keeps that order by appending: a fresh frame
superseding a waiting one costs two dict operations, and only an
out-of-order offer (a fault retry) costs a re-sort, once, at the next
read.  EDF reads a second, deadline-ordered view of the same items
(:meth:`WaitingQueue.earliest_deadline`) instead of scanning them.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterator

from .engine import WorkItem

__all__ = ["WaitingQueue"]


def _dispatch_order(item: WorkItem) -> tuple[float, int, str]:
    """Global dispatch order: oldest data first, session/model tie-breaks."""
    return (
        item.request.request_time_s,
        item.session_id,
        item.request.model_code,
    )


#: Compares below every dispatch key: the ``_max_key`` of an empty queue.
_NO_KEY: tuple[float, int, str] = (float("-inf"), -1, "")

#: The deadline view is rebuilt from the live items when it holds more
#: than this many entries per waiting item: superseded and taken items
#: leave their entries behind, and this bounds what they can add up to.
DEADLINE_VIEW_BOUND = 4


@dataclass(slots=True)
class WaitingQueue:
    """All sessions' waiting work, read in dispatch order.

    At most one waiting :class:`WorkItem` per (session, model); offering
    a fresh frame drops the stale one (frame-freshness policy).  Reads —
    iteration, indexing, :meth:`purge_session` — see the items sorted by
    ``(request_time_s, session_id, model_code)``, so schedulers receive
    this object directly as their waiting view.  Treat it as read-only
    inside a scheduler: only the event loop offers and takes.

    The items live in one dict keyed by (session, model), and its
    insertion order *is* the dispatch order.  Arrivals come in time
    order, so an offer almost always carries a key no smaller than any
    offered since the queue was last empty (``_max_key``); appending it
    keeps the dict sorted, and removals keep it sorted, so superseding a
    frame is two dict operations.  An offer that would land out of order
    — a fault retry, or a same-instant arrival of a lower session —
    marks the order stale (``_unordered``) instead, and the next read
    re-sorts once (:meth:`_restore_order`).  Waiting keys are unique
    (one item per (session, model)), so the sorted order is unique: every
    read sees the same list whatever order the items were offered in.
    The key fields are stable for a waiting item — request times are
    only ever shifted *before* the item is offered.

    :meth:`earliest_deadline` reads the same items in deadline order,
    from a heap of ``(deadline_s, request_time_s, session_id,
    model_code, seq, item)`` entries (``_deadlines``).  The heap is built
    on the first read, so a queue no policy reads by deadline pays one
    ``is None`` test per offer.  Deletion is lazy: an entry is live
    while its item is the one waiting under its (session, model), which
    also holds for a fault retry re-offering the same item object.  The
    heap is dropped when the queue empties, and rebuilt from the live
    items when it holds more than :data:`DEADLINE_VIEW_BOUND` entries per
    waiting item.
    """

    _by_key: dict[tuple[int, str], WorkItem] = field(default_factory=dict)
    _max_key: tuple[float, int, str] = _NO_KEY
    _unordered: bool = False
    _deadlines: list[
        tuple[float, float, int, str, int, WorkItem]
    ] | None = field(default=None, repr=False, compare=False)
    _pushes: Iterator[int] = field(
        default_factory=itertools.count, repr=False, compare=False
    )

    def offer(self, item: WorkItem) -> WorkItem | None:
        """Add a fresh work item; returns the displaced stale item, if any.

        The stale item's request is marked dropped; the request's flag
        and the returned item are the record of the drop.
        """
        request = item.request
        session_id = item.session_id
        code = request.model_code
        key = (session_id, code)
        by_key = self._by_key
        stale = by_key.pop(key, None)
        if stale is not None:
            stale.request.dropped = True
        by_key[key] = item
        order = (request.request_time_s, session_id, code)
        if order >= self._max_key:
            self._max_key = order
        else:
            self._unordered = True
        deadlines = self._deadlines
        if deadlines is not None:
            heapq.heappush(deadlines, (
                request.deadline_s, request.request_time_s, session_id,
                code, next(self._pushes), item,
            ))
            if len(deadlines) > DEADLINE_VIEW_BOUND * len(by_key):
                self._build_deadlines()
        return stale

    def take(self, item: WorkItem) -> None:
        """Remove an item that is about to be dispatched."""
        key = (item.session_id, item.request.model_code)
        by_key = self._by_key
        current = by_key.get(key)
        if current is not item:
            raise ValueError(
                f"work item {item!r} is not waiting "
                f"(queue holds {current!r})"
            )
        del by_key[key]
        if not by_key:
            self._max_key = _NO_KEY
            self._unordered = False
            self._deadlines = None

    def peek(self, session_id: int, model_code: str) -> WorkItem | None:
        """The waiting item for ``(session, model)``, if any.

        Lets the fault-recovery machinery honour the freshness policy
        when deciding whether a killed item may requeue: if a fresher
        frame of the same model is already waiting, the stale retry is
        abandoned instead of displacing it.
        """
        return self._by_key.get((session_id, model_code))

    def purge_session(self, session_id: int) -> list[WorkItem]:
        """Retire every waiting item of one session (departure / phase end).

        The retired items' requests are marked dropped: they were
        streamed while the session was online but will never run, so
        they degrade QoE exactly like freshness drops do.  Returns the
        retired items, oldest data first.
        """
        if self._unordered:
            self._restore_order()
        by_key = self._by_key
        retired = [
            item for item in by_key.values() if item.session_id == session_id
        ]
        for item in retired:
            del by_key[(session_id, item.request.model_code)]
            item.request.dropped = True
        if not by_key:
            self._max_key = _NO_KEY
            self._unordered = False
            self._deadlines = None
        return retired

    def _restore_order(self) -> None:
        """Rebuild the dict in dispatch order after an out-of-order offer."""
        self._by_key = dict(sorted(
            self._by_key.items(),
            key=lambda entry: _dispatch_order(entry[1]),
        ))
        self._unordered = False

    def earliest_deadline(self) -> WorkItem | None:
        """The waiting item with the earliest deadline, ``None`` if empty.

        Ties go to the oldest data, then to dispatch order: the item
        ``min(queue, key=lambda w: (w.request.deadline_s,
        w.request.request_time_s))`` picks, since ``min`` keeps the first
        of equal keys and the queue iterates in dispatch order.  Waiting
        (session, model) pairs are unique, so the heap key after the
        deadline and request time, ``(session_id, model_code)``, orders
        every waiting item apart.
        """
        deadlines = self._deadlines
        if deadlines is None:
            deadlines = self._build_deadlines()
        by_key = self._by_key
        while deadlines:
            entry = deadlines[0]
            if by_key.get((entry[2], entry[3])) is entry[5]:
                return entry[5]
            heapq.heappop(deadlines)
        return None

    def _build_deadlines(
        self,
    ) -> list[tuple[float, float, int, str, int, WorkItem]]:
        """(Re)build the deadline view from the waiting items alone."""
        pushes = self._pushes
        deadlines = self._deadlines = [
            (
                item.request.deadline_s, item.request.request_time_s,
                session_id, code, next(pushes), item,
            )
            for (session_id, code), item in self._by_key.items()
        ]
        heapq.heapify(deadlines)
        return deadlines

    # -- read-only sequence view (what schedulers see) -----------------------

    def __len__(self) -> int:
        return len(self._by_key)

    def __bool__(self) -> bool:
        return bool(self._by_key)

    def __getitem__(self, index: int) -> WorkItem:
        """The item at ``index`` in dispatch order.

        The head is O(1); any other index builds the list (no built-in
        scheduler indexes past the head).
        """
        if self._unordered:
            self._restore_order()
        if index == 0 and self._by_key:
            return next(iter(self._by_key.values()))
        return list(self._by_key.values())[index]

    def __iter__(self) -> Iterator[WorkItem]:
        if self._unordered:
            self._restore_order()
        return iter(self._by_key.values())
