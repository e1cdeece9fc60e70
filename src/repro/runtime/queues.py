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
spans every session and reads as session-tagged
:class:`~repro.runtime.engine.WorkItem` values in dispatch order, so the
event loop hands schedulers a ready-sorted view instead of rebuilding
and re-sorting a list on every scheduler call.  Under load nearly every
frame is superseded before an engine frees, so the queue holds an
arriving request as itself and builds its work item only when a read
first returns it: a superseded frame never becomes a work item.
Arrivals come in time order, so the queue keeps that order by appending:
a fresh frame superseding a waiting one costs two dict operations, and
only an out-of-order offer (a fault retry) costs a re-sort, once, at the
next read.  EDF reads a second, deadline-ordered view of the same
requests (:meth:`WaitingQueue.earliest_deadline`) instead of scanning
them.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.workload import InferenceRequest

from .engine import WorkItem
from .segmentation import SegmentChain

__all__ = ["WaitingQueue"]


def _dispatch_order(
    entry: tuple[tuple[int, str], InferenceRequest | WorkItem],
) -> tuple[float, int, str]:
    """Global dispatch order: oldest data first, session/model tie-breaks."""
    (session_id, code), waiting = entry
    request = waiting.request if isinstance(waiting, WorkItem) else waiting
    return (request.request_time_s, session_id, code)


#: A deadline-view entry: ``(deadline_s, request_time_s, session_id,
#: model_code, seq, request)``.
_DeadlineEntry = tuple[float, float, int, str, int, InferenceRequest]

#: Compares below every dispatch key: the ``_max_key`` of an empty queue.
_NO_KEY: tuple[float, int, str] = (float("-inf"), -1, "")

#: The deadline view is rebuilt from the live requests when it holds
#: more than this many entries per waiting request: superseded and taken
#: requests leave their entries behind, and this bounds what they can
#: add up to.
DEADLINE_VIEW_BOUND = 4


@dataclass(slots=True)
class WaitingQueue:
    """All sessions' waiting work, read in dispatch order.

    At most one waiting request per (session, model); offering a fresh
    frame drops the stale one (frame-freshness policy).  Reads —
    iteration, indexing, :meth:`peek`, :meth:`earliest_deadline` — return
    :class:`WorkItem` values, iteration and indexing sorted by
    ``(request_time_s, session_id, model_code)``, so schedulers receive
    this object directly as their waiting view.  Treat it as read-only
    inside a scheduler: only the event loop offers, requeues and takes.

    A request waits as itself until a read first returns it.  That read
    builds its work item from the model's chain in ``chains`` (the run's
    :class:`~repro.runtime.segmentation.SegmentChain` per model code) and
    stores it back under the request's key, so every later read returns
    the same object and :meth:`take` accepts it; a frame superseded
    unread never becomes a work item.  A killed item's retry waits as
    the item itself (:meth:`requeue`).

    The waiting values live in one dict keyed by (session, model), and
    its insertion order *is* the dispatch order.  Arrivals come in time
    order, so an offer almost always carries a key no smaller than any
    offered since the queue was last empty (``_max_key``); appending it
    keeps the dict sorted, and removals (and storing a built item back
    in its request's place) keep it sorted, so superseding a frame is
    two dict operations.  An offer that would land out of order — a
    fault retry, or a same-instant arrival of a lower session — marks
    the order stale (``_unordered``) instead, and the next read re-sorts
    once (:meth:`_restore_order`).  Waiting keys are unique, so the
    sorted order is unique: every read sees the same list whatever order
    the requests were offered in.  The key fields are stable for a
    waiting request — request times are only ever shifted *before* the
    request is offered.

    :meth:`earliest_deadline` reads the same requests in deadline order,
    from a heap of ``(deadline_s, request_time_s, session_id,
    model_code, seq, request)`` entries (``_deadlines``).  The heap is
    built on the first read, so a queue no policy reads by deadline pays
    one ``is None`` test per offer.  Deletion is lazy: an entry is live
    while its key holds its request or an item of it, which also holds
    for a requeued retry.  The heap is dropped when the queue empties,
    and rebuilt from the live requests when it holds more than
    :data:`DEADLINE_VIEW_BOUND` entries per waiting request.
    """

    chains: Mapping[str, SegmentChain] = field(repr=False)
    _by_key: dict[tuple[int, str], InferenceRequest | WorkItem] = field(
        default_factory=dict
    )
    _max_key: tuple[float, int, str] = _NO_KEY
    _unordered: bool = False
    _deadlines: list[_DeadlineEntry] | None = field(
        default=None, repr=False, compare=False
    )
    _pushes: Iterator[int] = field(
        default_factory=itertools.count, repr=False, compare=False
    )

    def offer(self, request: InferenceRequest, session_id: int) -> None:
        """Add a fresh request of session ``session_id``.

        The request still waiting under the same (session, model), if
        any, is stale: it is superseded, and its ``dropped`` flag is the
        record of the drop.
        """
        code = request.model_code
        key = (session_id, code)
        by_key = self._by_key
        stale = by_key.pop(key, None)
        if stale is not None:
            # Most stale frames were never read: test for a request first.
            if isinstance(stale, InferenceRequest):
                stale.dropped = True
            else:
                stale.request.dropped = True
        by_key[key] = request
        order = (request.request_time_s, session_id, code)
        if order >= self._max_key:
            self._max_key = order
        else:
            self._unordered = True
        deadlines = self._deadlines
        if deadlines is not None:
            heapq.heappush(deadlines, (
                request.deadline_s, request.request_time_s, session_id,
                code, next(self._pushes), request,
            ))
            if len(deadlines) > DEADLINE_VIEW_BOUND * len(by_key):
                self._build_deadlines()

    def requeue(self, item: WorkItem) -> None:
        """Offer a killed item's retry: ``item`` itself waits again."""
        request = item.request
        self.offer(request, item.session_id)
        self._by_key[(item.session_id, request.model_code)] = item

    def take(self, item: WorkItem) -> None:
        """Remove an item, read from this queue, that is about to be
        dispatched."""
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
        key = (session_id, model_code)
        waiting = self._by_key.get(key)
        if waiting is None or isinstance(waiting, WorkItem):
            return waiting
        return self._build_item(key, waiting)

    def purge_session(self, session_id: int) -> None:
        """Retire every waiting request of one session (departure / phase
        end).

        The retired requests are marked dropped: they were streamed while
        the session was online but will never run, so they degrade QoE
        exactly like freshness drops do.
        """
        by_key = self._by_key
        for key in [k for k in by_key if k[0] == session_id]:
            waiting = by_key.pop(key)
            if isinstance(waiting, WorkItem):
                waiting = waiting.request
            waiting.dropped = True
        if not by_key:
            self._max_key = _NO_KEY
            self._unordered = False
            self._deadlines = None

    def _build_item(
        self, key: tuple[int, str], request: InferenceRequest,
    ) -> WorkItem:
        """Build a waiting request's first work item from its chain and
        store it back under ``key``, in the request's place."""
        chain = self.chains[key[1]]
        codes = chain.codes
        item = self._by_key[key] = WorkItem(
            request, key[0], 0, len(codes), codes[0], chain
        )
        return item

    def _restore_order(self) -> None:
        """Rebuild the dict in dispatch order after an out-of-order offer."""
        self._by_key = dict(sorted(self._by_key.items(), key=_dispatch_order))
        self._unordered = False

    def earliest_deadline(self) -> WorkItem | None:
        """The waiting item with the earliest deadline, ``None`` if empty.

        Ties go to the oldest data, then to dispatch order: the item
        ``min(queue, key=lambda w: (w.request.deadline_s,
        w.request.request_time_s))`` picks, since ``min`` keeps the first
        of equal keys and the queue iterates in dispatch order.  Waiting
        (session, model) pairs are unique, so the heap key after the
        deadline and request time, ``(session_id, model_code)``, orders
        every waiting request apart.
        """
        deadlines = self._deadlines
        if deadlines is None:
            deadlines = self._build_deadlines()
        by_key = self._by_key
        while deadlines:
            entry = deadlines[0]
            key = (entry[2], entry[3])
            waiting = by_key.get(key)
            request = entry[5]
            if waiting is request:
                return self._build_item(key, request)
            if isinstance(waiting, WorkItem) and waiting.request is request:
                return waiting
            heapq.heappop(deadlines)
        return None

    def _build_deadlines(self) -> list[_DeadlineEntry]:
        """(Re)build the deadline view from the waiting requests alone."""
        pushes = self._pushes
        deadlines: list[_DeadlineEntry] = []
        for (session_id, code), waiting in self._by_key.items():
            request = (
                waiting.request if isinstance(waiting, WorkItem) else waiting
            )
            deadlines.append((
                request.deadline_s, request.request_time_s,
                session_id, code, next(pushes), request,
            ))
        heapq.heapify(deadlines)
        self._deadlines = deadlines
        return deadlines

    # -- read-only sequence view (what schedulers see) -----------------------

    def __len__(self) -> int:
        return len(self._by_key)

    def __bool__(self) -> bool:
        return bool(self._by_key)

    def __getitem__(self, index: int) -> WorkItem:
        """The item at ``index`` in dispatch order.

        The head is O(1); any other index lists the waiting entries (no
        built-in scheduler indexes past the head).  Only the item read is
        built.
        """
        if self._unordered:
            self._restore_order()
        by_key = self._by_key
        if index == 0 and by_key:
            key, waiting = next(iter(by_key.items()))
        else:
            key, waiting = list(by_key.items())[index]
        if isinstance(waiting, WorkItem):
            return waiting
        return self._build_item(key, waiting)

    def __iter__(self) -> Iterator[WorkItem]:
        if self._unordered:
            self._restore_order()
        # Storing an item back under its key leaves the dict's size and
        # order alone, so the walk may do it as it goes.
        for key, waiting in self._by_key.items():
            yield (
                waiting if isinstance(waiting, WorkItem)
                else self._build_item(key, waiting)
            )
