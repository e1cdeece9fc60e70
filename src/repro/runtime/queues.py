"""Runtime data structures (Figure 2): request queues, the active
inference table, and the dependency tracker.

The pending queue implements the frame-freshness drop policy: at most one
*waiting* request per model.  When a new frame arrives while the previous
one is still waiting to start, the stale frame is dropped — processing it
could no longer contribute to the target rate (its successor has already
arrived), and real XR runtimes prefer the fresh frame.  Requests that have
*started* are never aborted.

:class:`WaitingQueue` is the multi-tenant generalisation: one structure
spanning every session, holding session-tagged
:class:`~repro.runtime.engine.WorkItem` values in dispatch order and
applying the same drop policy per (session, model).  It is maintained
incrementally on offer/take, so the event loop hands schedulers a
ready-sorted view instead of rebuilding and re-sorting a list on every
scheduler call.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterator

from repro.workload import Dependency, InferenceRequest, UsageScenario

from .engine import WorkItem

__all__ = [
    "PendingQueue",
    "WaitingQueue",
    "ActiveInferenceTable",
    "DependencyTracker",
]


@dataclass
class PendingQueue:
    """At-most-one waiting request per model; stale frames are dropped.

    Legacy single-tenant structure, kept as public API alongside
    :class:`ActiveInferenceTable`; the multi-tenant event loop's live
    waiting state is :class:`WaitingQueue` below.
    """

    _waiting: dict[str, InferenceRequest] = field(default_factory=dict)
    dropped: list[InferenceRequest] = field(default_factory=list)

    def offer(self, request: InferenceRequest) -> InferenceRequest | None:
        """Add a request; returns the displaced stale request, if any."""
        stale = self._waiting.get(request.model_code)
        if stale is not None:
            stale.dropped = True
            self.dropped.append(stale)
        self._waiting[request.model_code] = request
        return stale

    def take(self, request: InferenceRequest) -> None:
        """Remove a request that is about to be dispatched."""
        current = self._waiting.get(request.model_code)
        if current is not request:
            raise ValueError(
                f"request {request!r} is not waiting (queue holds {current!r})"
            )
        del self._waiting[request.model_code]

    def waiting(self) -> list[InferenceRequest]:
        """All waiting requests, oldest data first."""
        return sorted(
            self._waiting.values(),
            key=lambda r: (r.request_time_s, r.model_code),
        )

    def __len__(self) -> int:
        return len(self._waiting)


def _dispatch_order(item: WorkItem) -> tuple[float, int, str]:
    """Global dispatch order: oldest data first, session/model tie-breaks."""
    return (
        item.request.request_time_s,
        item.session_id,
        item.request.model_code,
    )


@dataclass
class WaitingQueue:
    """All sessions' waiting work, maintained in dispatch order.

    The multi-tenant counterpart of :class:`PendingQueue`: at most one
    waiting :class:`WorkItem` per (session, model); offering a fresh
    frame drops the stale one (frame-freshness policy).  Items are kept
    sorted by ``(request_time_s, session_id, model_code)`` — inserted and
    removed by bisection — so reading the queue is free for the event
    loop and for schedulers, which receive this object directly as their
    waiting view.  Treat it as read-only inside a scheduler: only the
    event loop offers and takes.

    The sort keys live in ``_keys``, a list kept exactly parallel to
    ``_items``: bisection then compares plain tuples instead of calling
    a key function O(log n) times per insert/remove, which is the hot
    cost at fleet scale (the key is computed once per offer).  The key
    fields are stable for a waiting item — request times are only ever
    shifted *before* the item is offered — so the parallel lists cannot
    drift.
    """

    _items: list[WorkItem] = field(default_factory=list)
    _keys: list[tuple[float, int, str]] = field(default_factory=list)
    _by_key: dict[tuple[int, str], WorkItem] = field(default_factory=dict)

    def offer(self, item: WorkItem) -> WorkItem | None:
        """Add a fresh work item; returns the displaced stale item, if any.

        The stale item's request is marked dropped, as in
        :meth:`PendingQueue.offer`; the request's flag and the returned
        item are the record of the drop.
        """
        request = item.request
        key = (item.session_id, request.model_code)
        stale = self._by_key.get(key)
        if stale is not None:
            index = self._locate(stale)
            del self._items[index]
            del self._keys[index]
            stale.request.dropped = True
        self._by_key[key] = item
        order = (request.request_time_s, item.session_id,
                 request.model_code)
        index = bisect_right(self._keys, order)
        self._items.insert(index, item)
        self._keys.insert(index, order)
        return stale

    def take(self, item: WorkItem) -> None:
        """Remove an item that is about to be dispatched."""
        key = (item.session_id, item.request.model_code)
        current = self._by_key.get(key)
        if current is not item:
            raise ValueError(
                f"work item {item!r} is not waiting "
                f"(queue holds {current!r})"
            )
        index = self._locate(item)
        del self._items[index]
        del self._keys[index]
        del self._by_key[key]

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
        retired = [
            item for item in self._items if item.session_id == session_id
        ]
        if not retired:
            return []
        kept = [
            (key, item)
            for key, item in zip(self._keys, self._items)
            if item.session_id != session_id
        ]
        self._keys = [key for key, _ in kept]
        self._items = [item for _, item in kept]
        for item in retired:
            del self._by_key[(session_id, item.request.model_code)]
            item.request.dropped = True
        return retired

    def _locate(self, item: WorkItem) -> int:
        """Index of ``item`` in the sorted list (identity match)."""
        index = bisect_left(self._keys, _dispatch_order(item))
        while index < len(self._items):
            if self._items[index] is item:
                return index
            index += 1
        raise ValueError(f"work item {item!r} is not in the queue")

    # -- read-only sequence view (what schedulers see) -----------------------

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __getitem__(self, index: int) -> WorkItem:
        return self._items[index]

    def __iter__(self) -> Iterator[WorkItem]:
        return iter(self._items)


@dataclass
class ActiveInferenceTable:
    """Which request is running on which engine."""

    _active: dict[int, InferenceRequest] = field(default_factory=dict)

    def start(self, sub_index: int, request: InferenceRequest) -> None:
        if sub_index in self._active:
            raise ValueError(
                f"engine {sub_index} is already running "
                f"{self._active[sub_index]!r} (hardware-occupancy condition)"
            )
        self._active[sub_index] = request

    def finish(self, sub_index: int) -> InferenceRequest:
        try:
            return self._active.pop(sub_index)
        except KeyError:
            raise ValueError(f"engine {sub_index} is idle") from None

    def idle_engines(self, num_subs: int) -> list[int]:
        return [i for i in range(num_subs) if i not in self._active]

    def running(self) -> dict[int, InferenceRequest]:
        return dict(self._active)

    def __len__(self) -> int:
        return len(self._active)


@dataclass
class DependencyTracker:
    """Maps completed upstream inferences to downstream spawns."""

    scenario: UsageScenario

    def downstream_of(self, model_code: str) -> list[Dependency]:
        """Dependencies that fire when ``model_code`` completes a frame."""
        return [
            d for d in self.scenario.dependencies if d.upstream == model_code
        ]
