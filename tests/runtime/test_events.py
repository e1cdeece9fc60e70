"""Tests for the event queue."""

from __future__ import annotations

import pytest

from repro.runtime import EventKind, EventQueue
from repro.workload import InferenceRequest


def req(code="HT", frame=0):
    return InferenceRequest(code, frame, 0.0, 1.0)


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(0.5, EventKind.ARRIVAL, req(frame=1))
        q.push(0.1, EventKind.ARRIVAL, req(frame=2))
        q.push(0.3, EventKind.ARRIVAL, req(frame=3))
        assert [q.pop_fields()[0] for _ in range(3)] == [0.1, 0.3, 0.5]

    def test_fifo_for_simultaneous_events(self):
        q = EventQueue()
        first, second = req(frame=1), req(frame=2)
        q.push(0.2, EventKind.ARRIVAL, first)
        q.push(0.2, EventKind.ARRIVAL, second)
        assert q.pop_fields()[3] is first
        assert q.pop_fields()[3] is second

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(0.0, EventKind.ARRIVAL, req())
        assert q and len(q) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError, match="empty"):
            EventQueue().pop_fields()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="event time"):
            EventQueue().push(-0.1, EventKind.ARRIVAL, req())
        q = EventQueue()
        with pytest.raises(ValueError, match="event time"):
            q.push_reserved(-0.1, q.reserve(1), EventKind.ARRIVAL, req())

    def test_next_time(self):
        q = EventQueue()
        assert q.next_time_s is None
        q.push(0.7, EventKind.ARRIVAL, req())
        assert q.next_time_s == 0.7

    def test_completion_carries_engine(self):
        q = EventQueue()
        q.push(0.4, EventKind.COMPLETION, req(), sub_index=2)
        _, _, kind, _, sub_index, _ = q.pop_fields()
        assert kind is EventKind.COMPLETION
        assert sub_index == 2

    def test_reserved_stream_pops_like_pushing_it_up_front(self):
        """A sorted run streamed one event at a time, each pushed under
        its reserved number when its predecessor pops, drains in the
        same (time, seq) order as the whole run pushed at once —
        including ties with events pushed before and after it."""
        run = [0.1, 0.1, 0.2, 0.3, 0.3]
        others = [(0.1, EventKind.COMPLETION), (0.3, EventKind.COMPLETION),
                  (0.2, EventKind.SESSION_LEAVE)]

        eager = EventQueue()
        eager.push(0.1, EventKind.SESSION_JOIN)
        for t in run:
            eager.push(t, EventKind.ARRIVAL)
        for t, kind in others:
            eager.push(t, kind)

        lazy = EventQueue()
        lazy.push(0.1, EventKind.SESSION_JOIN)
        first = lazy.reserve(len(run))
        lazy.push_reserved(run[0], first, EventKind.ARRIVAL, 0)
        for t, kind in others:
            lazy.push(t, kind)

        expected = [eager.pop_fields()[:3] for _ in range(len(eager))]
        popped = []
        while lazy:
            fields = lazy.pop_fields()
            popped.append(fields[:3])
            k = fields[3]
            if fields[2] is EventKind.ARRIVAL and k + 1 < len(run):
                lazy.push_reserved(
                    run[k + 1], first + k + 1, EventKind.ARRIVAL, k + 1
                )
            assert len(lazy) <= 1 + len(others)
        assert popped == expected
