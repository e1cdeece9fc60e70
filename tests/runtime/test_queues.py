"""Tests for the waiting queue, active table and dependency tracker."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from test_schedule_equivalence import REQUEST_CELLS, run_case

import repro.runtime.multisim as multisim
from repro.hardware import build_accelerator
from repro.runtime import (
    DependencyTracker,
    MultiScenarioSimulator,
    WaitingQueue,
    WorkItem,
    make_scheduler,
)
from repro.workload import InferenceRequest, get_scenario


def req(code="HT", frame=0, t=0.0):
    return InferenceRequest(code, frame, t, t + 0.033)


def item(code="HT", frame=0, t=0.0, session=0):
    return WorkItem(request=req(code, frame, t), session_id=session)


class TestWaitingQueue:
    def test_offer_and_read(self):
        q = WaitingQueue()
        a = item()
        assert q.offer(a) is None
        assert list(q) == [a]
        assert q[0] is a
        assert len(q) == 1 and bool(q)

    def test_kept_in_dispatch_order(self):
        # Sorted by (request_time_s, session_id, model_code), regardless
        # of offer order.
        q = WaitingQueue()
        late = item("HT", t=0.5, session=0)
        early_hi = item("ES", t=0.1, session=1)
        early_lo = item("OD", t=0.1, session=0)
        for work in (late, early_hi, early_lo):
            q.offer(work)
        assert list(q) == [early_lo, early_hi, late]

    def test_stale_frame_dropped_per_session_and_model(self):
        q = WaitingQueue()
        old = item("HT", frame=0, t=0.0, session=1)
        new = item("HT", frame=1, t=0.033, session=1)
        other_session = item("HT", frame=0, t=0.0, session=2)
        q.offer(old)
        q.offer(other_session)
        displaced = q.offer(new)
        assert displaced is old
        assert old.request.dropped
        assert not new.request.dropped
        # The same model in a different session is untouched.
        assert not other_session.request.dropped
        assert list(q) == [other_session, new]

    def test_purge_session_retires_only_that_session(self):
        q = WaitingQueue()
        late = item("HT", t=0.5, session=1)
        early = item("ES", t=0.1, session=1)
        other = item("HT", t=0.2, session=2)
        for work in (late, early, other):
            q.offer(work)
        assert q.purge_session(1) == [early, late]
        assert early.request.dropped and late.request.dropped
        assert not other.request.dropped
        assert list(q) == [other]
        assert q.peek(1, "HT") is None
        assert q.purge_session(1) == []

    def test_take_removes(self):
        q = WaitingQueue()
        a, b = item("HT", session=0), item("ES", session=0)
        q.offer(a)
        q.offer(b)
        q.take(a)
        assert list(q) == [b]

    def test_take_unknown_item_raises(self):
        q = WaitingQueue()
        a = item("HT", frame=0)
        q.offer(a)
        with pytest.raises(ValueError, match="not waiting"):
            q.take(item("HT", frame=1))

    def test_take_displaced_item_raises(self):
        # After a fresh frame displaces it, the stale item is gone.
        q = WaitingQueue()
        old, new = item("HT", frame=0), item("HT", frame=1, t=0.033)
        q.offer(old)
        q.offer(new)
        with pytest.raises(ValueError, match="not waiting"):
            q.take(old)

    def test_equal_sort_keys_coexist(self):
        # Same-instant frames of one model differ only by session id;
        # taking the middle one must leave the others in order.
        q = WaitingQueue()
        a = item("HT", t=0.2, session=0)
        b = item("HT", t=0.2, session=1)
        c = item("HT", t=0.2, session=2)
        for work in (a, b, c):
            q.offer(work)
        q.take(b)
        assert list(q) == [a, c]


class _ReferenceQueue:
    """The waiting-queue contract at its plainest: one dict keyed by
    (session, model), sorted by dispatch key on every read."""

    def __init__(self) -> None:
        self.by_key: dict[tuple[int, str], WorkItem] = {}

    def order(self) -> list[WorkItem]:
        return sorted(
            self.by_key.values(),
            key=lambda w: (w.request.request_time_s, w.session_id,
                           w.request.model_code),
        )


_SESSION = st.integers(0, 2)
_MODEL = st.sampled_from(["ES", "GE", "HT"])
#: One queue operation.  ``arrive`` steps the clock forward (a zero step
#: is a same-instant offer, from any session in any order); ``retry``
#: re-offers at an older time, as a fault retry does; ``take`` takes the
#: item at a position of the dispatch order (0 is the head);
#: ``take_gone`` takes an item that no longer waits, which must raise.
_OPERATION = st.one_of(
    st.tuples(st.just("arrive"), st.sampled_from([0.0, 0.0, 0.25, 1.0]),
              _SESSION, _MODEL),
    st.tuples(st.just("retry"), st.sampled_from([0.25, 0.5, 2.0]),
              _SESSION, _MODEL),
    st.tuples(st.just("take"), st.integers(0, 12)),
    st.tuples(st.just("take_gone"), st.integers(0, 50)),
    st.tuples(st.just("peek"), _SESSION, _MODEL),
    st.tuples(st.just("purge"), _SESSION),
)


class TestWaitingQueueAgainstReference:
    """Random operation sequences: the maintained queue must read exactly
    like a dict sorted on every read.

    Reading the order restores it, so each operation draws how the test
    reads it afterwards — not at all, by iteration, or by indexing the
    head or the tail: unread, an out-of-order offer stays pending into
    the operations that follow, and each read path gets to restore it."""

    @settings(max_examples=150, deadline=None)
    @given(operations=st.lists(
        st.tuples(_OPERATION,
                  st.sampled_from([None, None, None, "iter", "head",
                                   "tail"])),
        min_size=20, max_size=80,
    ))
    def test_matches_sorted_dict(self, operations):
        queue, ref = WaitingQueue(), _ReferenceQueue()
        created: list[WorkItem] = []
        dropped: set[int] = set()
        gone: list[WorkItem] = []
        clock = 0.0
        for index, (op, read) in enumerate(operations):
            kind = op[0]
            if kind in ("arrive", "retry"):
                _, step, session, model = op
                if kind == "arrive":
                    clock += step
                    t = clock
                else:
                    t = max(0.0, clock - step)
                work = item(model, frame=len(created), t=t, session=session)
                created.append(work)
                stale = queue.offer(work)
                expected = ref.by_key.pop((session, model), None)
                ref.by_key[(session, model)] = work
                assert stale is expected
                if expected is not None:
                    dropped.add(id(expected))
                    gone.append(expected)
            elif kind == "take":
                order = ref.order()
                if not order:
                    continue
                work = order[op[1] % len(order)]
                queue.take(work)
                del ref.by_key[(work.session_id, work.request.model_code)]
                gone.append(work)
            elif kind == "take_gone":
                if not gone:
                    continue
                with pytest.raises(ValueError, match="not waiting"):
                    queue.take(gone[op[1] % len(gone)])
            elif kind == "peek":
                _, session, model = op
                assert queue.peek(session, model) is ref.by_key.get(
                    (session, model)
                )
            else:
                session = op[1]
                expected = [
                    w for w in ref.order() if w.session_id == session
                ]
                retired = queue.purge_session(session)
                assert [id(w) for w in retired] == [id(w) for w in expected]
                for work in expected:
                    del ref.by_key[(session, work.request.model_code)]
                    dropped.add(id(work))
                    gone.append(work)
            order = ref.order()
            assert len(queue) == len(order)
            assert bool(queue) == bool(order)
            assert [w.request.dropped for w in created] == [
                id(w) in dropped for w in created
            ]
            if index == len(operations) - 1:
                read = "iter"
            if read == "iter":
                assert [id(w) for w in queue] == [id(w) for w in order]
            elif read == "head" and order:
                assert queue[0] is order[0]
            elif read == "tail" and order:
                assert queue[-1] is order[-1]


class _CountingQueue(WaitingQueue):
    """A WaitingQueue that counts its re-sorts (test instrumentation)."""

    instances: list["_CountingQueue"] = []

    def __init__(self) -> None:
        super().__init__()
        self.resorts = 0
        _CountingQueue.instances.append(self)

    def _restore_order(self) -> None:
        self.resorts += 1
        super()._restore_order()


@pytest.fixture
def counting_queue(monkeypatch):
    _CountingQueue.instances = []
    monkeypatch.setattr(multisim, "WaitingQueue", _CountingQueue)
    yield _CountingQueue


class TestReSortsInRealRuns:
    """Arrivals come in time order, so a run re-sorts only where an offer
    lands out of order: a requeued fault retry (or a same-instant tie)."""

    def test_static_fleet_never_resorts(self, counting_queue):
        result = MultiScenarioSimulator.replicate(
            get_scenario("vr_gaming"),
            build_accelerator("J", 8192),
            make_scheduler("latency_greedy"),
            64,
            duration_s=0.5,
        ).run()
        (queue,) = counting_queue.instances
        assert sum(r.dropped for r in result.all_requests()) > 1000, (
            "the fleet should supersede thousands of waiting frames"
        )
        assert queue.resorts == 0

    def test_resorts_only_for_requeued_retries(self, counting_queue):
        result = run_case(**REQUEST_CELLS["flaky_4"])
        (queue,) = counting_queue.instances
        requeued = sum(
            action.kind == "requeued"
            for session in result.sessions
            for action in session.faults.actions
        )
        assert requeued > 0, "the flaky cell should requeue killed work"
        assert queue.resorts == requeued


class TestDependencyTracker:
    def test_downstream_of_upstream(self):
        tracker = DependencyTracker(get_scenario("vr_gaming"))
        deps = tracker.downstream_of("ES")
        assert [d.downstream for d in deps] == ["GE"]

    def test_no_downstream(self):
        tracker = DependencyTracker(get_scenario("vr_gaming"))
        assert tracker.downstream_of("HT") == []
