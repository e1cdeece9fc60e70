"""Tests for the waiting queue, active table and dependency tracker."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from sim_helpers import replicate
from test_schedule_equivalence import REQUEST_CELLS, run_case

import repro.runtime.multisim as multisim
from repro.hardware import build_accelerator
from repro.runtime.queues import DEADLINE_VIEW_BOUND
from repro.runtime import (
    DependencyTracker,
    WaitingQueue,
    WorkItem,
    make_scheduler,
)
from repro.workload import InferenceRequest, get_scenario


def req(code="HT", frame=0, t=0.0, slack=0.033):
    return InferenceRequest(code, frame, t, t + slack)


def item(code="HT", frame=0, t=0.0, session=0, slack=0.033):
    return WorkItem(request=req(code, frame, t, slack), session_id=session)


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

    def test_earliest_deadline(self):
        q = WaitingQueue()
        assert q.earliest_deadline() is None
        relaxed = item("HT", t=0.0, session=0, slack=0.5)
        urgent = item("ES", t=0.1, session=0, slack=0.1)
        # Same deadline as ``urgent``, but older data: it goes first.
        older = item("GE", t=0.0, session=1, slack=0.2)
        for work in (relaxed, urgent, older):
            q.offer(work)
        assert q.earliest_deadline() is older
        q.take(older)
        assert q.earliest_deadline() is urgent
        # A fresher frame supersedes ``urgent``; the view follows.
        fresh = item("ES", t=0.2, session=0, slack=0.1)
        q.offer(fresh)
        assert q.earliest_deadline() is fresh
        q.take(fresh)
        q.take(relaxed)
        assert q.earliest_deadline() is None

    def test_earliest_deadline_sees_a_requeued_item(self):
        # A fault retry offers the very item that was taken.
        q = WaitingQueue()
        a = item("HT", t=0.0, session=0, slack=0.1)
        b = item("ES", t=0.0, session=0, slack=0.2)
        q.offer(a)
        q.offer(b)
        assert q.earliest_deadline() is a
        q.take(a)
        assert q.earliest_deadline() is b
        q.offer(a)
        assert q.earliest_deadline() is a
        q.take(a)
        assert q.earliest_deadline() is b


class _ReferenceQueue:
    """The waiting-queue contract at its plainest: one dict keyed by
    (session, model), sorted by dispatch key on every read, and scanned
    for the earliest deadline the way EDF scans a plain sequence."""

    def __init__(self) -> None:
        self.by_key: dict[tuple[int, str], WorkItem] = {}

    def order(self) -> list[WorkItem]:
        return sorted(
            self.by_key.values(),
            key=lambda w: (w.request.request_time_s, w.session_id,
                           w.request.model_code),
        )

    def earliest_deadline(self) -> WorkItem | None:
        order = self.order()
        if not order:
            return None
        return min(
            order,
            key=lambda w: (w.request.deadline_s, w.request.request_time_s),
        )


_SESSION = st.integers(0, 2)
_MODEL = st.sampled_from(["ES", "GE", "HT"])
#: Deadline slack of an offer.  The clock moves in quarter seconds, so
#: these make deadlines tie across request times and sessions, and put
#: deadline order apart from dispatch order.
_SLACK = st.sampled_from([0.0, 0.25, 0.5, 1.0])
#: One queue operation.  ``arrive`` steps the clock forward (a zero step
#: is a same-instant offer, from any session in any order); ``retry``
#: re-offers at an older time; ``requeue`` re-offers an item taken
#: earlier, the same object, as a fault retry does; ``take`` takes the
#: item at a position of the dispatch order (0 is the head);
#: ``take_gone`` takes an item that no longer waits, which must raise.
_OPERATION = st.one_of(
    st.tuples(st.just("arrive"), st.sampled_from([0.0, 0.0, 0.25, 1.0]),
              _SESSION, _MODEL, _SLACK),
    st.tuples(st.just("retry"), st.sampled_from([0.25, 0.5, 2.0]),
              _SESSION, _MODEL, _SLACK),
    st.tuples(st.just("requeue"), st.integers(0, 50)),
    st.tuples(st.just("take"), st.integers(0, 12)),
    st.tuples(st.just("take_gone"), st.integers(0, 50)),
    st.tuples(st.just("peek"), _SESSION, _MODEL),
    st.tuples(st.just("purge"), _SESSION),
)


class TestWaitingQueueAgainstReference:
    """Random operation sequences: the maintained queue must read exactly
    like a dict sorted on every read.

    Reading the order restores it, so each operation draws how the test
    reads it afterwards — not at all, by iteration, by indexing the head
    or the tail, or by earliest deadline: unread, an out-of-order offer
    stays pending into the operations that follow, and each read path
    gets to restore it.  The deadline view is built on its first read
    and dropped whenever the queue empties, so its lazy deletion and
    rebuilds run between reads too; it may never hold more than
    ``DEADLINE_VIEW_BOUND`` entries per waiting item."""

    @settings(max_examples=150, deadline=None)
    @given(operations=st.lists(
        st.tuples(_OPERATION,
                  st.sampled_from([None, None, None, "iter", "head",
                                   "tail", "edf", "edf"])),
        min_size=20, max_size=80,
    ))
    def test_matches_sorted_dict(self, operations):
        queue, ref = WaitingQueue(), _ReferenceQueue()
        created: list[WorkItem] = []
        dropped: set[int] = set()
        gone: list[WorkItem] = []
        taken: list[WorkItem] = []
        clock = 0.0
        high_water = 0
        for index, (op, read) in enumerate(operations):
            kind = op[0]
            if kind in ("arrive", "retry", "requeue"):
                if kind == "requeue":
                    # Only an item that no longer waits and was never
                    # dropped can come back, as a killed dispatch does.
                    candidates = [
                        w for w in taken
                        if id(w) not in dropped
                        and ref.by_key.get(
                            (w.session_id, w.request.model_code)
                        ) is not w
                    ]
                    if not candidates:
                        continue
                    work = candidates[op[1] % len(candidates)]
                    session = work.session_id
                    model = work.request.model_code
                else:
                    _, step, session, model, slack = op
                    if kind == "arrive":
                        clock += step
                        t = clock
                    else:
                        t = max(0.0, clock - step)
                    work = item(model, frame=len(created), t=t,
                                session=session, slack=slack)
                    created.append(work)
                stale = queue.offer(work)
                expected = ref.by_key.pop((session, model), None)
                ref.by_key[(session, model)] = work
                assert stale is expected
                if expected is not None:
                    dropped.add(id(expected))
                    gone.append(expected)
                high_water = max(high_water, len(ref.by_key))
                deadlines = queue._deadlines
                if deadlines is not None:
                    assert len(deadlines) <= (
                        DEADLINE_VIEW_BOUND * len(ref.by_key)
                    )
            elif kind == "take":
                order = ref.order()
                if not order:
                    continue
                work = order[op[1] % len(order)]
                queue.take(work)
                del ref.by_key[(work.session_id, work.request.model_code)]
                gone.append(work)
                taken.append(work)
            elif kind == "take_gone":
                absent = [
                    w for w in gone
                    if ref.by_key.get(
                        (w.session_id, w.request.model_code)
                    ) is not w
                ]
                if not absent:
                    continue
                with pytest.raises(ValueError, match="not waiting"):
                    queue.take(absent[op[1] % len(absent)])
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
            deadlines = queue._deadlines
            if deadlines is not None:
                assert len(deadlines) <= DEADLINE_VIEW_BOUND * high_water
            if index == len(operations) - 1:
                read = "iter"
            if read == "iter":
                assert [id(w) for w in queue] == [id(w) for w in order]
            elif read == "head" and order:
                assert queue[0] is order[0]
            elif read == "tail" and order:
                assert queue[-1] is order[-1]
            elif read == "edf":
                assert queue.earliest_deadline() is ref.earliest_deadline()


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
    lands out of order — a requeued fault retry (or a same-instant tie)
    — and then only if a policy reads the dispatch order afterwards."""

    def test_static_fleet_never_resorts(self, counting_queue):
        result = replicate(
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

    @staticmethod
    def requeued(result) -> int:
        return sum(
            action.kind == "requeued"
            for session in result.sessions
            for action in session.faults.actions
        )

    def test_resorts_only_for_requeued_retries(self, counting_queue):
        # latency_greedy reads the head on every dispatch, so each
        # requeued retry costs exactly one re-sort.
        result = run_case(
            **dict(REQUEST_CELLS["flaky_4"], scheduler="latency_greedy")
        )
        (queue,) = counting_queue.instances
        requeued = self.requeued(result)
        assert requeued > 0, "the flaky cell should requeue killed work"
        assert queue.resorts == requeued

    def test_edf_never_reads_the_dispatch_order(self, counting_queue):
        # EDF reads the deadline view: its requeued retries leave the
        # dispatch order stale, and nothing re-sorts it.
        result = run_case(**REQUEST_CELLS["flaky_4"])
        (queue,) = counting_queue.instances
        assert self.requeued(result) > 0, (
            "the flaky cell should requeue killed work"
        )
        assert queue.resorts == 0


class TestDependencyTracker:
    def test_downstream_of_upstream(self):
        tracker = DependencyTracker(get_scenario("vr_gaming"))
        deps = tracker.downstream_of("ES")
        assert [d.downstream for d in deps] == ["GE"]

    def test_no_downstream(self):
        tracker = DependencyTracker(get_scenario("vr_gaming"))
        assert tracker.downstream_of("HT") == ()
