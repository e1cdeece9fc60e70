"""Tests for the waiting queue and the active table."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from sim_helpers import replicate
from test_schedule_equivalence import REQUEST_CELLS, run_case

import repro.runtime.multisim as multisim
from repro.api import RunSpec, execute
from repro.hardware import build_accelerator
from repro.runtime.queues import DEADLINE_VIEW_BOUND
from repro.runtime import (
    WaitingQueue,
    WorkItem,
    make_scheduler,
)
from repro.runtime.segmentation import SegmentChain
from repro.workload import InferenceRequest, get_scenario


def req(code="HT", frame=0, t=0.0, slack=0.033):
    return InferenceRequest(code, frame, t, t + slack)


#: Whole-model chains of every code the tests offer.
CHAINS = {
    code: SegmentChain(code, (None,)) for code in ("ES", "GE", "HT", "OD")
}


def queue() -> WaitingQueue:
    return WaitingQueue(CHAINS)


def requests(q: WaitingQueue) -> list[tuple[int, int]]:
    """(session, request identity) of each waiting item, dispatch order."""
    return [(w.session_id, id(w.request)) for w in q]


def entries(*pairs: tuple[int, InferenceRequest]) -> list[tuple[int, int]]:
    return [(session, id(request)) for session, request in pairs]


class TestWaitingQueue:
    def test_offer_and_read(self):
        q = queue()
        a = req()
        assert q.offer(a, 0) is None
        assert requests(q) == entries((0, a))
        assert q[0] == WorkItem(a, 0)
        assert len(q) == 1 and bool(q)

    def test_kept_in_dispatch_order(self):
        # Sorted by (request_time_s, session_id, model_code), regardless
        # of offer order.
        q = queue()
        late = req("HT", t=0.5)
        early_hi = req("ES", t=0.1)
        early_lo = req("OD", t=0.1)
        for request, session in ((late, 0), (early_hi, 1), (early_lo, 0)):
            q.offer(request, session)
        assert requests(q) == entries((0, early_lo), (1, early_hi), (0, late))

    def test_stale_frame_dropped_per_session_and_model(self):
        q = queue()
        old = req("HT", frame=0, t=0.0)
        new = req("HT", frame=1, t=0.033)
        other_session = req("HT", frame=0, t=0.0)
        q.offer(old, 1)
        q.offer(other_session, 2)
        assert q.offer(new, 1) is None
        assert old.dropped
        assert not new.dropped
        # The same model in a different session is untouched.
        assert not other_session.dropped
        assert requests(q) == entries((2, other_session), (1, new))

    def test_purge_session_retires_only_that_session(self):
        q = queue()
        late = req("HT", t=0.5)
        early = req("ES", t=0.1)
        other = req("HT", t=0.2)
        for request, session in ((late, 1), (early, 1), (other, 2)):
            q.offer(request, session)
        # A request a read turned into an item retires the same way.
        assert q.peek(1, "ES").request is early
        assert q.purge_session(1) is None
        assert early.dropped and late.dropped
        assert not other.dropped
        assert requests(q) == entries((2, other))
        assert q.peek(1, "HT") is None
        q.purge_session(1)
        assert requests(q) == entries((2, other))

    def test_take_removes(self):
        q = queue()
        a, b = req("HT"), req("ES")
        q.offer(a, 0)
        q.offer(b, 0)
        q.take(q.peek(0, "HT"))
        assert requests(q) == entries((0, b))

    def test_take_unknown_item_raises(self):
        q = queue()
        a = req("HT", frame=0)
        q.offer(a, 0)
        with pytest.raises(ValueError, match="not waiting"):
            q.take(WorkItem(req("HT", frame=1), 0))
        # Nor is an equal copy of the waiting item that item.
        with pytest.raises(ValueError, match="not waiting"):
            q.take(WorkItem(a, 0))

    def test_take_displaced_item_raises(self):
        # After a fresh frame displaces it, the stale item is gone.
        q = queue()
        q.offer(req("HT", frame=0), 0)
        old = q[0]
        q.offer(req("HT", frame=1, t=0.033), 0)
        with pytest.raises(ValueError, match="not waiting"):
            q.take(old)

    def test_equal_sort_keys_coexist(self):
        # Same-instant frames of one model differ only by session id;
        # taking the middle one must leave the others in order.
        q = queue()
        a, b, c = req("HT", t=0.2), req("HT", t=0.2), req("HT", t=0.2)
        for session, request in enumerate((a, b, c)):
            q.offer(request, session)
        q.take(q.peek(1, "HT"))
        assert requests(q) == entries((0, a), (2, c))

    def test_earliest_deadline(self):
        q = queue()
        assert q.earliest_deadline() is None
        relaxed = req("HT", t=0.0, slack=0.5)
        urgent = req("ES", t=0.1, slack=0.1)
        # Same deadline as ``urgent``, but older data: it goes first.
        older = req("GE", t=0.0, slack=0.2)
        for request, session in ((relaxed, 0), (urgent, 0), (older, 1)):
            q.offer(request, session)
        first = q.earliest_deadline()
        assert first.request is older and first.session_id == 1
        q.take(first)
        assert q.earliest_deadline().request is urgent
        # A fresher frame supersedes ``urgent``; the view follows.
        fresh = req("ES", t=0.2, slack=0.1)
        q.offer(fresh, 0)
        assert q.earliest_deadline().request is fresh
        q.take(q.earliest_deadline())
        q.take(q.earliest_deadline())
        assert q.earliest_deadline() is None

    def test_earliest_deadline_sees_a_requeued_item(self):
        # A fault retry requeues the very item that was taken.
        q = queue()
        q.offer(req("HT", t=0.0, slack=0.1), 0)
        q.offer(req("ES", t=0.0, slack=0.2), 0)
        a = q.earliest_deadline()
        assert a.request.model_code == "HT"
        q.take(a)
        b = q.earliest_deadline()
        assert b.request.model_code == "ES"
        q.requeue(a)
        assert q.earliest_deadline() is a
        q.take(a)
        assert q.earliest_deadline() is b

    @pytest.mark.parametrize("first", ["head", "iter", "peek", "edf"])
    def test_reads_return_one_object(self, first):
        # Whichever read builds the waiting request's item, every other
        # read returns that same object, and take() accepts it.
        q = queue()
        request = req("HT", t=0.1)
        q.offer(request, 3)
        reads = {
            "head": lambda: q[0],
            "iter": lambda: list(q)[0],
            "peek": lambda: q.peek(3, "HT"),
            "edf": q.earliest_deadline,
        }
        item = reads.pop(first)()
        assert item == WorkItem(request, 3)
        assert item.chain is CHAINS["HT"]
        for read in reads.values():
            assert read() is item
        q.take(item)
        assert not q

    def test_item_starts_the_requests_chain(self):
        # A split model's request waits for its first segment.
        chain = SegmentChain("HT", ("HT.0", "HT.1", "HT.2"))
        q = WaitingQueue({"HT": chain})
        request = req("HT")
        q.offer(request, 0)
        assert q[0] == WorkItem(request, 0, 0, 3, "HT.0")
        assert q[0].chain is chain


class _ReferenceQueue:
    """The waiting-queue contract at its plainest: one dict of waiting
    requests keyed by (session, model), sorted by dispatch key on every
    read, and scanned for the earliest deadline the way EDF scans a
    plain sequence."""

    def __init__(self) -> None:
        self.by_key: dict[tuple[int, str], InferenceRequest] = {}

    def order(self) -> list[tuple[int, InferenceRequest]]:
        return sorted(
            ((session, request)
             for (session, _), request in self.by_key.items()),
            key=lambda entry: (entry[1].request_time_s, entry[0],
                               entry[1].model_code),
        )

    def earliest_deadline(self) -> tuple[int, InferenceRequest] | None:
        order = self.order()
        if not order:
            return None
        return min(
            order,
            key=lambda entry: (entry[1].deadline_s,
                               entry[1].request_time_s),
        )


_SESSION = st.integers(0, 2)
_MODEL = st.sampled_from(["ES", "GE", "HT"])
#: Deadline slack of an offer.  The clock moves in quarter seconds, so
#: these make deadlines tie across request times and sessions, and put
#: deadline order apart from dispatch order.
_SLACK = st.sampled_from([0.0, 0.25, 0.5, 1.0])
#: One queue operation.  ``arrive`` steps the clock forward (a zero step
#: is a same-instant offer, from any session in any order); ``retry``
#: offers at an older time; ``requeue`` brings back an item taken
#: earlier, the same object, as a fault retry does; ``take`` takes the
#: item at a position of the dispatch order (0 is the head);
#: ``take_gone`` takes an item that no longer waits, or an equal copy
#: of one that does, which must raise.
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
    like a dict of requests sorted on every read, and every read of one
    waiting request must return the same work item.

    Reading the order restores it, so each operation draws how the test
    reads it afterwards — not at all, by iteration, by indexing the head
    or the tail, or by earliest deadline: unread, an out-of-order offer
    stays pending into the operations that follow, and each read path
    gets to restore it.  Takes find their item through ``peek``, which
    leaves the order alone.  The deadline view is built on its first
    read and dropped whenever the queue empties, so its lazy deletion
    and rebuilds run between reads too; it may never hold more than
    ``DEADLINE_VIEW_BOUND`` entries per waiting request."""

    @settings(max_examples=150, deadline=None)
    @given(operations=st.lists(
        st.tuples(_OPERATION,
                  st.sampled_from([None, None, None, "iter", "head",
                                   "tail", "edf", "edf"])),
        min_size=20, max_size=80,
    ))
    def test_matches_sorted_dict(self, operations):
        queue, ref = WaitingQueue(CHAINS), _ReferenceQueue()
        created: list[InferenceRequest] = []
        dropped: set[int] = set()
        #: The item reads returned for the request waiting under a key.
        items: dict[tuple[int, str], WorkItem] = {}
        gone: list[WorkItem] = []
        taken: list[WorkItem] = []
        clock = 0.0
        high_water = 0

        def read(key: tuple[int, str], work: WorkItem) -> None:
            """A read returned ``work`` for ``key``: it is the waiting
            request's one item."""
            assert work.session_id == key[0]
            assert work.request is ref.by_key[key]
            assert work is items.setdefault(key, work)
            assert work == WorkItem(work.request, key[0])

        def supersede(key: tuple[int, str]) -> None:
            stale = ref.by_key.pop(key, None)
            if stale is not None:
                dropped.add(id(stale))
            if key in items:
                gone.append(items.pop(key))

        for index, (op, mode) in enumerate(operations):
            kind = op[0]
            if kind in ("arrive", "retry"):
                _, step, session, model, slack = op
                if kind == "arrive":
                    clock += step
                    t = clock
                else:
                    t = max(0.0, clock - step)
                request = req(model, frame=len(created), t=t, slack=slack)
                created.append(request)
                key = (session, model)
                assert queue.offer(request, session) is None
                supersede(key)
                ref.by_key[key] = request
            elif kind == "requeue":
                # Only an item whose request no longer waits and was
                # never dropped can come back, as a killed dispatch does.
                candidates = [
                    w for w in taken
                    if id(w.request) not in dropped
                    and ref.by_key.get(
                        (w.session_id, w.request.model_code)
                    ) is not w.request
                ]
                if not candidates:
                    continue
                work = candidates[op[1] % len(candidates)]
                key = (work.session_id, work.request.model_code)
                queue.requeue(work)
                supersede(key)
                ref.by_key[key] = work.request
                items[key] = work
            elif kind == "take":
                order = ref.order()
                if not order:
                    continue
                session, request = order[op[1] % len(order)]
                key = (session, request.model_code)
                work = queue.peek(*key)
                read(key, work)
                queue.take(work)
                del ref.by_key[key]
                gone.append(items.pop(key))
                taken.append(work)
            elif kind == "take_gone":
                absent = [
                    w for w in gone
                    if items.get((w.session_id, w.request.model_code))
                    is not w
                ]
                copies = [
                    WorkItem(request, session)
                    for session, request in ref.order()
                ]
                pool = absent + copies
                if not pool:
                    continue
                with pytest.raises(ValueError, match="not waiting"):
                    queue.take(pool[op[1] % len(pool)])
            elif kind == "peek":
                _, session, model = op
                key = (session, model)
                work = queue.peek(session, model)
                if key in ref.by_key:
                    read(key, work)
                else:
                    assert work is None
            else:
                session = op[1]
                assert queue.purge_session(session) is None
                for key in [k for k in ref.by_key if k[0] == session]:
                    supersede(key)
            high_water = max(high_water, len(ref.by_key))
            order = ref.order()
            assert len(queue) == len(order)
            assert bool(queue) == bool(order)
            assert [r.dropped for r in created] == [
                id(r) in dropped for r in created
            ]
            deadlines = queue._deadlines
            if deadlines is not None:
                assert len(deadlines) <= DEADLINE_VIEW_BOUND * high_water
                if kind in ("arrive", "retry", "requeue"):
                    assert len(deadlines) <= (
                        DEADLINE_VIEW_BOUND * len(ref.by_key)
                    )
            if index == len(operations) - 1:
                mode = "iter"
            if mode == "iter":
                walked = list(queue)
                assert [(w.session_id, id(w.request)) for w in walked] == [
                    (session, id(request)) for session, request in order
                ]
                for work in walked:
                    read((work.session_id, work.request.model_code), work)
            elif mode in ("head", "tail") and order:
                session, request = order[0 if mode == "head" else -1]
                key = (session, request.model_code)
                read(key, queue[0 if mode == "head" else -1])
            elif mode == "edf":
                expected = ref.earliest_deadline()
                work = queue.earliest_deadline()
                if expected is None:
                    assert work is None
                else:
                    session, request = expected
                    read((session, request.model_code), work)


class _CountingQueue(WaitingQueue):
    """A WaitingQueue that counts its re-sorts (test instrumentation)."""

    instances: list["_CountingQueue"] = []

    def __init__(self, chains) -> None:
        super().__init__(chains)
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



class TestWorkItemsInRealRuns:
    """A waiting request becomes a work item only when a policy first
    reads it, so a frame superseded while it waits never becomes one."""

    def test_one_work_item_per_execution_record(self, monkeypatch):
        built = 0
        init = WorkItem.__init__

        def counting_init(self, *args, **kwargs):
            nonlocal built
            built += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(WorkItem, "__init__", counting_init)
        report = execute(RunSpec(
            scenario="vr_gaming", sessions=16, accelerator="J", pes=8192,
            duration_s=0.5,
        ))
        records = report.result.records
        requests = report.result.all_requests()
        # latency_greedy dispatches each head it reads, so every item
        # built runs, while most frames are superseded unread.
        assert len(requests) > 4 * len(records)
        assert built == len(records)
