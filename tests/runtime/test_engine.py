"""Tests for the ExecutionEngine abstraction and work items."""

from __future__ import annotations

import copy
import pickle

import pytest
from sim_helpers import price_table

from repro.costmodel import CostTable, DvfsPoint
from repro.hardware import build_accelerator
from repro.runtime import (
    EngineFleet,
    ExecutionEngine,
    ExecutionRecord,
    WorkItem,
)
from repro.workload import InferenceRequest


def req(code="HT", frame=0, t=0.0, deadline=0.033):
    return InferenceRequest(code, frame, t, deadline)


@pytest.fixture()
def engine():
    system = build_accelerator("J", 4096)
    return ExecutionEngine(sub=system.subs[0])


@pytest.fixture(scope="module")
def table():
    return CostTable()


class TestWorkItem:
    def test_defaults_whole_model(self):
        item = WorkItem(request=req())
        assert item.code == "HT"
        assert item.is_first_segment and item.is_final_segment
        assert item.num_segments == 1

    def test_segment_code_override(self):
        item = WorkItem(request=req("PD"), segment_index=0,
                        num_segments=2, task_code="PD.0")
        assert item.code == "PD.0"
        assert not item.is_final_segment

    def test_successor_advances_segment(self):
        item = WorkItem(request=req("PD"), num_segments=3, task_code="PD.0")
        nxt = item.successor("PD.1")
        assert nxt.segment_index == 1
        assert nxt.code == "PD.1"
        assert nxt.request is item.request

    def test_successor_of_final_raises(self):
        item = WorkItem(request=req())
        with pytest.raises(ValueError, match="no successor"):
            item.successor(None)

    def test_invalid_segment_index(self):
        with pytest.raises(ValueError, match="out of range"):
            WorkItem(request=req(), segment_index=2, num_segments=2)

    def test_session_identity_carried(self):
        item = WorkItem(request=req(), session_id=7)
        assert item.session_id == 7
        assert item.successor is not None  # frozen dataclass still usable


class TestExecutionEngine:
    def test_begin_occupies(self, engine, table):
        cost = table.cost("HT", engine.sub.dataflow, engine.sub.num_pes)
        item = WorkItem(request=req())
        end = engine.begin(item, 0.5, cost)
        assert end == pytest.approx(0.5 + cost.latency_s)
        assert not engine.idle
        assert engine.current is item
        assert engine.busy_until_s == pytest.approx(end)

    def test_double_begin_raises(self, engine, table):
        cost = table.cost("HT", engine.sub.dataflow, engine.sub.num_pes)
        engine.begin(WorkItem(request=req()), 0.0, cost)
        with pytest.raises(ValueError, match="hardware-occupancy"):
            engine.begin(WorkItem(request=req(frame=1)), 0.1, cost)

    def test_finish_idle_raises(self, engine):
        with pytest.raises(ValueError, match="idle"):
            engine.finish(0.0)

    def test_finish_emits_record(self, engine, table):
        cost = table.cost("HT", engine.sub.dataflow, engine.sub.num_pes)
        item = WorkItem(request=req(), session_id=3, segment_index=0,
                        num_segments=1)
        end = engine.begin(item, 0.25, cost)
        returned = engine.finish(end)
        assert returned is item
        assert engine.idle
        [record] = engine.records
        assert record.sub_index == engine.index
        assert record.session_id == 3
        assert record.model_code == "HT"
        assert record.start_s == pytest.approx(0.25)
        assert record.end_s == pytest.approx(end)
        assert record.energy_mj == pytest.approx(cost.energy_mj)

    def test_busy_time_accumulates(self, engine, table):
        cost = table.cost("HT", engine.sub.dataflow, engine.sub.num_pes)
        for frame in range(3):
            end = engine.begin(WorkItem(request=req(frame=frame)), 0.0, cost)
            engine.finish(end)
        assert engine.busy_time_s == pytest.approx(3 * cost.latency_s)

    def test_dvfs_point_slows_and_is_cached_separately(self):
        system = build_accelerator("J", 4096)
        prices = price_table(system, ("HT",), points=())
        eco = DvfsPoint("eco", 0.5)
        nominal = prices.engine_cost("HT", 0)
        scaled = prices.engine_cost("HT", 0, eco)
        assert scaled.latency_s == pytest.approx(2 * nominal.latency_s)
        # Both operating points are cached independently.
        assert prices.engine_cost("HT", 0, eco) is scaled
        assert prices.engine_cost("HT", 0) is nominal

    def test_describe_mentions_dvfs(self):
        system = build_accelerator("J", 4096)
        engine = ExecutionEngine(sub=system.subs[0])
        engine.set_operating_point(DvfsPoint("eco", 0.5), 0.0)
        assert "eco" in engine.describe()


class TestExecutionRecord:
    RECORD = ExecutionRecord(1, 2, "PD", 3, 0, 2, 0.001, 0.0025, 12.5,
                             "eco", True)

    def test_repr_is_stable(self):
        # perfbench digests repr() of the record log.
        assert repr(self.RECORD) == (
            "ExecutionRecord(sub_index=1, session_id=2, model_code='PD', "
            "model_frame=3, segment_index=0, num_segments=2, "
            "start_s=0.001, end_s=0.0025, energy_mj=12.5, dvfs='eco', "
            "aborted=True)"
        )

    def test_survives_pickle_and_deepcopy(self):
        # Pooled experiments send record logs between processes.
        clone = pickle.loads(pickle.dumps(self.RECORD))
        assert clone == self.RECORD
        assert copy.deepcopy(self.RECORD) == self.RECORD


class TestEngineFleet:
    @pytest.fixture()
    def fleet(self):
        system = build_accelerator("H", 4096)  # four engines
        return EngineFleet(
            [ExecutionEngine(sub=sub) for sub in system.subs]
        )

    def test_all_idle_initially_index_ordered(self, fleet):
        assert [e.index for e in fleet.idle] == [0, 1, 2, 3]
        assert len(fleet) == 4

    def test_begin_removes_from_idle(self, fleet, table):
        engine = fleet[2]
        cost = table.cost("HT", engine.sub.dataflow, engine.sub.num_pes)
        end = fleet.begin(engine, WorkItem(request=req()), 0.0, cost)
        assert end == pytest.approx(cost.latency_s)
        assert [e.index for e in fleet.idle] == [0, 1, 3]
        assert not engine.idle

    def test_finish_reinserts_in_index_order(self, fleet, table):
        cost = table.cost("HT", fleet[0].sub.dataflow, fleet[0].sub.num_pes)
        for frame, engine in enumerate(list(fleet)):
            fleet.begin(engine, WorkItem(request=req(frame=frame)), 0.0,
                        cost)
        assert fleet.idle == []
        # Release out of order; the idle list comes back index-sorted.
        for index in (3, 0, 2, 1):
            fleet.finish(index, 1.0)
        assert [e.index for e in fleet.idle] == [0, 1, 2, 3]

    def test_idle_list_is_live(self, fleet, table):
        # The event loop holds one reference for the whole run.
        idle = fleet.idle
        cost = table.cost("HT", fleet[0].sub.dataflow, fleet[0].sub.num_pes)
        fleet.begin(fleet[0], WorkItem(request=req()), 0.0, cost)
        assert [e.index for e in idle] == [1, 2, 3]
        fleet.finish(0, 1.0)
        assert [e.index for e in idle] == [0, 1, 2, 3]

    def test_busy_begin_keeps_idle_set_consistent(self, fleet, table):
        cost = table.cost("HT", fleet[0].sub.dataflow, fleet[0].sub.num_pes)
        fleet.begin(fleet[0], WorkItem(request=req()), 0.0, cost)
        with pytest.raises(ValueError, match="hardware-occupancy"):
            fleet.begin(fleet[0], WorkItem(request=req(frame=1)), 0.1, cost)
        assert [e.index for e in fleet.idle] == [1, 2, 3]

    def test_finish_idle_engine_raises_without_corruption(self, fleet):
        with pytest.raises(ValueError, match="idle"):
            fleet.finish(1, 0.0)
        assert [e.index for e in fleet.idle] == [0, 1, 2, 3]


class TestBusyTimeHorizon:
    def test_no_horizon_charges_full_latency(self, engine, table):
        cost = table.cost("HT", engine.sub.dataflow, engine.sub.num_pes)
        end = engine.begin(WorkItem(request=req()), 0.0, cost)
        engine.finish(end)
        assert engine.busy_time_s == pytest.approx(cost.latency_s)

    def test_horizon_clips_the_drain_tail(self, table):
        system = build_accelerator("J", 4096)
        cost = table.cost(
            "HT", system.subs[0].dataflow, system.subs[0].num_pes
        )
        horizon = cost.latency_s * 0.5
        engine = ExecutionEngine(sub=system.subs[0], horizon_s=horizon)
        start = cost.latency_s * 0.25
        end = engine.begin(WorkItem(request=req()), start, cost)
        engine.finish(end)
        # Only the overlap with [0, horizon] is charged.
        assert engine.busy_time_s == pytest.approx(horizon - start)

    def test_dispatch_past_horizon_charges_nothing(self, table):
        system = build_accelerator("J", 4096)
        cost = table.cost(
            "HT", system.subs[0].dataflow, system.subs[0].num_pes
        )
        engine = ExecutionEngine(sub=system.subs[0], horizon_s=0.01)
        end = engine.begin(WorkItem(request=req()), 0.02, cost)
        engine.finish(end)
        assert engine.busy_time_s == 0.0
        # The record still shows the true execution interval.
        assert engine.records[-1].start_s == pytest.approx(0.02)
        assert engine.records[-1].end_s == pytest.approx(end)


class TestOperatingPoint:
    def test_starts_at_base_point(self):
        # Every engine starts at nominal: no point, nothing logged.
        system = build_accelerator("J", 4096)
        engine = ExecutionEngine(sub=system.subs[0])
        assert engine.operating_point is None
        assert engine.effective_dvfs is None
        assert engine.dvfs_transitions == []
        assert engine.describe() == system.subs[0].describe()

    def test_set_operating_point_logs_transitions(self, engine):
        eco = DvfsPoint("eco", 0.5)
        engine.set_operating_point(eco, 0.25)
        engine.set_operating_point(eco, 0.30)  # no-op: already there
        engine.set_operating_point(None, 0.50)
        assert engine.dvfs_transitions == [
            (0.25, None, eco), (0.50, eco, None),
        ]
        assert engine.operating_point is None
