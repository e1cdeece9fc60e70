"""Tests for the dispatch-path cost cache layer."""

from __future__ import annotations

import pytest

from repro.costmodel import (
    CachedCostTable,
    DEFAULT_DVFS_POINTS,
    CostTable,
    Dataflow,
    DvfsPoint,
    scale_cost,
)
from repro.nn import ModelGraph
from repro.runtime import split_graph
from repro.workload import UNIT_MODELS


class TestCachedCostTable:
    def test_first_lookup_misses_then_hits(self):
        table = CachedCostTable()
        a = table.cost("HT", Dataflow.WS, 2048)
        assert (table.stats.hits, table.stats.misses) == (0, 1)
        b = table.cost("HT", Dataflow.WS, 2048)
        assert b is a
        assert (table.stats.hits, table.stats.misses) == (1, 1)
        assert table.stats.hit_rate == pytest.approx(0.5)

    def test_matches_base_table_values(self):
        base, cached = CostTable(), CachedCostTable()
        for code in ("HT", "SR", "DE"):
            for dataflow in Dataflow:
                expected = base.cost(code, dataflow, 2048)
                got = cached.cost(code, dataflow, 2048)
                assert got.latency_s == expected.latency_s
                assert got.energy_mj == expected.energy_mj

    def test_dvfs_states_cached_independently(self):
        table = CachedCostTable()
        sub = type("Sub", (), {"dataflow": Dataflow.WS, "num_pes": 2048})()
        eco = DvfsPoint("eco", 0.5)
        nominal = table.engine_cost("HT", sub)
        slow = table.engine_cost("HT", sub, eco)
        assert slow.latency_s == pytest.approx(2 * nominal.latency_s)
        assert table.engine_cost("HT", sub, eco) is slow
        assert table.stats.hits == 1

    def test_scaled_entries_are_scale_cost_of_base(self):
        # A run wraps a plain table; every DVFS-scaled entry must be the
        # very cost scale_cost derives from the base table's entry.
        base = CostTable()
        table = CachedCostTable(base=base)
        for dataflow in Dataflow:
            sub = type("Sub", (), {"dataflow": dataflow, "num_pes": 4096})()
            for point in DEFAULT_DVFS_POINTS:
                expected = scale_cost(base.cost("DE", dataflow, 4096), point)
                assert table.engine_cost("DE", sub, point) == expected

    def test_same_name_different_scale_not_conflated(self):
        # The memo keys on the DvfsPoint value, not its name.
        table = CachedCostTable()
        sub = type("Sub", (), {"dataflow": Dataflow.WS, "num_pes": 2048})()
        fast = table.engine_cost("HT", sub, DvfsPoint("boost", 1.3))
        slow = table.engine_cost("HT", sub, DvfsPoint("boost", 1.1))
        assert slow.latency_s > fast.latency_s
        assert table.stats.misses == 2

    def test_scaled_costs_shared_across_tables(self):
        # Each run builds a fresh table; the DVFS-scaled cost comes from
        # the process-wide memo, so a second table re-derives nothing.
        sub = type("Sub", (), {"dataflow": Dataflow.OS, "num_pes": 4096})()
        eco = DvfsPoint("eco", 0.5)
        first = CachedCostTable().engine_cost("SR", sub, eco)
        assert CachedCostTable().engine_cost("SR", sub, eco) is first

    def test_registered_segment_graphs_priceable(self):
        graph = UNIT_MODELS["PD"].graph
        pieces = split_graph(graph, 2)
        table = CachedCostTable()
        table.register_graph("PD.0", pieces[0])
        table.register_graph("PD.1", pieces[1])
        assert table.knows("PD.0") and not table.knows("PD")
        whole = table.cost("PD", Dataflow.WS, 2048)
        seg = [
            table.cost(code, Dataflow.WS, 2048) for code in ("PD.0", "PD.1")
        ]
        # Per-layer costs are additive, so segments sum to the whole.
        assert sum(c.latency_s for c in seg) == pytest.approx(whole.latency_s)
        assert sum(c.energy_mj for c in seg) == pytest.approx(whole.energy_mj)

    def test_same_graph_reregistration_is_noop(self):
        # Segment plans are deterministic, so a table shared across two
        # segmented runs is offered identical pieces; the second offer
        # must not fail the run.
        graph = UNIT_MODELS["PD"].graph
        table = CachedCostTable()
        table.register_graph("PD.0", graph)
        table.register_graph("PD.0", graph)
        assert table.knows("PD.0")

    def test_conflicting_registration_rejected(self):
        # A *different* graph under an existing code is a stale-split
        # hazard, not benign reuse.
        table = CachedCostTable()
        table.register_graph("PD.0", UNIT_MODELS["PD"].graph)
        with pytest.raises(ValueError, match="already registered"):
            table.register_graph("PD.0", UNIT_MODELS["HT"].graph)

    def test_unknown_code_falls_through_to_base_error(self):
        with pytest.raises(KeyError, match="unknown task code"):
            CachedCostTable().cost("NOPE", Dataflow.WS, 2048)

    def test_wraps_existing_base_table(self):
        base = CostTable()
        warm = base.cost("HT", Dataflow.WS, 2048)
        cached = CachedCostTable(base=base)
        assert cached.cost("HT", Dataflow.WS, 2048) is warm


def test_segment_graph_type_sanity():
    # split_graph returns ModelGraph pieces the cache can analyse.
    pieces = split_graph(UNIT_MODELS["PD"].graph, 2)
    assert all(isinstance(p, ModelGraph) for p in pieces)
