"""The cost store and the per-run price table, against the direct analysis.

Every price a run reads must be the very float the analytical model
gives: ``CostModel(dataflow, num_pes).model_cost(graph)`` at nominal and
``scale_cost`` of it at a DVFS point.  The table's engine sweep must
pick what ``min`` keyed on (latency, index) picks, and its counts must
count exactly what the run's cost summary reports.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.costmodel import (
    DEFAULT_DVFS_POINTS,
    CostModel,
    Dataflow,
    DvfsPoint,
    PriceTable,
    scale_cost,
    stored_cost,
)
from repro.hardware import ACCELERATOR_IDS, PE_BUDGETS, build_accelerator
from repro.hardware.accelerator import (
    AcceleratorStyle,
    AcceleratorSystem,
    SubAccelerator,
)
from repro.runtime.segmentation import dispatch_segment_code, split_graph
from repro.workload import UNIT_MODELS


def wide_system(num_engines: int = 12) -> AcceleratorSystem:
    """A synthetic fleet wider than any Table 5 system (which top out at
    4 engines)."""
    subs = tuple(
        SubAccelerator(
            index=i,
            dataflow=(Dataflow.WS, Dataflow.OS, Dataflow.RS)[i % 3],
            num_pes=512 * (1 + i % 4),
        )
        for i in range(num_engines)
    )
    return AcceleratorSystem(
        acc_id="T",
        style=AcceleratorStyle.HDA,
        total_pes=sum(s.num_pes for s in subs),
        subs=subs,
    )


def zoo_and_pieces() -> dict:
    """Every zoo model and each of its 2-way dispatch pieces, as a
    segment run prices them."""
    graphs = {}
    for code, model in sorted(UNIT_MODELS.items()):
        graphs[code] = model.graph
        pieces = split_graph(model.graph, 2)
        for idx, piece in enumerate(pieces):
            graphs[dispatch_segment_code(code, idx, len(pieces))] = piece
    return graphs


#: ``(dataflow, num_pes, graph name) -> nominal cost``: the direct
#: analysis, computed once per engine shape for the whole module.
_DIRECT: dict = {}


def direct_cost(sub, graph, point):
    key = (sub.dataflow, sub.num_pes, graph.name)
    nominal = _DIRECT.get(key)
    if nominal is None:
        engine = CostModel(dataflow=sub.dataflow, num_pes=sub.num_pes)
        nominal = _DIRECT[key] = engine.model_cost(graph)
    return nominal if point is None else scale_cost(nominal, point)


@pytest.mark.parametrize("pes", sorted(PE_BUDGETS.values()))
@pytest.mark.parametrize("acc_id", sorted(ACCELERATOR_IDS))
def test_entries_match_direct_analysis(acc_id, pes):
    """Every (zoo or piece code, engine, position) of a Table 5 system
    is bit-equal to the direct analysis at that position's point."""
    system = build_accelerator(acc_id, pes)
    graphs = zoo_and_pieces()
    prices = PriceTable(system, DEFAULT_DVFS_POINTS, graphs)
    assert prices.ladder == (None,) + DEFAULT_DVFS_POINTS
    assert list(prices.ids) == list(graphs)
    for code, graph in graphs.items():
        code_id = prices.ids[code]
        for sub in system.subs:
            row = prices.ladder_row(code_id, sub.index)
            for position, point in enumerate(prices.ladder):
                assert prices.position(point) == position
                got = prices.cost(code_id, sub.index, position)
                assert row[position] is got
                assert got == direct_cost(sub, graph, point)


class TestCounts:
    def test_fill_counts_first_keys_as_misses(self):
        """Each first (code, dataflow, PEs, point) of the fill misses;
        a repeat — an engine of a shape already priced, or a point
        equal to one already on the ladder — hits."""
        system = build_accelerator("J", 8192)
        prices = PriceTable(system, (), {"HT": UNIT_MODELS["HT"].graph})
        assert (prices.stats.hits, prices.stats.misses) == (
            0, system.num_subs,
        )
        twins = tuple(
            SubAccelerator(index=i, dataflow=Dataflow.WS, num_pes=1024)
            for i in range(3)
        )
        sfda = AcceleratorSystem(
            acc_id="U", style=AcceleratorStyle.SFDA, total_pes=3072,
            subs=twins,
        )
        eco = DEFAULT_DVFS_POINTS[0]
        equal = DvfsPoint(eco.name, eco.frequency_scale)
        prices = PriceTable(
            sfda, (eco, equal), {"HT": UNIT_MODELS["HT"].graph}
        )
        assert len(prices.ladder) == 3
        # Nominal and eco once; the equal point and the twin engines hit.
        assert prices.stats.misses == 2
        assert prices.stats.hits == 3 * 3 - 2

    def test_reads_count_as_hits(self):
        system = build_accelerator("J", 8192)
        prices = PriceTable(system, (), {"HT": UNIT_MODELS["HT"].graph})
        code_id = prices.ids["HT"]
        prices.cost(code_id, 0, 0)
        prices.ladder_row(code_id, 1)
        prices.fastest(code_id, system.subs, prices.nominal)
        prices.engine_cost("HT", 0)
        assert (prices.stats.hits, prices.stats.misses) == (
            4, system.num_subs,
        )

    def test_off_ladder_keyed_read_misses_once_then_hits(self):
        system = build_accelerator("J", 8192)
        graph = UNIT_MODELS["HT"].graph
        prices = PriceTable(system, (), {"HT": graph})
        before = prices.stats.misses
        eco = DvfsPoint("eco", 0.5)
        assert prices.position(eco) is None
        first = prices.engine_cost("HT", 1, eco)
        assert prices.stats.misses == before + 1
        hits = prices.stats.hits
        assert prices.engine_cost("HT", 1, eco) is first
        assert prices.engine_cost("HT", 1, DvfsPoint("eco", 0.5)) is first
        assert prices.stats.misses == before + 1
        assert prices.stats.hits == hits + 2
        assert first == direct_cost(system.subs[1], graph, eco)

    def test_unknown_code_raises(self):
        prices = PriceTable(
            build_accelerator("J", 8192), (),
            {"HT": UNIT_MODELS["HT"].graph},
        )
        with pytest.raises(KeyError, match="not priced in this run"):
            prices.engine_cost("PD", 0)


class TestStore:
    def test_answers_once_per_process(self):
        graph = UNIT_MODELS["SR"].graph
        eco = DEFAULT_DVFS_POINTS[0]
        nominal = stored_cost(Dataflow.OS, 4096, graph)
        scaled = stored_cost(Dataflow.OS, 4096, graph, eco)
        assert stored_cost(Dataflow.OS, 4096, graph) is nominal
        assert stored_cost(Dataflow.OS, 4096, graph, eco) is scaled
        assert scaled == scale_cost(nominal, eco)
        # Two runs' tables hold the same stored objects.
        system = build_accelerator("C", 4096)
        tables = [
            PriceTable(system, (eco,), {"SR": graph}) for _ in range(2)
        ]
        assert tables[0].costs == tables[1].costs
        assert all(
            a is b for a, b in zip(tables[0].costs[0][0],
                                   tables[1].costs[0][0])
        )

    def test_keys_graphs_by_identity(self):
        """An equal copy of a graph gets its own, equal entry."""
        graph = UNIT_MODELS["KD"].graph
        twin = dataclasses.replace(graph)
        assert twin == graph and twin is not graph
        ours = stored_cost(Dataflow.RS, 2048, graph)
        theirs = stored_cost(Dataflow.RS, 2048, twin)
        assert theirs == ours and theirs is not ours

    def test_points_keyed_by_value(self):
        graph = UNIT_MODELS["HT"].graph
        fast = stored_cost(Dataflow.WS, 2048, graph, DvfsPoint("boost", 1.3))
        slow = stored_cost(Dataflow.WS, 2048, graph, DvfsPoint("boost", 1.1))
        assert slow.latency_s > fast.latency_s
        assert stored_cost(
            Dataflow.WS, 2048, graph, DvfsPoint("boost", 1.3)
        ) is fast


def test_positions_resolve_by_identity():
    """Nominal first, then each given point once, in order; a point
    equal to a ladder point but not the same object is off the ladder."""
    system = build_accelerator("J", 8192)
    eco, low = DEFAULT_DVFS_POINTS[:2]
    prices = PriceTable(
        system, (eco, None, low, eco), {"HT": UNIT_MODELS["HT"].graph}
    )
    assert prices.ladder == (None, eco, low)
    assert [prices.position(p) for p in (None, eco, low)] == [0, 1, 2]
    assert prices.position(DvfsPoint(eco.name, eco.frequency_scale)) is None
    assert prices.position(DEFAULT_DVFS_POINTS[-1]) is None


def test_permitted_positions_reject_points_off_the_ladder():
    system = build_accelerator("J", 8192)
    eco, low, nominal, boost = DEFAULT_DVFS_POINTS
    prices = PriceTable(system, (eco, low), {"HT": UNIT_MODELS["HT"].graph})
    assert prices.permitted_positions((eco, low, boost), 0.8) == (
        (eco, 1), (low, 2),
    )
    with pytest.raises(ValueError, match="not on this price table's ladder"):
        prices.permitted_positions((eco, low, boost), None)


@pytest.mark.parametrize("width", [2, 4, 12, 16])
def test_fastest_matches_min_by_latency_then_index(width):
    """The sweep picks min-by-(latency, index) on every subset, with
    every engine at nominal and with engines at different points."""
    system = wide_system(width) if width > 4 else build_accelerator(
        {2: "J", 4: "M"}[width], 8192
    )
    codes = ("HT", "OD", "SS")
    prices = PriceTable(
        system, DEFAULT_DVFS_POINTS,
        {code: UNIT_MODELS[code].graph for code in codes},
    )
    subs = system.subs
    subsets = [list(subs)] + [
        list(subs[lo:]) for lo in range(1, len(subs))
    ] + [list(subs[::2]), list(subs[1::2]), [subs[-1]]]
    mixed = [i % len(prices.ladder) for i in range(len(subs))]
    for code in codes:
        code_id = prices.ids[code]
        for positions in (prices.nominal, mixed):
            def latency(sub):
                return prices.costs[code_id][sub.index][
                    positions[sub.index]
                ].latency_s

            for idle in subsets:
                expected = min(idle, key=lambda s: (latency(s), s.index))
                assert prices.fastest(code_id, idle, positions) is expected


def test_fastest_ties_break_toward_lowest_index():
    """Identical engines tie on latency; the first one wins."""
    subs = tuple(
        SubAccelerator(index=i, dataflow=Dataflow.WS, num_pes=1024)
        for i in range(10)
    )
    system = AcceleratorSystem(
        acc_id="U", style=AcceleratorStyle.SFDA,
        total_pes=10240, subs=subs,
    )
    prices = PriceTable(system, (), {"HT": UNIT_MODELS["HT"].graph})
    code_id = prices.ids["HT"]
    assert prices.fastest(code_id, subs, prices.nominal) is subs[0]
    assert prices.fastest(code_id, subs[3:], prices.nominal) is subs[3]
