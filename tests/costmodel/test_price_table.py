"""PriceTable prices exactly like the keyed cache it is filled from.

A run's price table is a pure layout change: every
``(task, engine, ladder position)`` it answers must be the *same float*
the keyed :meth:`CachedCostTable.engine_cost` path returns for that
position's DVFS point, and its engine sweep must pick what ``min`` keyed
on (latency, index) picks.
"""

from __future__ import annotations

import pytest

from repro.costmodel import CachedCostTable, CostTable, Dataflow, DvfsPoint
from repro.costmodel.dvfs import DEFAULT_DVFS_POINTS
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


def register_segments(table) -> list[str]:
    """Register every zoo model's 2-way dispatch pieces, as a segment
    run does; returns the piece codes."""
    codes = []
    for code, model in sorted(UNIT_MODELS.items()):
        pieces = split_graph(model.graph, 2)
        for idx, piece in enumerate(pieces):
            vcode = dispatch_segment_code(code, idx, len(pieces))
            table.register_graph(vcode, piece)
            codes.append(vcode)
    return codes


@pytest.mark.parametrize("pes", sorted(PE_BUDGETS.values()))
@pytest.mark.parametrize("acc_id", sorted(ACCELERATOR_IDS))
def test_table_matches_keyed_lookup_everywhere(acc_id, pes):
    """Every (zoo or segment code, engine, position): the table's cost
    is the keyed path's cost at that position's point.

    The reference table is a separate instance, so the comparison
    catches any divergence in how the table fills an entry: both sides
    must arrive at the identical floats independently.
    """
    system = build_accelerator(acc_id, pes)
    table = CachedCostTable(base=CostTable())
    reference = CachedCostTable(base=CostTable())
    segments = register_segments(table)
    assert register_segments(reference) == segments
    codes = sorted(UNIT_MODELS) + segments
    prices = table.price_table(system, DEFAULT_DVFS_POINTS, codes)
    assert prices.ladder == (None,) + DEFAULT_DVFS_POINTS
    assert sorted(prices.ids, key=prices.ids.get) == codes
    for code in codes:
        code_id = prices.ids[code]
        for sub in system.subs:
            row = prices.ladder_row(code_id, sub.index)
            for position, point in enumerate(prices.ladder):
                assert prices.position(point) == position
                expected = reference.engine_cost(code, sub, point)
                got = prices.cost(code_id, sub.index, position)
                assert row[position] is got
                assert got.latency_s == expected.latency_s
                assert got.energy_mj == expected.energy_mj


def test_fill_goes_through_the_cache():
    """The fill prices through ``_lookup``: the first pricing of each
    (code, engine shape, point) misses, reads count as hits, and the
    keyed path and a later run's table then answer from the same
    entries (no double computation, no stats skew)."""
    system = build_accelerator("J", 8192)
    table = CachedCostTable(base=CostTable())
    prices = table.price_table(system, (), ["HT"])
    assert table.stats.misses == system.num_subs
    assert table.stats.hits == 0

    prices.cost(prices.ids["HT"], 0, 0)
    prices.fastest(prices.ids["HT"], system.subs, prices.nominal)
    assert table.stats.misses == system.num_subs
    assert table.stats.hits == 2

    before = table.stats.misses
    for sub in system.subs:
        table.engine_cost("HT", sub, None)
    table.price_table(system, (), ["HT"])
    assert table.stats.misses == before


def test_positions_resolve_by_identity():
    """Nominal first, then each given point once, in order; a point
    equal to a ladder point but not the same object is off the ladder."""
    system = build_accelerator("J", 8192)
    eco, low = DEFAULT_DVFS_POINTS[:2]
    prices = CachedCostTable().price_table(
        system, (eco, None, low, eco), ["HT"]
    )
    assert prices.ladder == (None, eco, low)
    assert [prices.position(p) for p in (None, eco, low)] == [0, 1, 2]
    assert prices.position(DvfsPoint(eco.name, eco.frequency_scale)) is None
    assert prices.position(DEFAULT_DVFS_POINTS[-1]) is None


def test_prices_follow_the_latest_run_on_a_system():
    table = CachedCostTable(base=CostTable())
    a = build_accelerator("J", 8192)
    b = build_accelerator("J", 8192)  # distinct object, same shape
    assert table.prices(a) is None
    first = table.price_table(a, (), ["HT"])
    assert table.prices(a) is first
    assert table.prices(b) is None
    second = table.price_table(a, (), ["HT"])
    assert second is not first
    assert table.prices(a) is second


@pytest.mark.parametrize("width", [2, 4, 12, 16])
def test_fastest_matches_min_by_latency_then_index(width):
    """The sweep picks min-by-(latency, index) on every subset, with
    every engine at nominal and with engines at different points."""
    system = wide_system(width) if width > 4 else build_accelerator(
        {2: "J", 4: "M"}[width], 8192
    )
    codes = ("HT", "OD", "SS")
    prices = CachedCostTable(base=CostTable()).price_table(
        system, DEFAULT_DVFS_POINTS, codes
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
    prices = CachedCostTable(base=CostTable()).price_table(
        system, (), ["HT"]
    )
    code_id = prices.ids["HT"]
    assert prices.fastest(code_id, subs, prices.nominal) is subs[0]
    assert prices.fastest(code_id, subs[3:], prices.nominal) is subs[3]
