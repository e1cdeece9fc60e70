"""Model segmentation: Herald-style sub-model scheduling.

The paper attributes the "expanded computation scheduling spaces" of MTMM
workloads to Kwon et al.'s Herald (HPCA 2021), where a model can be split
at layer boundaries and its segments scheduled on different
sub-accelerators.  This module brings that scheduling dimension into the
harness without touching the simulator: a segmented model becomes a chain
of virtual unit models connected by always-firing data dependencies, so a
two-segment plane detector can have segment 0 of frame N+1 running on one
engine while segment 1 of frame N finishes on another — software
pipelining across engines.

Usage::

    from repro.runtime.segmentation import segment_scenario

    scenario = segment_scenario(get_scenario("ar_gaming"), "PD", 2)
    sim = MultiScenarioSimulator(
        sessions=[SessionSpec(0, scenario)], system=system,
        scheduler=LatencyGreedyScheduler(),
    )

The variant's segment models carry their pieces as their graphs, so the
run prices them like any other model.  Segment-level dispatch
(``granularity="segment"``) splits a run's models without changing its
scenarios; :func:`split_models` decides which models split and into
which pieces.  :func:`split_graph` memoises its pieces for the process,
so every run and variant shares the same piece objects, which the cost
store keys by identity.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Mapping

from repro.costmodel import PriceTable
from repro.nn import ModelGraph
from repro.workload import (
    Dependency,
    DependencyKind,
    ScenarioModel,
    UsageScenario,
)

__all__ = ["split_graph", "split_models", "chain_codes",
           "segment_scenario", "segment_code", "dispatch_segment_code",
           "SegmentChain", "ChainSuffix"]


def segment_code(code: str, index: int) -> str:
    """The virtual task code of one segment, e.g. ``PD.0``."""
    return f"{code}.{index}"


def dispatch_segment_code(code: str, index: int, total: int) -> str:
    """Price-table code of one dispatch-time segment, e.g. ``PD.0of3``.

    Unlike :func:`segment_code` (which names scenario-level virtual
    models), these codes name price-table entries only and embed the
    split count, so they never collide with a scenario's own codes or
    with another split count's pieces.
    """
    return f"{code}.{index}of{total}"


#: ``(id(graph), segments) -> (graph, pieces)``: every split made in the
#: process.  The entry holds the graph, so its id cannot be reused while
#: the entry lives.
_PIECES: dict[tuple[int, int], tuple[ModelGraph, tuple[ModelGraph, ...]]] = {}


def split_graph(graph: ModelGraph, segments: int) -> tuple[ModelGraph, ...]:
    """Split a graph into MAC-balanced contiguous layer segments.

    Split points only fall on layer boundaries where no later layer
    reaches back across the cut via a residual connection — cutting
    through a skip would require shipping two tensors between engines,
    which the virtual-model chain cannot express.

    The pieces are memoised per (graph, segments) for the process, so
    every caller splitting one graph object gets the same piece objects.
    """
    key = (id(graph), segments)
    entry = _PIECES.get(key)
    if entry is None:
        entry = _PIECES[key] = (graph, _split(graph, segments))
    return entry[1]


def _split(graph: ModelGraph, segments: int) -> tuple[ModelGraph, ...]:
    """:func:`split_graph` without the memo."""
    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments}")
    if segments == 1:
        return (graph,)
    n = len(graph.layers)
    if segments > n:
        raise ValueError(
            f"cannot split {graph.name!r} ({n} layers) into {segments}"
        )
    # Valid cut after layer i: no layer j > i references a residual
    # source at index <= i.
    index_of = {layer.name: i for i, layer in enumerate(graph.layers)}
    valid_after = [True] * n
    for j, layer in enumerate(graph.layers):
        if layer.residual_from is None:
            continue
        src = index_of[layer.residual_from]
        for cut in range(src, j):
            valid_after[cut] = False
    valid_cuts = [i for i in range(n - 1) if valid_after[i]]
    if len(valid_cuts) < segments - 1:
        raise ValueError(
            f"{graph.name!r} has only {len(valid_cuts)} residual-safe cut "
            f"points; cannot make {segments} segments"
        )

    # Greedy MAC-balanced selection: walk the prefix-MAC curve and cut at
    # the valid point closest to each ideal quantile.
    prefix = []
    total = 0
    for layer in graph.layers:
        total += layer.macs
        prefix.append(total)
    cuts: list[int] = []
    for k in range(1, segments):
        target = total * k / segments
        candidates = [c for c in valid_cuts if c not in cuts]
        best = min(candidates, key=lambda c: abs(prefix[c] - target))
        cuts.append(best)
    cuts.sort()
    if len(set(cuts)) != len(cuts):
        raise ValueError(
            f"could not find {segments} distinct balanced cuts in "
            f"{graph.name!r}"
        )

    pieces: list[ModelGraph] = []
    start = 0
    boundaries = cuts + [n - 1]
    for idx, end in enumerate(boundaries):
        layers = graph.layers[start : end + 1]
        pieces.append(
            ModelGraph(
                name=f"{graph.name}.{idx}",
                input_shape=layers[0].in_shape,
                layers=layers,
            )
        )
        start = end + 1
    return tuple(pieces)


def split_models(
    scenarios: Iterable[UsageScenario], segments: int
) -> dict[str, tuple[ModelGraph, ...]]:
    """The pieces of every model the scenarios stream that splits.

    Maps each distinct model code, in first-seen order, whose graph
    :func:`split_graph` can cut into ``segments`` pieces to those
    pieces; a model without enough residual-safe cut points is absent
    (it runs whole).  Empty when ``segments < 2``.  This is the only
    decision of which models split: the plan compiler records its codes
    and the event loop prices its pieces.
    """
    split: dict[str, tuple[ModelGraph, ...]] = {}
    if segments < 2:
        return split
    seen: set[str] = set()
    for scenario in scenarios:
        for sm in scenario.models:
            if sm.code in seen:
                continue
            seen.add(sm.code)
            try:
                split[sm.code] = split_graph(sm.model.graph, segments)
            except ValueError:
                continue
    return split


def chain_codes(
    split: Mapping[str, tuple[ModelGraph, ...]]
) -> dict[str, tuple[str, ...]]:
    """The dispatch codes of every split model's pieces, in ``split``'s
    order: what the plan compiler records and the event loop prices."""
    return {
        code: tuple(
            dispatch_segment_code(code, idx, len(pieces))
            for idx in range(len(pieces))
        )
        for code, pieces in split.items()
    }


class SegmentChain:
    """The compile-time dispatch table of one model's segment chain.

    Built once per run at segment-plan time (simulator "spec compile"),
    a chain records the model's piece codes — ``(None,)`` for a model
    dispatched whole — and, once the run has built its
    :class:`~repro.costmodel.PriceTable`, the pieces' code ids in it
    (:attr:`ids`).  Its suffixes memoise the per-``(engine, ladder
    position)`` latencies the slack governor reserves deadline budget
    with.  The waiting queue hangs the chain on every
    :class:`~repro.runtime.engine.WorkItem` it builds, and each
    successor segment inherits it, so successor segments, prices and
    governor budget reservations never re-derive the plan per request:
    segment ``k``'s follow-up and its code id are tuple indexes, and
    reserving the remaining chain's time is one memo probe instead of a
    price-table read per remaining segment per candidate point.
    """

    __slots__ = ("model_code", "codes", "ids", "suffixes")

    def __init__(self, model_code: str, codes) -> None:
        self.model_code = model_code
        self.codes: tuple[str | None, ...] = tuple(codes)
        if not self.codes:
            raise ValueError(f"segment chain of {model_code!r} is empty")
        #: ``ids[k]`` is piece ``k``'s code id in the run's price table
        #: (the model's own id for a whole-model piece); empty until
        #: the run assigns them.
        self.ids: tuple[int, ...] = ()
        #: ``suffixes[k]`` is the read-only view of the codes from
        #: segment ``k`` on (``suffixes[len(codes)]`` is the empty tail a
        #: final segment passes to the governor).  Prebuilt so the
        #: dispatch path allocates nothing per decision.
        self.suffixes = tuple(
            ChainSuffix(self, start) for start in range(len(self.codes) + 1)
        )

    @property
    def num_segments(self) -> int:
        return len(self.codes)


class ChainSuffix:
    """One chain's codes from a given segment on — a read-only sequence.

    What the event loop hands a :class:`~repro.runtime.governor.DvfsGovernor`
    as ``remaining_codes``: iterating yields the later segments' cost
    codes (``None`` = whole model), and governors that reserve deadline
    budget can call :meth:`remaining_latencies` to read the whole tail
    from the suffix's memo over the run's price table instead of
    pricing each segment per call.
    """

    __slots__ = ("chain", "start", "_latencies")

    def __init__(self, chain: SegmentChain, start: int) -> None:
        self.chain = chain
        self.start = start
        self._latencies: dict[tuple[int, int], tuple[float, ...]] = {}

    def __len__(self) -> int:
        return len(self.chain.codes) - self.start

    def __bool__(self) -> bool:
        return self.start < len(self.chain.codes)

    def __getitem__(self, index):
        return self.chain.codes[self.start:][index]

    def __iter__(self):
        codes = self.chain.codes
        return iter(codes[self.start:] if self.start else codes)

    def __repr__(self) -> str:
        return (
            f"ChainSuffix({self.chain.model_code!r}, "
            f"{self.chain.codes[self.start:]!r})"
        )

    def remaining_latencies(
        self, prices: PriceTable, engine_index: int, position: int
    ) -> tuple[float, ...]:
        """Latency of each segment of this tail on one engine.

        Read from the run's price table and memoised per ``(engine,
        ladder position)``, which is what turns the governor's
        remaining-work reservation into one probe.
        """
        key = (engine_index, position)
        cached = self._latencies.get(key)
        if cached is None:
            cached = self._latencies[key] = tuple(
                prices.cost(code_id, engine_index, position).latency_s
                for code_id in self.chain.ids[self.start:]
            )
        return cached


def segment_scenario(
    scenario: UsageScenario,
    code: str,
    segments: int,
) -> UsageScenario:
    """Replace one model with a chain of pipelined segments.

    Returns the variant scenario.  Each segment is a virtual model coded
    :func:`segment_code` whose graph is its piece
    (``graph_override``), so a run prices it like any other model.  The
    original model's sensors, rate and quality goal are inherited by
    every segment; segments are chained with always-firing data
    dependencies so the runtime executes them in order (possibly on
    different engines, possibly overlapped across frames).
    """
    base_sm = scenario.get(code)  # raises KeyError when inactive
    if segments < 2:
        raise ValueError(
            f"segments must be >= 2 to change anything, got {segments}"
        )
    for dep in scenario.dependencies:
        if code in (dep.upstream, dep.downstream):
            raise ValueError(
                f"cannot segment {code!r}: it participates in the "
                f"dependency {dep.upstream}->{dep.downstream}"
            )
    pieces = split_graph(base_sm.model.graph, segments)

    seg_models: list[ScenarioModel] = []
    deps: list[Dependency] = list(scenario.dependencies)
    prev_code: str | None = None
    for idx, piece in enumerate(pieces):
        vcode = segment_code(code, idx)
        unit = replace(base_sm.model, code=vcode, graph_override=piece)
        seg_models.append(
            ScenarioModel(
                unit, base_sm.target_fps, aux=idx < len(pieces) - 1
            )
        )
        if prev_code is not None:
            deps.append(
                Dependency(prev_code, vcode, DependencyKind.DATA, 1.0)
            )
        prev_code = vcode

    models = tuple(
        sm for sm in scenario.models if sm.code != code
    ) + tuple(seg_models)
    return replace(
        scenario,
        name=f"{scenario.name}_{code.lower()}x{segments}",
        models=models,
        dependencies=tuple(deps),
    )
