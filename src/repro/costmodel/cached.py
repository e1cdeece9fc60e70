"""The process-wide cost store and the per-run price table.

The runtime's hot loop prices work constantly: every scheduler pass asks
"what would this model (or segment) cost on that engine at its current
DVFS state", once per idle engine per decision.  Two layers answer it.

:func:`stored_cost` is the process-wide store.  It maps (engine shape,
graph, DVFS point) to a :class:`~repro.costmodel.analysis.ModelCost`:
each graph is analysed once per engine shape, and each nominal cost is
scaled once per point.  Graphs are keyed by identity, so no lookup
hashes a layer graph by value.  That is sound because graphs are built
once and shared: :func:`~repro.zoo.build_model` caches each zoo graph,
and :func:`~repro.runtime.segmentation.split_graph` memoises its pieces.
Each entry holds its graph, so an id cannot be reused while the entry
lives.

:class:`PriceTable` is one run's prices on one fleet, indexed by
integers: code id, engine index and ladder position.  Each run builds
one from the graphs its sessions stream, fills it from the store when it
starts, and hands it to its scheduler and DVFS governor.  The dispatch
path reads it by index instead of hashing a key per question.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Protocol, TypeVar

from repro.nn import ModelGraph

from .analysis import CostModel, ModelCost
from .dataflow import Dataflow
from .dvfs import DvfsPoint, scale_cost

__all__ = [
    "CostCacheStats",
    "PriceTable",
    "stored_cost",
]


class EngineLike(Protocol):
    """Engine-descriptor shape (the hardware layer imports this package,
    so the concrete :class:`repro.hardware.SubAccelerator` cannot be
    named here without a cycle)."""

    @property
    def index(self) -> int: ...

    @property
    def dataflow(self) -> Dataflow: ...

    @property
    def num_pes(self) -> int: ...


class FleetLike(Protocol):
    """Fleet shape: an index-ordered ``subs`` tuple of engines."""

    @property
    def subs(self) -> tuple[EngineLike, ...]: ...


#: ``(dataflow, num_pes, id(graph), point) -> (graph, cost)``: the
#: process-wide store behind :func:`stored_cost`.  The entry holds the
#: graph, so its id cannot be reused while the entry lives.
_STORE: dict[
    tuple[Dataflow, int, int, DvfsPoint | None], tuple[ModelGraph, ModelCost]
] = {}


def stored_cost(
    dataflow: Dataflow,
    num_pes: int,
    graph: ModelGraph,
    point: DvfsPoint | None = None,
) -> ModelCost:
    """``graph``'s cost on one engine shape at ``point``, from the store.

    The nominal cost (``point=None``) is
    ``CostModel(dataflow, num_pes).model_cost(graph)`` and any other
    point's is :func:`~repro.costmodel.dvfs.scale_cost` of it.  Each is
    computed once per process; the point is keyed by value, so two
    points sharing a name but not a frequency never share an entry.
    """
    key = (dataflow, num_pes, id(graph), point)
    entry = _STORE.get(key)
    if entry is None:
        if point is None:
            engine = CostModel(dataflow=dataflow, num_pes=num_pes)
            cost = engine.model_cost(graph)
        else:
            cost = scale_cost(stored_cost(dataflow, num_pes, graph), point)
        entry = _STORE[key] = (graph, cost)
    return entry[1]


@dataclass
class CostCacheStats:
    """Hit/miss counters of one :class:`PriceTable`."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class _Indexed(Protocol):
    """Anything with an engine index (fleet or runtime engines)."""

    @property
    def index(self) -> int: ...


_E = TypeVar("_E", bound=_Indexed)


class PriceTable:
    """One run's prices on one fleet, indexed by integers.

    ``costs[code_id][engine_index][position]`` is the :class:`ModelCost`
    of one task code on one engine at one point of the run's DVFS
    ladder.  The run fixes both axes when it starts: :attr:`ids`
    numbers the codes of ``graphs`` in order, and :attr:`ladder` holds
    nominal (``None``) at position 0, then the run's points in the
    order given, each once.  A point's position is resolved by identity
    (:meth:`position`), once per run or per throttle rather than per
    dispatch, so reading a price hashes nothing.  A point off the
    ladder has no position; :meth:`engine_cost` prices it by key.

    Every entry comes from :func:`stored_cost`.  :attr:`stats` counts
    the table's lookups: the first (code, dataflow, PEs, point) of the
    fill is a miss, and a repeat of one (two engines of one shape, or
    two equal points) is a hit.  Each read afterwards (:meth:`cost`,
    :meth:`ladder_row`, :meth:`fastest`, :meth:`engine_cost`) counts as
    a hit, except a keyed read of a key the table has not priced yet,
    which is a miss.

    The table is per run, so its counts count that run alone; only the
    costs behind it are process-wide, which keeps its fill cheap.
    """

    __slots__ = (
        "system", "ladder", "position_by_id", "ids", "graphs", "costs",
        "nominal", "stats", "_entries", "_permitted",
    )

    def __init__(
        self,
        system: FleetLike,
        points: Iterable[DvfsPoint | None],
        graphs: Mapping[str, ModelGraph],
    ) -> None:
        subs = tuple(system.subs)
        if [s.index for s in subs] != list(range(len(subs))):
            raise ValueError(
                "price table needs an index-ordered engine tuple, got "
                f"{[s.index for s in subs]}"
            )
        ladder: list[DvfsPoint | None] = [None]
        for point in points:
            if all(point is not known for known in ladder):
                ladder.append(point)
        self.system = system
        self.ladder = tuple(ladder)
        #: ``id(point)`` -> ladder position (the ladder keeps the points
        #: alive, so an id cannot be reused while the table lives).
        self.position_by_id = {
            id(point): position for position, point in enumerate(ladder)
        }
        #: Every engine at the nominal position, for :meth:`fastest`.
        self.nominal = (0,) * len(subs)
        self.stats = CostCacheStats()
        #: ``(code, dataflow, PEs, point)`` -> cost: every key priced.
        self._entries: dict[
            tuple[str, Dataflow, int, DvfsPoint | None], ModelCost
        ] = {}
        #: ``(id(points), cap)`` -> ``(points, resolved)`` for
        #: :meth:`permitted_positions`; the entry keeps ``points`` alive,
        #: so its id cannot be reused while the entry exists.
        self._permitted: dict[
            tuple[int, float | None],
            tuple[
                tuple[DvfsPoint, ...],
                tuple[tuple[DvfsPoint, int], ...],
            ],
        ] = {}
        self.ids: dict[str, int] = {}
        self.graphs: list[ModelGraph] = []
        self.costs: list[tuple[tuple[ModelCost, ...], ...]] = []
        for code, graph in graphs.items():
            self.ids[code] = len(self.costs)
            self.graphs.append(graph)
            self.costs.append(tuple(
                tuple(self._keyed(code, graph, sub, point)
                      for point in self.ladder)
                for sub in subs
            ))

    def _keyed(self, code: str, graph: ModelGraph, sub: EngineLike,
               point: DvfsPoint | None) -> ModelCost:
        """The cost of ``code`` on ``sub`` at ``point``, counted."""
        key = (code, sub.dataflow, sub.num_pes, point)
        cost = self._entries.get(key)
        if cost is None:
            self.stats.misses += 1
            cost = self._entries[key] = stored_cost(
                sub.dataflow, sub.num_pes, graph, point
            )
        else:
            self.stats.hits += 1
        return cost

    def engine_cost(self, code: str, engine_index: int,
                    point: DvfsPoint | None = None) -> ModelCost:
        """One code's cost on one engine at any DVFS point, by key.

        The same float as the indexed reads at a ladder point; a point
        off the ladder (or equal to a ladder point but not the same
        object) is priced through the store once and kept.  This serves
        the event loop's one keyed call, a governor's point off the
        ladder, and custom policies.
        """
        code_id = self.ids.get(code)
        if code_id is None:
            raise KeyError(f"task code {code!r} is not priced in this run")
        return self._keyed(
            code, self.graphs[code_id], self.system.subs[engine_index], point
        )

    def position(self, point: DvfsPoint | None) -> int | None:
        """The ladder position of ``point`` (by identity), if it has one."""
        return self.position_by_id.get(id(point))

    def permitted_positions(
        self, points: tuple[DvfsPoint, ...], cap: float | None
    ) -> tuple[tuple[DvfsPoint, int], ...]:
        """Each of ``points`` a frequency ``cap`` permits, with its position.

        A point is permitted when its ``frequency_scale`` is at most
        ``cap``; every point is when ``cap`` is ``None``.  Points keep
        their order.  The answer is memoised per ``points`` object and
        cap, so a DVFS governor consulted at every dispatch resolves its
        ladder once per run and thermal cap instead of once per call.
        Raises ``ValueError`` for a permitted point off the ladder.
        """
        key = (id(points), cap)
        entry = self._permitted.get(key)
        if entry is None:
            resolved: list[tuple[DvfsPoint, int]] = []
            for point in points:
                if cap is not None and point.frequency_scale > cap:
                    continue
                position = self.position(point)
                if position is None:
                    raise ValueError(
                        f"{point!r} is not on this price table's ladder"
                    )
                resolved.append((point, position))
            entry = self._permitted[key] = (points, tuple(resolved))
        return entry[1]

    def cost(self, code_id: int, engine_index: int,
             position: int) -> ModelCost:
        """One code's cost on one engine at one ladder position."""
        self.stats.hits += 1
        return self.costs[code_id][engine_index][position]

    def ladder_row(self, code_id: int,
                   engine_index: int) -> tuple[ModelCost, ...]:
        """One code's costs on one engine, indexed by ladder position."""
        self.stats.hits += 1
        return self.costs[code_id][engine_index]

    def fastest(self, code_id: int, engines: Iterable[_E],
                positions: Sequence[int]) -> _E:
        """The engine among ``engines`` that runs ``code_id`` fastest.

        Each engine is priced at its own ``positions[engine.index]``.
        ``engines`` must be index-ordered and non-empty (the fleet's
        idle list is), so keeping the first of equal latencies breaks
        ties toward the lowest index, like ``min`` keyed on
        (latency, index).
        """
        self.stats.hits += 1
        row = self.costs[code_id]
        best: _E | None = None
        best_latency = 0.0
        for engine in engines:
            index = engine.index
            latency = row[index][positions[index]].latency_s
            if best is None or latency < best_latency:
                best, best_latency = engine, latency
        if best is None:
            raise ValueError("no engine to choose from")
        return best
