"""Dispatch-path cost caching.

The runtime's hot loop prices work constantly: every scheduler pass asks
"what would this model (or segment) cost on that engine at its current
DVFS state", once per idle engine per decision.  Two layers answer it.

:class:`CachedCostTable` memoises the fully-derived answer keyed on
``(task code, engine dataflow, engine PE count, DVFS point)``, carries
the graph registry that makes segment codes priceable, and counts hits
and misses so harnesses can report the cache's effectiveness.  Its
scaled costs come from process-wide memos
(:func:`~repro.costmodel.analysis.memoized_model_cost` and, beside it,
:func:`~repro.costmodel.dvfs.memoized_scale_cost`), so a fresh table per
run re-derives nothing the process has already analysed.  Every run
prices through one: the event loop wraps any other table it is handed
in a fresh :class:`CachedCostTable` over it.

:class:`PriceTable` is one run's prices on one fleet, indexed by
integers: code id, engine index and ladder position.  The event loop
builds it from its :class:`CachedCostTable` when the run starts, and the
dispatch path reads it by index instead of hashing a key per question.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Protocol, TypeVar

from repro.nn import ModelGraph

from .analysis import CostModel, ModelCost, memoized_model_cost
from .dataflow import Dataflow
from .dvfs import DvfsPoint, memoized_scale_cost
from .model_cost import CostTable

__all__ = [
    "CostCacheStats",
    "CachedCostTable",
    "PriceTable",
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


@dataclass
class CostCacheStats:
    """Hit/miss counters of one :class:`CachedCostTable`."""

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


class CachedCostTable(CostTable):
    """Memoised dispatch-path costs keyed on (task, engine, DVFS state).

    Wraps any base :class:`CostTable`; unknown task codes fall through
    to the base table.  Segment graphs — dispatch-time pieces and
    :func:`~repro.runtime.segmentation.segment_scenario` variants — are
    registered with :meth:`register_graph`, so virtual segment codes
    are priceable without touching the global model zoo.  A run reads
    these costs by index through the :class:`PriceTable` it builds with
    :meth:`price_table`.
    """

    def __init__(self, base: CostTable | None = None) -> None:
        super().__init__()
        self.base = base if base is not None else CostTable()
        self.stats = CostCacheStats()
        self._graphs: dict[str, ModelGraph] = {}
        self._entries: dict[
            tuple[str, Dataflow, int, DvfsPoint | None], ModelCost
        ] = {}
        self._prices: PriceTable | None = None

    # -- segment graphs ------------------------------------------------------

    def register_graph(self, code: str, graph: ModelGraph) -> None:
        """Make a virtual task code priceable from its layer graph.

        Re-registering the *same* graph is a no-op — segment plans are
        deterministic, so a shared table seen by two segmented runs is
        offered identical pieces and must not fail the second run.
        Registering a *different* graph under an existing code still
        raises: that is a stale-split hazard, not benign reuse.
        """
        existing = self._graphs.get(code)
        if existing is not None:
            if existing == graph:
                return
            raise ValueError(
                f"task code {code!r} already registered with a different "
                f"graph (was this table reused across runs with "
                f"different segment splits?)"
            )
        self._graphs[code] = graph

    def knows(self, code: str) -> bool:
        return code in self._graphs

    # -- lookups -------------------------------------------------------------

    def _compute(
        self, task_code: str, dataflow: Dataflow, num_pes: int
    ) -> ModelCost:
        graph = self._graphs.get(task_code)
        if graph is not None:
            engine = CostModel(dataflow=dataflow, num_pes=num_pes)
            return memoized_model_cost(engine, graph)
        return self.base.cost(task_code, dataflow, num_pes)

    def _lookup(
        self,
        task_code: str,
        dataflow: Dataflow,
        num_pes: int,
        dvfs: DvfsPoint | None,
    ) -> ModelCost:
        # Key on the (frozen, hashable) point itself: two points sharing
        # a name but not a frequency must not share a cache entry.
        key = (task_code, dataflow, num_pes, dvfs)
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.hits += 1
            return entry
        self.stats.misses += 1
        if dvfs is None:
            cost = self._compute(task_code, dataflow, num_pes)
        else:
            # Scale the nominal entry when this table already holds it:
            # deriving it again would re-hash a registered graph.
            nominal = self._entries.get((task_code, dataflow, num_pes, None))
            if nominal is None:
                nominal = self._compute(task_code, dataflow, num_pes)
            cost = memoized_scale_cost(nominal, dvfs)
        self._entries[key] = cost
        return cost

    def cost(
        self, task_code: str, dataflow: Dataflow, num_pes: int
    ) -> ModelCost:
        """CostTable-compatible lookup (nominal DVFS)."""
        return self._lookup(task_code, dataflow, num_pes, None)

    def engine_cost(
        self, task_code: str, sub: EngineLike, dvfs: DvfsPoint | None = None
    ) -> ModelCost:
        """Cost of ``task_code`` on one engine at a DVFS operating point.

        ``sub`` is any engine description exposing ``dataflow`` and
        ``num_pes`` (e.g. :class:`repro.hardware.SubAccelerator`; typed
        loosely because the hardware layer imports this package).
        """
        return self._lookup(task_code, sub.dataflow, sub.num_pes, dvfs)

    # -- per-run price tables ------------------------------------------------

    def price_table(
        self,
        system: FleetLike,
        points: Iterable[DvfsPoint | None],
        codes: Iterable[str],
    ) -> PriceTable:
        """A new price table for one run on ``system``.

        ``points`` are the DVFS points the run can price besides nominal
        and ``codes`` every task code it can dispatch (see
        :class:`PriceTable`).  Until the next call, :meth:`prices`
        returns the new table for ``system``: that is how the
        schedulers and governors, which are handed this cost table and
        the system, reach the run's prices.
        """
        prices = self._prices = PriceTable(self, system, points, codes)
        return prices

    def prices(self, system: FleetLike) -> PriceTable | None:
        """The latest run's price table on ``system``, if there is one."""
        prices = self._prices
        if prices is not None and prices.system is system:
            return prices
        return None


class PriceTable:
    """One run's prices on one fleet, indexed by integers.

    ``costs[code_id][engine_index][position]`` is the :class:`ModelCost`
    of one task code on one engine at one point of the run's DVFS
    ladder.  The run fixes both axes when it starts: :attr:`ids`
    numbers every code it can dispatch, and :attr:`ladder` holds
    nominal (``None``) at position 0, then the run's points in the
    order given, each once.  A point's position is resolved by identity
    (:meth:`position`), once per run or per throttle rather than per
    dispatch, so reading a price hashes nothing.  A point off the
    ladder has no position; callers price it through the keyed lookup.

    Every entry is filled through the owning :class:`CachedCostTable`'s
    keyed lookup, so the floats are the cached values — a read here
    answers exactly what the keyed path answers — and a first pricing
    of a (code, engine, point) counts as that table's miss.  Each read
    afterwards (:meth:`cost`, :meth:`ladder_row`, :meth:`fastest`)
    counts as a hit.

    The table is per run: only the scaled costs behind it are
    process-wide (the memos), which keeps its fill cheap.  Sharing the
    counting tables across runs would make the hit and miss counts the
    multi-session report prints depend on what ran earlier.
    """

    __slots__ = (
        "system", "ladder", "position_by_id", "ids", "costs", "nominal",
        "stats", "_permitted",
    )

    def __init__(
        self,
        table: CachedCostTable,
        system: FleetLike,
        points: Iterable[DvfsPoint | None],
        codes: Iterable[str],
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
        self.stats = table.stats
        #: ``(id(points), cap)`` -> ``(points, resolved)`` for
        #: :meth:`permitted_positions`; the entry keeps ``points`` alive,
        #: so its id cannot be reused while the entry exists.
        self._permitted: dict[
            tuple[int, float | None],
            tuple[
                tuple[DvfsPoint, ...],
                tuple[tuple[DvfsPoint, int | None], ...],
            ],
        ] = {}
        self.ids: dict[str, int] = {}
        self.costs: list[tuple[tuple[ModelCost, ...], ...]] = []
        lookup = table._lookup
        for code in codes:
            if code in self.ids:
                continue
            self.ids[code] = len(self.costs)
            self.costs.append(tuple(
                tuple(
                    lookup(code, sub.dataflow, sub.num_pes, point)
                    for point in self.ladder
                )
                for sub in subs
            ))

    def position(self, point: DvfsPoint | None) -> int | None:
        """The ladder position of ``point`` (by identity), if it has one."""
        return self.position_by_id.get(id(point))

    def permitted_positions(
        self, points: tuple[DvfsPoint, ...], cap: float | None
    ) -> tuple[tuple[DvfsPoint, int | None], ...]:
        """Each of ``points`` a frequency ``cap`` permits, with its position.

        A point is permitted when its ``frequency_scale`` is at most
        ``cap``; every point is when ``cap`` is ``None``.  Points keep
        their order, and a point off the ladder gets position ``None``.
        The answer is memoised per ``points`` object and cap, so a DVFS
        governor consulted at every dispatch resolves its ladder once
        per run and thermal cap instead of once per call.
        """
        key = (id(points), cap)
        entry = self._permitted.get(key)
        if entry is None:
            entry = self._permitted[key] = (points, tuple(
                (point, self.position(point))
                for point in points
                if cap is None or point.frequency_scale <= cap
            ))
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

