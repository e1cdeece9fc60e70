"""Runtime DVFS governors: per-dispatch operating-point selection.

Appendix B.1 makes latency slack a first-class energy knob ("adjust
energy to meet the deadlines or optimize using the slack to the deadline
(e.g., DVFS)").  Without a governor every dispatch runs at nominal
frequency, and the slack optimisation
(:func:`repro.costmodel.best_point_for_slack`) is an offline ablation.
A :class:`DvfsGovernor` brings that trade into the live event loop: it
is consulted at every dispatch boundary (whole models *and* individual
segments, so a governed run re-decides at each preemption point) and
picks the operating point the engine runs that piece of work at.

An engine's *base* point below is its effective point: nominal, or its
thermal clamp point while a fault throttles it below nominal
(:attr:`~repro.runtime.engine.ExecutionEngine.effective_dvfs`).

Policies:

* ``static`` — every dispatch runs at the engine's base point.
  :func:`make_governor` returns ``None`` for it, so the static path is
  *literally* the historical code path — the golden schedule checksums
  pin it bit-identically.
* ``slack`` — greedy slack-into-energy, the live counterpart of
  :func:`~repro.costmodel.best_point_for_slack`: the cheapest ladder
  point whose scaled latency fits the work item's remaining deadline
  budget.  Downshifts are additionally bounded by the event horizon
  (stretched occupancy must end before the next already-scheduled
  event, so it cannot delay work known to be coming) and are skipped
  for models with downstream dependents (stretching an upstream
  completion eats the cascade's slack) or under contention.  When base
  speed cannot meet the deadline, the governor *races*: the cheapest
  faster point that still rescues the deadline (so it can beat static
  on deadline misses), staying at base for lost causes rather than
  burning boost energy on an unavoidable miss.
* ``race_to_idle`` — always the fastest ladder point: finish as early
  as possible, then idle.  The latency-optimal reference policy.

Selected points flow through :meth:`repro.runtime.engine.EngineFleet.begin`,
which records frequency transitions on the engine and stamps the active
point name on every :class:`~repro.runtime.engine.ExecutionRecord`, so
timelines and exports show the point each segment ran at.  A governor
receives the run's :class:`~repro.costmodel.PriceTable`, and the slack
governor reads its candidates from it by ladder position: the run puts
the governor's ladder and the thermal clamp points on the table's
ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.costmodel import DEFAULT_DVFS_POINTS, DvfsPoint, PriceTable
from repro.hardware import AcceleratorSystem

from .engine import ExecutionEngine, WorkItem
from .segmentation import ChainSuffix

__all__ = [
    "DVFS_POLICIES",
    "DispatchContext",
    "DvfsGovernor",
    "SlackGovernor",
    "RaceToIdleGovernor",
    "make_governor",
]

#: The governor policies the runtime (and RunSpec/CLI) accept.
DVFS_POLICIES: tuple[str, ...] = ("static", "slack", "race_to_idle")


@dataclass(slots=True)
class DispatchContext:
    """What the event loop knows at one dispatch boundary.

    ``contended`` — other work is waiting for an engine right now.
    ``next_event_s`` — absolute time of the next already-scheduled event
    (arrival, completion, lifecycle), or ``None`` when the queue is
    empty; a stretch-averse policy keeps occupancy inside this horizon.
    ``has_dependents`` — the item's model triggers downstream models on
    completion, so stretching it consumes the cascade's slack too.

    Read-only by contract: the event loop keeps one context per run and
    sets its fields before each governor call, so a governed dispatch
    allocates nothing; a governor reads it inside ``select`` and neither
    modifies nor keeps it.  It is not ``frozen`` because a frozen
    dataclass sets every field through ``object.__setattr__``: building
    one per dispatch took about 1.1 µs against 0.07 µs for the three
    field updates (CPython 3.11, Intel Xeon).
    """

    contended: bool = False
    next_event_s: float | None = None
    has_dependents: bool = False


class DvfsGovernor(Protocol):
    """Operating-point decision interface, consulted per dispatch.

    ``remaining_codes`` are the price-table codes of the item's *later*
    segments (empty for whole-model dispatch or a final segment), as a
    :class:`~repro.runtime.segmentation.ChainSuffix`: a governor
    reserving deadline budget for them reads their latencies on one
    engine with :meth:`~ChainSuffix.remaining_latencies`.  ``prices`` is
    the run's price table and ``context`` the event loop's view of the
    dispatch instant.
    """

    def select(
        self,
        now_s: float,
        item: WorkItem,
        engine: ExecutionEngine,
        remaining_codes: ChainSuffix,
        system: AcceleratorSystem,
        prices: PriceTable,
        context: DispatchContext,
    ) -> DvfsPoint | None:
        """The point to run ``item`` at; ``None`` means nominal."""
        ...


def _fastest(points: tuple[DvfsPoint, ...]) -> DvfsPoint:
    return max(points, key=lambda p: p.frequency_scale)


@dataclass(frozen=True)
class RaceToIdleGovernor:
    """Always the fastest ladder point: finish early, then idle."""

    points: tuple[DvfsPoint, ...] = DEFAULT_DVFS_POINTS

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("race_to_idle needs a non-empty ladder")

    def select(
        self,
        now_s: float,
        item: WorkItem,
        engine: ExecutionEngine,
        remaining_codes: ChainSuffix,
        system: AcceleratorSystem,
        prices: PriceTable,
        context: DispatchContext,
    ) -> DvfsPoint | None:
        # A thermally-throttled engine clamps the ladder: only points
        # under its ceiling are permitted (the engine's thermal clamp
        # point when none is).
        cap = engine.max_frequency_scale
        if cap is None:
            return _fastest(self.points)
        permitted = tuple(
            p for p in self.points if p.frequency_scale <= cap
        )
        return _fastest(permitted) if permitted else engine.effective_dvfs


@dataclass(frozen=True)
class SlackGovernor:
    """Greedy slack-into-energy: the paper's Appendix B.1 trade, live.

    Per dispatch the deadline budget is what remains of the request's
    slack at this instant, minus time reserved for the item's remaining
    segments (priced at the candidate point — successors re-decide at
    their own boundaries).  Three cases:

    * The budget cannot fit base speed → **race**: the *cheapest*
      faster ladder point whose scaled latency still makes the deadline
      (the one case where the governor runs faster than static); when
      no point rescues it, stay at base — racing a lost cause burns
      energy without changing the near-binary deadline outcome.
    * The system is contended, or the model triggers downstream work →
      run at the engine's base point: stretching occupancy would tax
      someone else's slack.
    * Otherwise → **downshift**: the cheapest point at or below base
      frequency whose scaled latency fits both the deadline budget and
      the event horizon (the stretched run must end before the next
      already-scheduled event, so no known future work queues behind
      it).
    """

    points: tuple[DvfsPoint, ...] = DEFAULT_DVFS_POINTS

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("slack governor needs a non-empty ladder")

    def select(
        self,
        now_s: float,
        item: WorkItem,
        engine: ExecutionEngine,
        remaining_codes: ChainSuffix,
        system: AcceleratorSystem,
        prices: PriceTable,
        context: DispatchContext,
    ) -> DvfsPoint | None:
        # A thermal ceiling clamps both the baseline (the engine's
        # effective point: nominal, or its clamp point while throttled)
        # and the candidate ladder.
        base = engine.effective_dvfs
        cap = engine.max_frequency_scale
        engine_index = engine.index

        # Candidates are read by ladder position from the run's price
        # table: the row holds this piece's cost at every position, and
        # the table resolves the permitted points to positions once per
        # thermal cap.
        ladder = prices.permitted_positions(self.points, cap)
        row = prices.ladder_row(prices.ids[item.code], engine_index)
        base_at = prices.position(base)
        if base_at is None:
            raise ValueError(
                f"engine {engine_index}'s point {base!r} is not on the "
                f"price table's ladder"
            )

        # The deadline budget of this piece is the slack left with the
        # rest of the chain reserved at the candidate point (see
        # _reserved_budget); nothing is reserved for a final segment.
        slack_s = item.request.deadline_s - now_s
        reserving = bool(remaining_codes)

        base_frequency = base.frequency_scale if base is not None else 1.0
        base_cost = row[base_at]
        base_budget_s = _reserved_budget(
            slack_s, remaining_codes, prices, engine_index, base_at,
        ) if reserving else slack_s
        if base_budget_s < base_cost.latency_s:
            # Behind schedule at base speed: the cheapest faster point
            # that actually rescues the deadline (the whole remaining
            # chain priced at that point), the true
            # best-point-for-slack fallback.  Racing a lost cause burns
            # extra energy without changing the (near-binary) deadline
            # outcome, so hopeless dispatches stay at base speed.
            rescue, rescue_energy = None, float("inf")
            for point, at in ladder:
                if point.frequency_scale <= base_frequency:
                    continue
                cost = row[at]
                budget_s = _reserved_budget(
                    slack_s, remaining_codes, prices, engine_index, at,
                ) if reserving else slack_s
                if (
                    cost.latency_s <= budget_s
                    and cost.energy_mj < rescue_energy
                ):
                    rescue, rescue_energy = point, cost.energy_mj
            return rescue if rescue is not None else base
        if context.contended or context.has_dependents:
            return base
        stretch_s = base_budget_s
        if context.next_event_s is not None:
            stretch_s = min(stretch_s, context.next_event_s - now_s)
        choice, choice_energy = base, base_cost.energy_mj
        for point, at in ladder:
            if point.frequency_scale > base_frequency:
                continue
            cost = row[at]
            if cost.latency_s <= stretch_s and cost.energy_mj < choice_energy:
                choice, choice_energy = point, cost.energy_mj
        return choice


def _reserved_budget(
    slack_s: float,
    remaining_codes: ChainSuffix,
    prices: PriceTable,
    engine_index: int,
    at: int,
) -> float:
    """The slack left for one piece with the rest of its chain reserved
    at ladder position ``at``: successors re-decide at their own
    boundaries, so uniform pricing is self-consistent.

    Each remaining segment's latency is subtracted from the slack in
    turn, read from the suffix's per-(engine, position) memo.
    """
    budget_s = slack_s
    for latency_s in remaining_codes.remaining_latencies(
        prices, engine_index, at
    ):
        budget_s -= latency_s
    return budget_s


def make_governor(
    policy: str,
    points: tuple[DvfsPoint, ...] = DEFAULT_DVFS_POINTS,
) -> DvfsGovernor | None:
    """Build the governor for a policy name (hyphens tolerated).

    Returns ``None`` for ``"static"``: no governor means the event loop
    takes the exact historical dispatch path, which is what the golden
    schedule checksums pin.
    """
    name = policy.replace("-", "_")
    if name not in DVFS_POLICIES:
        raise ValueError(
            f"unknown dvfs policy {policy!r}; one of {DVFS_POLICIES}"
        )
    if name == "static":
        return None
    if name == "slack":
        return SlackGovernor(points=tuple(points))
    return RaceToIdleGovernor(points=tuple(points))
