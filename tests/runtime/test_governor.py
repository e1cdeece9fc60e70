"""Runtime DVFS governor tests.

Four contracts:

* ``dvfs_policy="static"`` is the historical runtime, bit-identically:
  every pinned golden schedule checksum must reproduce with the policy
  passed explicitly (the governor-absent case is pinned by
  ``test_schedule_equivalence`` itself).
* The ``slack`` policy spends slack, never deadlines: on cells with
  headroom it uses no more energy than static and misses no deadline
  static met.
* Governor mechanics: point selection per policy, frequency-transition
  logs, operating-point stamps on execution records, and honest energy
  totals.
* The slack governor picks the very point object its per-call
  formulation picked (``reference_select``), on every governed dispatch
  of the pinned slack cells.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Sequence

import pytest
from sim_helpers import replicate
from test_schedule_equivalence import (
    GOLDEN,
    GOLDEN_DYNAMIC,
    GOVERNED_CELLS,
    checksum_of,
    run_case,
    run_horizon_spec,
)

import repro.runtime.multisim as multisim
from repro.costmodel import (
    DEFAULT_DVFS_POINTS,
    CachedCostTable,
    CostTable,
    DvfsPoint,
    ModelCost,
)
from repro.hardware import AcceleratorSystem, build_accelerator
from repro.runtime import (
    DispatchContext,
    EngineFleet,
    ExecutionEngine,
    RaceToIdleGovernor,
    SlackGovernor,
    StaticGovernor,
    WorkItem,
    make_governor,
    make_scheduler,
)
from repro.workload import InferenceRequest, get_scenario

SCENARIO = "vr_gaming"
ACCELERATOR = "J"
PES = 8192
DURATION_S = 0.25


def run_governed(scheduler: str, granularity: str, sessions: int,
                 dvfs_policy: str, base_seed: int = 0,
                 duration_s: float = DURATION_S):
    return replicate(
        get_scenario(SCENARIO),
        build_accelerator(ACCELERATOR, PES),
        make_scheduler(scheduler),
        sessions,
        base_seed=base_seed,
        duration_s=duration_s,
        granularity=granularity,
        dvfs_policy=dvfs_policy,
    ).run()


def missed_frames(result) -> set[tuple[int, str, int]]:
    """(session, model, frame) keys of every completed-but-late request."""
    return {
        (session.session_id, request.model_code, request.model_frame)
        for session in result.sessions
        for request in session.completed()
        if request.missed_deadline
    }


class TestStaticPolicyIsBitIdentical:
    """All 24 pinned schedules reproduce with dvfs_policy="static"."""

    @pytest.mark.parametrize(
        "scheduler,granularity,sessions",
        sorted(GOLDEN),
        ids=lambda v: str(v),
    )
    def test_explicit_static_matches_golden(self, scheduler, granularity,
                                            sessions):
        result = run_governed(scheduler, granularity, sessions, "static")
        assert checksum_of(result) == GOLDEN[
            (scheduler, granularity, sessions)
        ]

    def test_static_records_carry_base_point(self):
        result = run_governed("latency_greedy", "model", 1, "static")
        assert {record.dvfs for record in result.records} == {None}

    def test_slack_changes_the_schedule_somewhere(self):
        """Sanity: the governed path is not accidentally a no-op."""
        governed = {
            checksum_of(run_governed("latency_greedy", g, n, "slack"))
            for g in ("model", "segment")
            for n in (1, 2)
        }
        static = {
            checksum_of(run_governed("latency_greedy", g, n, "static"))
            for g in ("model", "segment")
            for n in (1, 2)
        }
        assert governed != static


class TestSlackProperty:
    """Slack spends headroom, not deadlines (cells with headroom)."""

    @pytest.mark.parametrize("base_seed", [0, 3, 7, 11])
    @pytest.mark.parametrize("sessions", [1, 2])
    @pytest.mark.parametrize("granularity", ["model", "segment"])
    def test_slack_never_misses_what_static_met(self, granularity,
                                                sessions, base_seed):
        static = run_governed("latency_greedy", granularity, sessions,
                              "static", base_seed)
        slack = run_governed("latency_greedy", granularity, sessions,
                             "slack", base_seed)
        assert missed_frames(slack) <= missed_frames(static)
        assert slack.total_energy_mj() <= static.total_energy_mj() + 1e-9

    def test_bench_acceptance_cell_saves_energy_at_fixed_qoe(self):
        """Two sessions at segment granularity for a streamed second:
        slack spends headroom for energy without missing more."""
        static = run_governed("latency_greedy", "segment", 2, "static",
                              duration_s=1.0)
        slack = run_governed("latency_greedy", "segment", 2, "slack",
                             duration_s=1.0)
        assert slack.total_energy_mj() < static.total_energy_mj()
        assert len(missed_frames(slack)) <= len(missed_frames(static))

    def test_race_to_idle_never_misses_more(self):
        static = run_governed("latency_greedy", "model", 2, "static")
        raced = run_governed("latency_greedy", "model", 2, "race_to_idle")
        assert len(missed_frames(raced)) <= len(missed_frames(static))
        # ... by paying for it: boost burns more energy than nominal.
        assert raced.total_energy_mj() > static.total_energy_mj()


@pytest.fixture()
def dispatch_fixture():
    """A priced single-item dispatch scene for unit-testing governors."""
    system = build_accelerator(ACCELERATOR, PES)
    engine = ExecutionEngine(sub=system.subs[0])
    costs = CachedCostTable()
    nominal = system.engine_cost(costs, "HT", 0, None)
    request = InferenceRequest(
        model_code="HT",
        model_frame=0,
        request_time_s=0.0,
        deadline_s=nominal.latency_s * 10,
    )
    return system, engine, costs, nominal, WorkItem(request=request)


class TestGovernorSelection:
    def test_make_governor_static_is_absent(self):
        assert make_governor("static") is None

    def test_make_governor_accepts_hyphens(self):
        assert isinstance(make_governor("race-to-idle"), RaceToIdleGovernor)

    def test_make_governor_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown dvfs policy"):
            make_governor("warp_speed")

    def test_static_governor_returns_base_point(self, dispatch_fixture):
        system, engine, costs, _, item = dispatch_fixture
        low = DvfsPoint("low", 0.7)
        engine = ExecutionEngine(sub=system.subs[0], dvfs=low)
        chosen = StaticGovernor().select(
            0.0, item, engine, (), system, costs, DispatchContext()
        )
        assert chosen is low

    def test_race_to_idle_picks_fastest(self, dispatch_fixture):
        system, engine, costs, _, item = dispatch_fixture
        chosen = RaceToIdleGovernor().select(
            0.0, item, engine, (), system, costs, DispatchContext()
        )
        assert chosen is not None
        assert chosen.frequency_scale == max(
            p.frequency_scale for p in DEFAULT_DVFS_POINTS
        )

    def test_slack_downshifts_with_generous_headroom(
        self, dispatch_fixture
    ):
        system, engine, costs, _, item = dispatch_fixture
        chosen = SlackGovernor().select(
            0.0, item, engine, (), system, costs, DispatchContext()
        )
        assert chosen is not None
        assert chosen.name == "eco"

    def test_slack_declines_under_contention(self, dispatch_fixture):
        system, engine, costs, _, item = dispatch_fixture
        chosen = SlackGovernor().select(
            0.0, item, engine, (), system, costs,
            DispatchContext(contended=True),
        )
        assert chosen is engine.dvfs

    def test_slack_declines_for_upstream_models(self, dispatch_fixture):
        system, engine, costs, _, item = dispatch_fixture
        chosen = SlackGovernor().select(
            0.0, item, engine, (), system, costs,
            DispatchContext(has_dependents=True),
        )
        assert chosen is engine.dvfs

    def test_slack_respects_event_horizon(self, dispatch_fixture):
        system, engine, costs, nominal, item = dispatch_fixture
        # The next scheduled event lands before any slower point could
        # finish, so the governor must not stretch past it.
        chosen = SlackGovernor().select(
            0.0, item, engine, (), system, costs,
            DispatchContext(next_event_s=nominal.latency_s * 1.01),
        )
        assert chosen is engine.dvfs

    def test_slack_races_only_when_it_rescues(self, dispatch_fixture):
        system, engine, costs, nominal, item = dispatch_fixture
        boost_latency = system.engine_cost(
            costs, "HT", 0, DvfsPoint("boost", 1.3)
        ).latency_s
        # Boost fits, nominal does not -> race.
        rescuable = WorkItem(request=InferenceRequest(
            model_code="HT", model_frame=1, request_time_s=0.0,
            deadline_s=(boost_latency + nominal.latency_s) / 2,
        ))
        chosen = SlackGovernor().select(
            0.0, rescuable, engine, (), system, costs, DispatchContext()
        )
        assert chosen is not None and chosen.name == "boost"
        # Nothing fits -> stay at base instead of burning boost energy.
        hopeless = WorkItem(request=InferenceRequest(
            model_code="HT", model_frame=2, request_time_s=0.0,
            deadline_s=boost_latency / 2,
        ))
        chosen = SlackGovernor().select(
            0.0, hopeless, engine, (), system, costs, DispatchContext()
        )
        assert chosen is engine.dvfs

    def test_slack_reserves_budget_for_remaining_segments(
        self, dispatch_fixture
    ):
        system, engine, costs, nominal, item = dispatch_fixture
        # Deadline fits this piece at eco, but only if no later segment
        # needed time; with a whole extra model's worth reserved, the
        # eco stretch no longer fits.
        tight = WorkItem(
            request=InferenceRequest(
                model_code="HT", model_frame=3, request_time_s=0.0,
                deadline_s=nominal.latency_s * 2.5,
            ),
            num_segments=2,
            task_code="HT",
        )
        unreserved = SlackGovernor().select(
            0.0, tight, engine, (), system, costs, DispatchContext()
        )
        reserved = SlackGovernor().select(
            0.0, tight, engine, ("HT",), system, costs, DispatchContext()
        )
        assert unreserved is not None and unreserved.name == "eco"
        assert reserved is not unreserved


# -- the slack governor against its per-call formulation ---------------------
#
# ``reference_select`` is ``SlackGovernor.select`` as it stood before it
# priced its ladder without closures, kept verbatim: it filters the ladder
# under a thermal cap and builds its two pricing closures on every call.

#: The ladder positions when no price table is in reach: none.
_NO_POSITIONS: Mapping[int, int] = MappingProxyType({})


def reference_select(
    self: SlackGovernor,
    now_s: float,
    item: WorkItem,
    engine: ExecutionEngine,
    remaining_codes: Sequence[str | None],
    system: AcceleratorSystem,
    costs: CostTable,
    context: DispatchContext,
) -> DvfsPoint | None:
    # A thermal ceiling clamps both the baseline (the engine's
    # effective point — the identical object as its base point while
    # unthrottled, keeping fault-free runs bit-identical) and the
    # candidate ladder.
    base = engine.effective_dvfs
    cap = engine.max_frequency_scale
    points = (
        self.points
        if cap is None
        else tuple(p for p in self.points if p.frequency_scale <= cap)
    )
    code = item.code
    engine_index = engine.index

    # Candidates are read by ladder position from the run's price
    # table when the cost table keeps one: the row holds this
    # piece's cost at every position, and positions resolve by
    # identity.  A table without prices, or a point off the run's
    # ladder, is priced through the keyed lookup.  Both give the
    # same floats, so the choice is bit-identical either way.
    prices_of = getattr(costs, "prices", None)
    prices = prices_of(system) if prices_of is not None else None
    code_id = prices.ids.get(code) if prices is not None else None
    if prices is None or code_id is None:
        position_by_id: Mapping[int, int] = _NO_POSITIONS
        row: tuple[ModelCost, ...] = ()
    else:
        position_by_id = prices.position_by_id
        row = prices.ladder_row(code_id, engine_index)

    def lat_en(point: DvfsPoint | None) -> tuple[float, float]:
        at = position_by_id.get(id(point))
        cost = (
            system.engine_cost(costs, code, engine_index, point)
            if at is None else row[at]
        )
        return cost.latency_s, cost.energy_mj

    # A ChainSuffix (the event loop's compile-time segment-chain
    # view) answers the whole reservation from its per-(engine,
    # position) latency memo; a plain code sequence, or a point
    # without a position, is priced per call.  Both paths subtract
    # the same floats in the same order, so the budgets — and
    # therefore the chosen points — are bit-identical.
    slack_s = item.request.deadline_s - now_s
    reserving = bool(remaining_codes)
    remaining = getattr(remaining_codes, "remaining_latencies", None)

    def budget_at(point: DvfsPoint | None) -> float:
        """Deadline budget for this piece with the rest of the
        chain reserved at ``point`` (successors re-decide at their
        own boundaries, so uniform pricing is self-consistent)."""
        budget_s = slack_s
        if not reserving:
            return budget_s
        at = position_by_id.get(id(point))
        if at is not None and remaining is not None:
            for latency_s in remaining(prices, engine_index, at):
                budget_s -= latency_s
            return budget_s
        for rcode in remaining_codes:
            budget_s -= system.engine_cost(
                costs, rcode or item.request.model_code,
                engine_index, point,
            ).latency_s
        return budget_s

    base_frequency = base.frequency_scale if base is not None else 1.0
    base_lat, base_en = lat_en(base)
    base_budget_s = budget_at(base)
    if base_budget_s < base_lat:
        # Behind schedule at base speed: the cheapest faster point
        # that actually rescues the deadline (the whole remaining
        # chain priced at that point), the true
        # best-point-for-slack fallback.  Racing a lost cause burns
        # extra energy without changing the (near-binary) deadline
        # outcome, so hopeless dispatches stay at base speed.
        rescue, rescue_energy = None, float("inf")
        for point in points:
            if point.frequency_scale <= base_frequency:
                continue
            lat, en = lat_en(point)
            if lat <= budget_at(point) and en < rescue_energy:
                rescue, rescue_energy = point, en
        return rescue if rescue is not None else base
    if context.contended or context.has_dependents:
        return base
    stretch_s = base_budget_s
    if context.next_event_s is not None:
        stretch_s = min(stretch_s, context.next_event_s - now_s)
    choice, choice_energy = base, base_en
    for point in points:
        if point.frequency_scale > base_frequency:
            continue
        lat, en = lat_en(point)
        if lat <= stretch_s and en < choice_energy:
            choice, choice_energy = point, en
    return choice



class _CheckedSlackGovernor(SlackGovernor):
    """The slack governor, checked against :func:`reference_select` on
    every call (test instrumentation)."""

    calls = 0
    throttled = 0
    keyed = 0

    def select(self, now_s, item, engine, remaining_codes, system, costs,
               context):
        chosen = super().select(
            now_s, item, engine, remaining_codes, system, costs, context
        )
        expected = reference_select(
            self, now_s, item, engine, remaining_codes, system, costs,
            context,
        )
        assert chosen is expected, (now_s, item, chosen, expected)
        _CheckedSlackGovernor.calls += 1
        if engine.max_frequency_scale is not None:
            _CheckedSlackGovernor.throttled += 1
        prices_of = getattr(costs, "prices", None)
        if prices_of is None or prices_of(system) is None:
            _CheckedSlackGovernor.keyed += 1
        return chosen


@pytest.fixture
def checked_slack(monkeypatch):
    """Every run builds its slack governor as a checked one."""

    def make(policy, points=DEFAULT_DVFS_POINTS):
        if policy == "slack":
            return _CheckedSlackGovernor(points=tuple(points))
        return make_governor(policy, points)

    _CheckedSlackGovernor.calls = 0
    _CheckedSlackGovernor.throttled = 0
    _CheckedSlackGovernor.keyed = 0
    monkeypatch.setattr(multisim, "make_governor", make)
    return _CheckedSlackGovernor


#: name -> ``run_case`` arguments of every pinned slack cell: the slack
#: ``GOVERNED_CELLS`` and the slack cells of ``GOLDEN_DYNAMIC``.
_SLACK_CELLS = {
    name: cell for name, cell in GOVERNED_CELLS.items()
    if cell["dvfs"] == "slack"
} | {
    "-".join(map(str, key)): dict(
        scheduler=key[0], granularity=key[1], sessions=key[2],
        churn=key[3], preemptive=key[4], dvfs=key[5],
    )
    for key in GOLDEN_DYNAMIC
    if key[5] == "slack"
}


class TestSlackAgainstReference:
    """On every governed dispatch of the pinned slack cells, the governor
    picks the very point object the per-call formulation it replaced
    picks (:func:`reference_select`)."""

    @pytest.mark.parametrize("name", sorted(_SLACK_CELLS))
    def test_golden_cells(self, checked_slack, name):
        cell = _SLACK_CELLS[name]
        run_case(**cell)
        assert checked_slack.calls > 0
        if cell.get("faults") == "thermal":
            assert checked_slack.throttled > 0

    def test_cancelled_phase_tails_spec(self, checked_slack):
        run_horizon_spec()
        assert checked_slack.calls > 0

    def test_keyed_pricing(self, checked_slack):
        # A plain CostTable keeps no prices of its own: the run wraps it
        # in a CachedCostTable, so every candidate is still read from
        # the run's price table and none goes through the keyed lookup.
        run_case("latency_greedy", "model", 16, dvfs="slack",
                 costs=CostTable())
        assert checked_slack.calls > 0
        assert checked_slack.keyed == 0


class TestTransitionsAndRecords:
    def test_fleet_begin_logs_frequency_transitions(self):
        system = build_accelerator(ACCELERATOR, PES)
        engine = ExecutionEngine(sub=system.subs[0])
        fleet = EngineFleet([engine])
        costs = CachedCostTable()
        eco = DvfsPoint("eco", 0.5)
        item = WorkItem(request=InferenceRequest(
            model_code="HT", model_frame=0,
            request_time_s=0.0, deadline_s=1.0,
        ))
        cost = system.engine_cost(costs, "HT", 0, eco)
        end = fleet.begin(engine, item, 0.0, cost, dvfs=eco)
        fleet.finish(0, end)
        cost2 = system.engine_cost(costs, "HT", 0, None)
        item2 = WorkItem(request=InferenceRequest(
            model_code="HT", model_frame=1,
            request_time_s=end, deadline_s=end + 1.0,
        ))
        end2 = fleet.begin(engine, item2, end, cost2, dvfs=None)
        fleet.finish(0, end2)
        assert engine.dvfs_transitions == [
            (0.0, None, eco), (end, eco, None),
        ]
        assert [record.dvfs for record in engine.records] == ["eco", None]

    def test_same_point_redispatch_logs_no_transition(self):
        system = build_accelerator(ACCELERATOR, PES)
        engine = ExecutionEngine(sub=system.subs[0])
        fleet = EngineFleet([engine])
        costs = CachedCostTable()
        cost = system.engine_cost(costs, "HT", 0, None)
        for frame in range(3):
            item = WorkItem(request=InferenceRequest(
                model_code="HT", model_frame=frame,
                request_time_s=0.0, deadline_s=1.0,
            ))
            end = fleet.begin(engine, item, 0.0 + frame, cost, dvfs=None)
            fleet.finish(0, end)
        assert engine.dvfs_transitions == []

    def test_governed_run_stamps_points_on_records(self):
        result = run_governed("latency_greedy", "model", 1, "race_to_idle")
        assert result.records
        assert {record.dvfs for record in result.records} == {"boost"}
        static = run_governed("latency_greedy", "model", 1, "static")
        assert result.total_energy_mj() > static.total_energy_mj()


class TestEnergyAccounting:
    def test_total_energy_is_sum_of_session_energy(self):
        result = run_governed("latency_greedy", "model", 4, "static")
        assert result.total_energy_mj() == pytest.approx(
            sum(s.total_energy_mj() for s in result.sessions)
        )

    def test_session_energy_is_record_sum(self):
        result = run_governed("latency_greedy", "segment", 2, "slack")
        for session in result.sessions:
            assert session.total_energy_mj() == pytest.approx(
                sum(record.energy_mj for record in session.records)
            )

    def test_governed_runs_validate_policy_eagerly(self):
        with pytest.raises(ValueError, match="unknown dvfs policy"):
            replicate(
                get_scenario(SCENARIO),
                build_accelerator(ACCELERATOR, PES),
                make_scheduler("latency_greedy"),
                1,
                duration_s=DURATION_S,
                dvfs_policy="overclock",
            )


class TestPolicyListConsistency:
    """One policy set, three declaration sites — pinned to each other."""

    def test_api_mirror_matches_runtime(self):
        from repro.api import DVFS_POLICIES as api_policies
        from repro.runtime import DVFS_POLICIES as runtime_policies

        assert tuple(api_policies) == tuple(runtime_policies)

    def test_schema_enum_matches_runtime(self):
        import json
        from pathlib import Path

        from repro.runtime import DVFS_POLICIES as runtime_policies

        schema_path = (
            Path(__file__).resolve().parents[2]
            / "schema" / "runspec.schema.json"
        )
        schema = json.loads(schema_path.read_text())
        enum = schema["definitions"]["runspec"]["properties"][
            "dvfs_policy"
        ]["enum"]
        assert tuple(enum) == tuple(runtime_policies)


class TestStaticGovernorInstance:
    """A StaticGovernor *instance* drives the governed code path to the
    same schedule as no governor at all — the two shapes agree."""

    @pytest.mark.parametrize("granularity", ["model", "segment"])
    def test_instance_matches_ungoverned_run(self, granularity):
        ungoverned = replicate(
            get_scenario(SCENARIO),
            build_accelerator(ACCELERATOR, PES),
            make_scheduler("latency_greedy"),
            2,
            duration_s=DURATION_S,
            granularity=granularity,
        ).run()
        governed = replicate(
            get_scenario(SCENARIO),
            build_accelerator(ACCELERATOR, PES),
            make_scheduler("latency_greedy"),
            2,
            duration_s=DURATION_S,
            granularity=granularity,
            dvfs_policy=StaticGovernor(),
        ).run()
        assert checksum_of(governed) == checksum_of(ungoverned)
        assert governed.total_energy_mj() == pytest.approx(
            ungoverned.total_energy_mj()
        )
        assert {r.dvfs for r in governed.records} == {None}
