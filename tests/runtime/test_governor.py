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
  formulation picks (``reference_select``, which prices every candidate
  by key through ``CostTable`` and ``scale_cost``), on every governed
  dispatch of the pinned slack cells.
"""

from __future__ import annotations

import functools
from typing import Sequence

import pytest
from sim_helpers import price_table, replicate
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
    CostModel,
    CostTable,
    Dataflow,
    DvfsPoint,
    ModelCost,
    PriceTable,
    scale_cost,
)
from repro.hardware import AcceleratorSystem, build_accelerator
from repro.runtime import (
    DispatchContext,
    EngineFleet,
    ExecutionEngine,
    RaceToIdleGovernor,
    SlackGovernor,
    WorkItem,
    make_governor,
    make_scheduler,
    split_graph,
)
from repro.runtime.segmentation import SegmentChain
from repro.workload import InferenceRequest, get_scenario
from repro.zoo import build_model

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
    prices = price_table(system)
    nominal = prices.engine_cost("HT", 0)
    request = InferenceRequest(
        model_code="HT",
        model_frame=0,
        request_time_s=0.0,
        deadline_s=nominal.latency_s * 10,
    )
    return system, engine, prices, nominal, WorkItem(request=request)


class TestGovernorSelection:
    def test_make_governor_static_is_absent(self):
        assert make_governor("static") is None

    def test_make_governor_accepts_hyphens(self):
        assert isinstance(make_governor("race-to-idle"), RaceToIdleGovernor)

    def test_make_governor_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown dvfs policy"):
            make_governor("warp_speed")

    def test_race_to_idle_picks_fastest(self, dispatch_fixture):
        system, engine, prices, _, item = dispatch_fixture
        chosen = RaceToIdleGovernor().select(
            0.0, item, engine, (), system, prices, DispatchContext()
        )
        assert chosen is not None
        assert chosen.frequency_scale == max(
            p.frequency_scale for p in DEFAULT_DVFS_POINTS
        )

    def test_slack_downshifts_with_generous_headroom(
        self, dispatch_fixture
    ):
        system, engine, prices, _, item = dispatch_fixture
        chosen = SlackGovernor().select(
            0.0, item, engine, (), system, prices, DispatchContext()
        )
        assert chosen is not None
        assert chosen.name == "eco"

    def test_slack_declines_under_contention(self, dispatch_fixture):
        system, engine, prices, _, item = dispatch_fixture
        chosen = SlackGovernor().select(
            0.0, item, engine, (), system, prices,
            DispatchContext(contended=True),
        )
        assert chosen is None

    def test_slack_declines_for_upstream_models(self, dispatch_fixture):
        system, engine, prices, _, item = dispatch_fixture
        chosen = SlackGovernor().select(
            0.0, item, engine, (), system, prices,
            DispatchContext(has_dependents=True),
        )
        assert chosen is None

    def test_slack_respects_event_horizon(self, dispatch_fixture):
        system, engine, prices, nominal, item = dispatch_fixture
        # The next scheduled event lands before any slower point could
        # finish, so the governor must not stretch past it.
        chosen = SlackGovernor().select(
            0.0, item, engine, (), system, prices,
            DispatchContext(next_event_s=nominal.latency_s * 1.01),
        )
        assert chosen is None

    def test_slack_races_only_when_it_rescues(self, dispatch_fixture):
        system, engine, prices, nominal, item = dispatch_fixture
        boost_latency = prices.engine_cost(
            "HT", 0, DvfsPoint("boost", 1.3)
        ).latency_s
        # Boost fits, nominal does not -> race.
        rescuable = WorkItem(request=InferenceRequest(
            model_code="HT", model_frame=1, request_time_s=0.0,
            deadline_s=(boost_latency + nominal.latency_s) / 2,
        ))
        chosen = SlackGovernor().select(
            0.0, rescuable, engine, (), system, prices, DispatchContext()
        )
        assert chosen is not None and chosen.name == "boost"
        # Nothing fits -> stay at base instead of burning boost energy.
        hopeless = WorkItem(request=InferenceRequest(
            model_code="HT", model_frame=2, request_time_s=0.0,
            deadline_s=boost_latency / 2,
        ))
        chosen = SlackGovernor().select(
            0.0, hopeless, engine, (), system, prices, DispatchContext()
        )
        assert chosen is None

    def test_slack_reserves_budget_for_remaining_segments(
        self, dispatch_fixture
    ):
        system, engine, prices, nominal, item = dispatch_fixture
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
        chain = SegmentChain("HT", ("HT", "HT"))
        chain.ids = (prices.ids["HT"],) * 2
        unreserved = SlackGovernor().select(
            0.0, tight, engine, chain.suffixes[2], system, prices,
            DispatchContext(),
        )
        reserved = SlackGovernor().select(
            0.0, tight, engine, chain.suffixes[1], system, prices,
            DispatchContext(),
        )
        assert unreserved is not None and unreserved.name == "eco"
        assert reserved is not unreserved


# -- the slack governor against its per-call formulation ---------------------
#
# ``reference_select`` is ``SlackGovernor.select`` in its per-call form:
# it filters the ladder under a thermal cap on every call and prices each
# candidate, and each remaining segment, by key.  It never reads the
# run's price table: zoo codes go through ``CostTable`` and dispatch
# pieces (``X.iofn``) through the analysis of ``split_graph``'s piece,
# both scaled with ``scale_cost``.


@functools.cache
def reference_cost(code: str, dataflow: Dataflow, num_pes: int,
                   point: DvfsPoint | None) -> ModelCost:
    """One code's cost on one engine shape at ``point``, by key."""
    model, _, piece = code.partition(".")
    if piece:
        index, total = piece.split("of")
        graph = split_graph(build_model(model), int(total))[int(index)]
        cost = CostModel(dataflow=dataflow, num_pes=num_pes).model_cost(
            graph
        )
    else:
        cost = CostTable().cost(code, dataflow, num_pes)
    return cost if point is None else scale_cost(cost, point)


def reference_select(
    self: SlackGovernor,
    now_s: float,
    item: WorkItem,
    engine: ExecutionEngine,
    remaining_codes: Sequence[str | None],
    system: AcceleratorSystem,
    prices: PriceTable,
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
    sub = engine.sub

    def lat_en(point: DvfsPoint | None) -> tuple[float, float]:
        cost = reference_cost(item.code, sub.dataflow, sub.num_pes, point)
        return cost.latency_s, cost.energy_mj

    slack_s = item.request.deadline_s - now_s

    def budget_at(point: DvfsPoint | None) -> float:
        """Deadline budget for this piece with the rest of the
        chain reserved at ``point`` (successors re-decide at their
        own boundaries, so uniform pricing is self-consistent)."""
        budget_s = slack_s
        for rcode in remaining_codes:
            budget_s -= reference_cost(
                rcode or item.request.model_code, sub.dataflow,
                sub.num_pes, point,
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

    def select(self, now_s, item, engine, remaining_codes, system, prices,
               context):
        chosen = super().select(
            now_s, item, engine, remaining_codes, system, prices, context
        )
        expected = reference_select(
            self, now_s, item, engine, remaining_codes, system, prices,
            context,
        )
        assert chosen is expected, (now_s, item, chosen, expected)
        _CheckedSlackGovernor.calls += 1
        if engine.max_frequency_scale is not None:
            _CheckedSlackGovernor.throttled += 1
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


class TestTransitionsAndRecords:
    def test_fleet_begin_logs_frequency_transitions(self):
        system = build_accelerator(ACCELERATOR, PES)
        engine = ExecutionEngine(sub=system.subs[0])
        fleet = EngineFleet([engine])
        prices = price_table(system)
        eco = DvfsPoint("eco", 0.5)
        item = WorkItem(request=InferenceRequest(
            model_code="HT", model_frame=0,
            request_time_s=0.0, deadline_s=1.0,
        ))
        cost = prices.engine_cost("HT", 0, eco)
        end = fleet.begin(engine, item, 0.0, cost, dvfs=eco)
        fleet.finish(0, end)
        cost2 = prices.engine_cost("HT", 0)
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
        cost = price_table(system).engine_cost("HT", 0)
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

        # One tuple: the api re-exports the runtime's own object.
        assert api_policies is runtime_policies

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


class _EffectivePointGovernor:
    """Always the engine's effective point: what ``"static"`` runs at."""

    def select(self, now_s, item, engine, remaining_codes, system,
               prices, context):
        return engine.effective_dvfs


class TestStaticGovernorInstance:
    """A governor *instance* that keeps every engine at its effective
    point drives the governed code path to the same schedule as no
    governor at all — the two shapes agree."""

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
            dvfs_policy=_EffectivePointGovernor(),
        ).run()
        assert checksum_of(governed) == checksum_of(ungoverned)
        assert governed.total_energy_mj() == pytest.approx(
            ungoverned.total_energy_mj()
        )
        assert {r.dvfs for r in governed.records} == {None}
