"""Tests for Herald-style model segmentation."""

from __future__ import annotations

import pytest
from sim_helpers import replicate, run_single

from repro.core import score_simulation
from repro.costmodel import Dataflow, PriceTable
from repro.hardware import build_accelerator
from repro.runtime import (
    LatencyGreedyScheduler,
    MultiScenarioSimulator,
    SessionSpec,
    segment_scenario,
    split_graph,
)
from repro.runtime.segmentation import segment_code
from repro.workload import get_scenario
from repro.zoo import build_model


class TestSplitGraph:
    def test_single_segment_is_identity(self):
        g = build_model("PD")
        assert split_graph(g, 1) == (g,)

    def test_pieces_memoised_per_graph_and_count(self):
        # Runs and variants share piece objects, which the cost store
        # keys by identity.
        g = build_model("PD")
        pieces = split_graph(g, 2)
        assert isinstance(pieces, tuple)
        assert split_graph(g, 2) is pieces
        assert split_graph(g, 3) != pieces

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_partition_covers_all_layers(self, k):
        g = build_model("PD")
        pieces = split_graph(g, k)
        assert len(pieces) == k
        recombined = [layer for p in pieces for layer in p.layers]
        assert recombined == list(g.layers)

    def test_macs_conserved(self):
        g = build_model("PD")
        pieces = split_graph(g, 3)
        assert sum(p.total_macs for p in pieces) == g.total_macs

    def test_segments_roughly_balanced(self):
        g = build_model("PD")
        pieces = split_graph(g, 2)
        shares = [p.total_macs / g.total_macs for p in pieces]
        assert all(0.2 < s < 0.8 for s in shares), shares

    def test_shape_chain_continuous(self):
        pieces = split_graph(build_model("PD"), 4)
        for a, b in zip(pieces, pieces[1:]):
            assert a.out_shape == b.input_shape

    def test_residual_safety(self):
        # No segment may reference a residual source in another segment —
        # ModelGraph validation would reject it, so construction succeeding
        # is the proof; verify explicitly anyway.
        for piece in split_graph(build_model("DE"), 3):
            names = {layer.name for layer in piece.layers}
            for layer in piece.layers:
                if layer.residual_from is not None:
                    assert layer.residual_from in names

    def test_rejects_zero_segments(self):
        with pytest.raises(ValueError, match="segments"):
            split_graph(build_model("PD"), 0)

    def test_rejects_more_segments_than_layers(self):
        g = build_model("KD")
        with pytest.raises(ValueError):
            split_graph(g, g.num_layers + 1)


class TestSegmentGraphPricing:
    """Segment pieces are priced from their own graphs."""

    def prices(self):
        pd = build_model("PD")
        pieces = split_graph(pd, 2)
        return PriceTable(
            build_accelerator("A", 4096), (),
            {"PD": pd, "PD.0": pieces[0], "PD.1": pieces[1]},
        )

    def test_piece_priced_from_its_graph(self):
        cost = self.prices().engine_cost("PD.0", 0)
        assert cost.model_name == "plane_detection.0"
        assert cost.dataflow is Dataflow.WS

    def test_segments_cheaper_than_whole(self):
        prices = self.prices()
        whole = prices.engine_cost("PD", 0).latency_s
        part0 = prices.engine_cost("PD.0", 0).latency_s
        part1 = prices.engine_cost("PD.1", 0).latency_s
        assert part0 < whole and part1 < whole
        # Splitting adds only the per-layer ramp overhead.
        assert part0 + part1 == pytest.approx(whole, rel=0.05)


class TestSegmentScenario:
    def test_replaces_model_with_chain(self):
        scenario = segment_scenario(get_scenario("ar_gaming"), "PD", 2)
        assert "PD" not in scenario.codes
        assert segment_code("PD", 0) in scenario.codes
        assert segment_code("PD", 1) in scenario.codes

    def test_segments_carry_their_pieces(self):
        scenario = segment_scenario(get_scenario("ar_gaming"), "PD", 2)
        pieces = split_graph(build_model("PD"), 2)
        assert scenario.get("PD.0").model.graph is pieces[0]
        assert scenario.get("PD.1").model.graph is pieces[1]

    def test_chain_dependencies(self):
        scenario = segment_scenario(get_scenario("ar_gaming"), "PD", 3)
        assert scenario.upstream_of("PD.0") is None
        assert scenario.upstream_of("PD.1").upstream == "PD.0"
        assert scenario.upstream_of("PD.2").upstream == "PD.1"

    def test_intermediate_segments_marked_aux(self):
        scenario = segment_scenario(get_scenario("ar_gaming"), "PD", 3)
        assert scenario.get("PD.0").aux
        assert scenario.get("PD.1").aux
        assert not scenario.get("PD.2").aux

    def test_rates_inherited(self):
        scenario = segment_scenario(get_scenario("ar_gaming"), "PD", 2)
        assert scenario.fps_of("PD.0") == 30
        assert scenario.fps_of("PD.1") == 30

    def test_inactive_model_rejected(self):
        with pytest.raises(KeyError):
            segment_scenario(get_scenario("ar_gaming"), "SS", 2)

    def test_dependent_model_rejected(self):
        with pytest.raises(ValueError, match="dependency"):
            segment_scenario(get_scenario("vr_gaming"), "ES", 2)

    def test_single_segment_rejected(self):
        with pytest.raises(ValueError, match="segments"):
            segment_scenario(get_scenario("ar_gaming"), "PD", 1)


class TestSegmentedExecution:
    def run(self, segments: int):
        scenario = get_scenario("ar_gaming")
        if segments > 1:
            scenario = segment_scenario(scenario, "PD", segments)
        sim = run_single(
            scenario, build_accelerator("J", 4096),
            LatencyGreedyScheduler(), duration_s=1.0,
        )
        return sim, score_simulation(sim)

    def test_runs_end_to_end(self):
        sim, score = self.run(2)
        assert 0.0 <= score.overall <= 1.0
        assert sim.completed("PD.1")

    def test_segments_execute_in_order(self):
        sim, _ = self.run(2)
        firsts = {
            r.model_frame: r.end_time_s for r in sim.completed("PD.0")
        }
        for second in sim.completed("PD.1"):
            assert second.model_frame in firsts
            assert second.start_time_s >= firsts[second.model_frame] - 1e-12

    def test_pipelining_improves_pd_throughput(self):
        # The Herald trade-off: splitting the saturating model raises its
        # completed-frame rate (QoE) even though per-frame latency (RT)
        # stays deadline-bound.
        _, whole = self.run(1)
        _, split = self.run(2)
        pd_whole = whole.model("PD")
        pd_split = split.model("PD.1")
        assert pd_split.qoe > pd_whole.qoe + 0.1

    def test_aux_segments_not_scored(self):
        _, score = self.run(2)
        scored = {m.model_code for m in score.scored_models}
        assert "PD.0" not in scored
        assert "PD.1" in scored


class TestSegmentedGroups:
    """Sessions that stream segment variants side by side.

    A run prices each code from the graph its sessions bind to it, so
    two sessions binding one code to two different graphs cannot share
    a price table: the run must refuse before anything is dispatched.
    """

    def group(self, *splits):
        return MultiScenarioSimulator(
            sessions=[
                SessionSpec(
                    i, segment_scenario(get_scenario("ar_gaming"), "PD", k),
                    seed=i,
                )
                for i, k in enumerate(splits)
            ],
            system=build_accelerator("J", 8192),
            scheduler=self.scheduler,
            duration_s=0.2,
        )

    def setup_method(self):
        self.scheduler = _RecordingScheduler()

    def test_variants_of_one_split_share_pieces(self):
        first = segment_scenario(get_scenario("ar_gaming"), "PD", 2)
        second = segment_scenario(get_scenario("ar_gaming"), "PD", 2)
        for code in ("PD.0", "PD.1"):
            assert first.get(code).model.graph is (
                second.get(code).model.graph
            )
        result = self.group(2, 2).run()
        assert all(s.completed("PD.1") for s in result.sessions)

    def test_mixed_split_counts_rejected_before_any_dispatch(self):
        # PD.0 of the 2-way split is half of PD, of the 3-way split a
        # third: pricing both from one entry would mis-price a session.
        group = self.group(2, 3)
        with pytest.raises(ValueError, match="'PD.0'"):
            group.run()
        assert self.scheduler.calls == 0

    def test_back_to_back_segmented_runs_are_identical(self):
        from repro.runtime import make_scheduler

        results = []
        for _ in range(2):
            results.append(replicate(
                get_scenario("vr_gaming"),
                build_accelerator("J", 8192),
                make_scheduler("latency_greedy"),
                2,
                duration_s=0.2,
                granularity="segment",
            ).run())
        logs = [
            [(r.start_s, r.sub_index, r.model_code, r.segment_index)
             for r in result.records]
            for result in results
        ]
        assert logs[0] == logs[1]


class _RecordingScheduler(LatencyGreedyScheduler):
    """Latency-greedy, counting the dispatch decisions it is asked for."""

    def __init__(self):
        self.calls = 0

    def select(self, now_s, waiting, idle_engines, system, prices):
        self.calls += 1
        return super().select(now_s, waiting, idle_engines, system, prices)
