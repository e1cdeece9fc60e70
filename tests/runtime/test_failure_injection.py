"""Tests for failure injection (sensor frame loss) and the RM scheduler."""

from __future__ import annotations

import pytest
from sim_helpers import run_single

from repro.core import Harness, HarnessConfig
from repro.costmodel import CostTable
from repro.hardware import build_accelerator
from repro.runtime import (
    EngineFleet,
    ExecutionEngine,
    RateMonotonicScheduler,
    WorkItem,
    make_scheduler,
)
from repro.workload import InferenceRequest, LoadGenerator, get_scenario


class TestLoadGenFrameLoss:
    def test_zero_loss_is_default(self):
        gen = LoadGenerator(get_scenario("vr_gaming"), 1.0)
        assert not any(gen.frame_lost("HT", f) for f in range(100))

    def test_loss_rate_approximates_probability(self):
        gen = LoadGenerator(
            get_scenario("vr_gaming"), 1.0, seed=0,
            frame_loss_probability=0.3,
        )
        losses = sum(gen.frame_lost("ES", f) for f in range(3000))
        assert 0.25 < losses / 3000 < 0.35

    def test_lost_frames_removed_from_requests(self):
        scenario = get_scenario("vr_gaming")
        clean = LoadGenerator(scenario, 1.0, seed=0).root_requests()
        lossy = LoadGenerator(
            scenario, 1.0, seed=0, frame_loss_probability=0.5
        ).root_requests()
        assert len(lossy) < len(clean)

    def test_deterministic_per_seed(self):
        scenario = get_scenario("vr_gaming")
        a = LoadGenerator(scenario, 1.0, seed=3,
                          frame_loss_probability=0.4).root_requests()
        b = LoadGenerator(scenario, 1.0, seed=3,
                          frame_loss_probability=0.4).root_requests()
        assert [r.model_frame for r in a] == [r.model_frame for r in b]

    def test_rejects_invalid_probability(self):
        with pytest.raises(ValueError, match="frame_loss"):
            LoadGenerator(get_scenario("vr_gaming"), 1.0,
                          frame_loss_probability=1.0)


class TestSimulatorUnderFrameLoss:
    def run(self, loss: float, cost_table):
        return run_single(
            get_scenario("vr_gaming"),
            build_accelerator("A", 8192),
            make_scheduler("latency_greedy"),
            duration_s=1.0,
            costs=cost_table,
            frame_loss_probability=loss,
        )

    def test_qoe_denominator_counts_lost_frames(self, cost_table):
        result = self.run(0.3, cost_table)
        # Streamed counts stay nominal (45 HT + 60 ES at 1 s) even though
        # fewer requests arrived.
        assert result.num_frames("HT") == 45
        assert result.num_frames("ES") == 60
        arrived = [r for r in result.requests if r.model_code == "ES"]
        assert len(arrived) < 60

    def test_loss_degrades_qoe_score(self, cost_table):
        from repro.core import score_simulation

        clean = score_simulation(self.run(0.0, cost_table))
        lossy = score_simulation(self.run(0.4, cost_table))
        assert lossy.qoe < clean.qoe
        assert lossy.overall < clean.overall

    def test_harness_config_plumbing(self, cost_table):
        harness = Harness(
            config=HarnessConfig(frame_loss_probability=0.4),
            costs=cost_table,
        )
        report = harness.run_scenario(
            "vr_gaming", build_accelerator("A", 8192)
        )
        assert report.score.qoe < 0.9

    def test_config_validates_probability(self):
        with pytest.raises(ValueError, match="frame_loss"):
            HarnessConfig(frame_loss_probability=-0.1)


class TestRateMonotonicScheduler:
    def item(self, code, period, t=0.0):
        return WorkItem(InferenceRequest(code, 0, t, t + period))

    def select(self, scheduler, waiting):
        system = build_accelerator("J", 4096)
        engines = EngineFleet(
            [ExecutionEngine(sub) for sub in system.subs]
        ).engines
        return scheduler.select(0.0, waiting, engines, system, CostTable())

    def test_prefers_shortest_period(self):
        s = RateMonotonicScheduler()
        slow = self.item("PD", 1 / 30)
        fast = self.item("ES", 1 / 60)
        assert self.select(s, [slow, fast])[0] is fast

    def test_explicit_periods_override(self):
        s = RateMonotonicScheduler(periods={"PD": 0.001, "ES": 1.0})
        pd = self.item("PD", 1 / 30)
        es = self.item("ES", 1 / 60)
        assert self.select(s, [pd, es])[0] is pd

    def test_end_to_end_run(self, cost_table):
        harness = Harness(
            config=HarnessConfig(scheduler="rate_monotonic"),
            costs=cost_table,
        )
        report = harness.run_scenario(
            "ar_gaming", build_accelerator("J", 8192)
        )
        assert 0.0 <= report.overall <= 1.0

    def test_rm_protects_high_rate_models_under_load(self, cost_table):
        # On the saturated 4K system, RM must keep the 45 FPS HT model at
        # least as healthy as the 30 FPS PD model.
        harness = Harness(
            config=HarnessConfig(scheduler="rate_monotonic"),
            costs=cost_table,
        )
        score = harness.run_scenario(
            "ar_gaming", build_accelerator("J", 4096)
        ).score
        assert score.model("HT").qoe >= score.model("PD").qoe - 0.05
