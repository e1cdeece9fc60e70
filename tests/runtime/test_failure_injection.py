"""Tests for failure injection (sensor frame loss) and the RM scheduler."""

from __future__ import annotations

import pytest
from sim_helpers import price_table, run_single

from repro.api import RunSpec, execute
from repro.hardware import build_accelerator
from repro.runtime import (
    EngineFleet,
    ExecutionEngine,
    RateMonotonicScheduler,
    SessionSpec,
    WorkItem,
    make_scheduler,
)
from repro.workload import InferenceRequest, LoadGenerator, get_scenario
from repro.workload.loadgen import _build_schedules, root_schedules


class TestLoadGenFrameLoss:
    def test_zero_loss_is_default(self):
        scenario = get_scenario("vr_gaming")
        loss = SessionSpec(0, scenario).frame_loss_probability
        assert loss == 0.0
        (rows,) = root_schedules([(scenario, 1.0, 0, loss)])
        assert [f for _, code, f, _ in rows if code == "HT"] == list(range(45))

    def test_loss_rate_approximates_probability(self):
        # 50 s streams 3,000 ES frames.
        scenario = get_scenario("vr_gaming")
        (rows,) = root_schedules([(scenario, 50.0, 0, 0.3)])
        streamed = LoadGenerator.of(scenario, 50.0).root_frames["ES"]
        kept = sum(1 for _, code, _, _ in rows if code == "ES")
        assert streamed == 3000
        assert 0.25 < 1 - kept / streamed < 0.35

    def test_lost_frames_removed_from_requests(self):
        # Loss drops rows and leaves the others as they were.
        scenario = get_scenario("vr_gaming")
        clean, lossy = root_schedules([
            (scenario, 1.0, 0, 0.0), (scenario, 1.0, 0, 0.5),
        ])
        assert len(lossy) < len(clean)
        assert set(lossy) <= set(clean)

    def test_deterministic_per_seed(self):
        # A fresh build (past the memo) loses the memoised rows' frames.
        key = (get_scenario("vr_gaming"), 1.0, 3, 0.4)
        (rebuilt,) = _build_schedules([key])
        (rows,) = root_schedules([key])
        assert [r[2] for r in rebuilt] == [r[2] for r in rows]

    @pytest.mark.parametrize("loss", [1.0, -0.5])
    def test_rejects_invalid_probability(self, loss):
        # At construction, not when the session joins a run.
        with pytest.raises(ValueError, match="frame_loss"):
            SessionSpec(0, get_scenario("vr_gaming"),
                        frame_loss_probability=loss)


class TestSimulatorUnderFrameLoss:
    def run(self, loss: float):
        return run_single(
            get_scenario("vr_gaming"),
            build_accelerator("A", 8192),
            make_scheduler("latency_greedy"),
            duration_s=1.0,
            frame_loss_probability=loss,
        )

    def test_qoe_denominator_counts_lost_frames(self):
        result = self.run(0.3)
        # Streamed counts stay nominal (45 HT + 60 ES at 1 s) even though
        # fewer requests arrived.
        assert result.num_frames("HT") == 45
        assert result.num_frames("ES") == 60
        arrived = [r for r in result.requests if r.model_code == "ES"]
        assert len(arrived) < 60

    def test_loss_degrades_qoe_score(self):
        from repro.core import score_simulation

        clean = score_simulation(self.run(0.0))
        lossy = score_simulation(self.run(0.4))
        assert lossy.qoe < clean.qoe
        assert lossy.overall < clean.overall

    def test_spec_frame_loss_plumbing(self):
        report = execute(RunSpec(
            scenario="vr_gaming", accelerator="A", pes=8192,
            frame_loss=0.4,
        ))
        assert report.score.qoe < 0.9


class TestRateMonotonicScheduler:
    def item(self, code, period, t=0.0):
        return WorkItem(InferenceRequest(code, 0, t, t + period))

    def select(self, scheduler, waiting):
        system = build_accelerator("J", 4096)
        engines = EngineFleet(
            [ExecutionEngine(sub) for sub in system.subs]
        ).engines
        return scheduler.select(
            0.0, waiting, engines, system, price_table(system)
        )

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

    def test_end_to_end_run(self):
        report = execute(RunSpec(
            scenario="ar_gaming", accelerator="J", pes=8192,
            scheduler="rate_monotonic",
        ))
        assert 0.0 <= report.overall <= 1.0

    def test_rm_protects_high_rate_models_under_load(self):
        # On the saturated 4K system, RM must keep the 45 FPS HT model at
        # least as healthy as the 30 FPS PD model.
        score = execute(RunSpec(
            scenario="ar_gaming", accelerator="J", pes=4096,
            scheduler="rate_monotonic",
        )).score
        assert score.model("HT").qoe >= score.model("PD").qoe - 0.05
