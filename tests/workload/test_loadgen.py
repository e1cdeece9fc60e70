"""Tests for the load generator."""

from __future__ import annotations

import pytest

from repro.workload import FramePlan, LoadGenerator, get_scenario
from repro.workload.loadgen import _build_schedules, root_schedules


def schedule(scenario, seed=0, duration_s=1.0):
    """One session's root schedule, without frame loss."""
    return root_schedules([(scenario, duration_s, seed, 0.0)])[0]


def entry_for(loadgen: LoadGenerator, scenario, downstream: str):
    """The :attr:`LoadGenerator.dependents` entry feeding ``downstream``."""
    dep = scenario.upstream_of(downstream)
    (entry,) = [e for e in loadgen.dependents[dep.upstream] if e[0] == dep]
    return entry


@pytest.fixture
def vr_loadgen() -> LoadGenerator:
    return LoadGenerator.of(get_scenario("vr_gaming"), 1.0)


class TestRootRequests:
    def test_roots_only(self):
        codes = {code for _, code, _, _ in schedule(get_scenario("vr_gaming"))}
        assert codes == {"HT", "ES"}  # GE is data-dependent on ES

    def test_counts_match_rates(self):
        by_code = {}
        for _, code, frame, _ in schedule(get_scenario("vr_gaming")):
            by_code.setdefault(code, []).append(frame)
        assert len(by_code["ES"]) == 60
        assert len(by_code["HT"]) == 45

    def test_sorted_by_request_time(self):
        times = [row[0] for row in schedule(get_scenario("vr_gaming"))]
        assert times == sorted(times)

    def test_deterministic_per_seed(self):
        # A fresh build (past the memo) gives the memoised rows.
        scenario = get_scenario("vr_gaming")
        (rebuilt,) = _build_schedules([(scenario, 1.0, 3, 0.0)])
        assert rebuilt == schedule(scenario, seed=3)

    def test_seed_changes_jitter(self):
        scenario = get_scenario("vr_gaming")
        a = schedule(scenario, seed=0)
        b = schedule(scenario, seed=99)
        assert any(x[0] != y[0] for x, y in zip(a, b))

    def test_invalid_duration(self):
        with pytest.raises(ValueError, match="duration"):
            LoadGenerator.of(get_scenario("vr_gaming"), 0.0)


class TestDependencySpawning:
    def test_data_dep_always_triggers(self, vr_loadgen: LoadGenerator):
        entry = entry_for(vr_loadgen, get_scenario("vr_gaming"), "GE")
        assert all(
            vr_loadgen.spawn_dependent(entry, f, 0.0, seed=0) is not None
            for f in range(60)
        )

    def test_control_dep_rate_approximates_probability(self):
        scenario = get_scenario("vr_gaming").with_dependency_probability(
            "ES", "GE", 0.3
        )
        # 40 s streams 2,400 GE frames, so no roll falls past the window.
        gen = LoadGenerator.of(scenario, 40.0)
        entry = entry_for(gen, scenario, "GE")
        hits = sum(
            gen.spawn_dependent(entry, f, 0.0, seed=0) is not None
            for f in range(2000)
        )
        assert 0.25 < hits / 2000 < 0.35

    def test_trigger_rolls_deterministic(self):
        # outdoor_activity_a's KD -> SR fires with probability 0.2; 40 s
        # streams 120 SR frames.
        scenario = get_scenario("outdoor_activity_a")
        gen = LoadGenerator.of(scenario, 40.0)
        entry = entry_for(gen, scenario, "SR")

        def rolls(seed):
            return [
                gen.spawn_dependent(entry, f, 0.0, seed) is not None
                for f in range(100)
            ]

        assert rolls(5) == rolls(5)
        assert rolls(5) != rolls(6)

    def test_spawn_dependent_basic(self, vr_loadgen: LoadGenerator):
        entry = entry_for(vr_loadgen, get_scenario("vr_gaming"), "GE")
        child = vr_loadgen.spawn_dependent(entry, upstream_frame=5,
                                           ready_time_s=0.1, seed=0)
        assert child is not None
        assert child.model_code == "GE"
        assert child.request_time_s == pytest.approx(0.1)

    def test_spawn_outside_duration_returns_none(
        self, vr_loadgen: LoadGenerator
    ):
        entry = entry_for(vr_loadgen, get_scenario("vr_gaming"), "GE")
        child = vr_loadgen.spawn_dependent(entry, upstream_frame=120,
                                           ready_time_s=2.5, seed=0)
        assert child is None

    def test_spawn_zero_probability_returns_none(self):
        scenario = get_scenario("vr_gaming").with_dependency_probability(
            "ES", "GE", 0.0
        )
        gen = LoadGenerator.of(scenario, 1.0)
        entry = entry_for(gen, scenario, "GE")
        assert gen.spawn_dependent(entry, 0, 0.01, seed=0) is None

    def test_downstream_deadline_matches_plan(self, vr_loadgen: LoadGenerator):
        scenario = get_scenario("vr_gaming")
        entry = entry_for(vr_loadgen, scenario, "GE")
        child = vr_loadgen.spawn_dependent(entry, 10, 0.18, seed=0)
        plan = FramePlan(scenario.get("GE"))
        assert child.deadline_s == pytest.approx(
            plan.deadline_s(child.model_frame)
        )


class TestDependents:
    def test_downstream_of_upstream(self, vr_loadgen: LoadGenerator):
        entries = vr_loadgen.dependents["ES"]
        assert [dep.downstream for dep, _, _ in entries] == ["GE"]

    def test_no_downstream(self, vr_loadgen: LoadGenerator):
        assert "HT" not in vr_loadgen.dependents


class TestRootFrames:
    def test_excludes_dependent_models(self, vr_loadgen: LoadGenerator):
        assert vr_loadgen.root_frames == {"HT": 45, "ES": 60}
