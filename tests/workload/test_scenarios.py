"""Tests for usage scenarios (Table 2)."""

from __future__ import annotations

import pytest

from repro.workload import (
    SCENARIO_ORDER,
    SCENARIOS,
    Dependency,
    DependencyKind,
    ScenarioModel,
    UsageScenario,
    benchmark_suite,
    get_model,
    get_scenario,
)


class TestRegistry:
    def test_seven_scenarios(self):
        assert len(SCENARIOS) == 7
        assert len(SCENARIO_ORDER) == 7

    def test_order_matches_registry(self):
        assert set(SCENARIO_ORDER) == set(SCENARIOS)

    def test_get_scenario_unknown(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")

    def test_benchmark_suite_ordering(self):
        names = [s.name for s in benchmark_suite()]
        assert names == list(SCENARIO_ORDER)


class TestTable2Rates:
    """The reconstructed Table 2."""

    def test_social_interaction_a(self):
        s = get_scenario("social_interaction_a")
        assert {c: s.fps_of(c) for c in s.codes} == {
            "HT": 30, "ES": 60, "GE": 60, "DR": 30,
        }

    def test_social_interaction_b(self):
        s = get_scenario("social_interaction_b")
        assert {c: s.fps_of(c) for c in s.codes} == {
            "ES": 60, "GE": 60, "DR": 30,
        }

    def test_outdoor_activity_a(self):
        s = get_scenario("outdoor_activity_a")
        assert {c: s.fps_of(c) for c in s.codes} == {
            "KD": 3, "SR": 3, "OD": 10, "DE": 30,
        }

    def test_outdoor_activity_b_engages_hand_tracking(self):
        # Section 3.3: during the rest break, hand tracking is engaged.
        s = get_scenario("outdoor_activity_b")
        assert {c: s.fps_of(c) for c in s.codes} == {
            "HT": 30, "KD": 3, "SR": 3,
        }

    def test_ar_assistant_has_most_models(self):
        # Observation 3: AR assistant includes the most models (6).
        counts = {n: SCENARIOS[n].num_models for n in SCENARIOS}
        assert counts["ar_assistant"] == 6
        assert max(counts.values()) == 6

    def test_vr_gaming_has_fewest_models(self):
        # Observation 3: VR gaming includes the fewest models (3).
        assert SCENARIOS["vr_gaming"].num_models == 3

    def test_ar_gaming_models_match_figure6(self):
        # Figure 6's legend: DE, HT and PD run in AR gaming.
        assert set(SCENARIOS["ar_gaming"].codes) == {"HT", "DE", "PD"}

    def test_sr_always_at_3fps(self):
        for s in SCENARIOS.values():
            if "SR" in s.codes:
                assert s.fps_of("SR") == 3


class TestDependencies:
    def test_eye_pipeline_is_data_dep(self):
        dep = get_scenario("vr_gaming").upstream_of("GE")
        assert dep is not None
        assert dep.upstream == "ES"
        assert dep.kind is DependencyKind.DATA
        assert dep.probability == 1.0

    def test_speech_pipeline_is_control_dep(self):
        dep = get_scenario("outdoor_activity_a").upstream_of("SR")
        assert dep is not None
        assert dep.upstream == "KD"
        assert dep.kind is DependencyKind.CONTROL

    def test_outdoor_cascade_probability(self):
        # Section 4.1: 0.2 for outdoor scenarios.
        for name in ("outdoor_activity_a", "outdoor_activity_b"):
            assert get_scenario(name).upstream_of("SR").probability == 0.2

    def test_ar_assistant_cascade_probability(self):
        # Section 4.1: 0.5 for AR assistant.
        assert get_scenario("ar_assistant").upstream_of("SR").probability == 0.5

    def test_root_models_excludes_downstream(self):
        s = get_scenario("vr_gaming")
        roots = {sm.code for sm in s.root_models()}
        assert roots == {"HT", "ES"}

    def test_upstream_of_root_is_none(self):
        assert get_scenario("vr_gaming").upstream_of("HT") is None


class TestValidation:
    def _sm(self, code: str, fps: float) -> ScenarioModel:
        return ScenarioModel(get_model(code), fps)

    def test_rejects_zero_fps(self):
        with pytest.raises(ValueError, match="target fps"):
            self._sm("HT", 0)

    def test_rejects_duplicate_models(self):
        with pytest.raises(ValueError, match="duplicate"):
            UsageScenario(
                "x", "d", (self._sm("HT", 30), self._sm("HT", 60))
            )

    def test_rejects_dangling_dependency(self):
        with pytest.raises(ValueError, match="not active"):
            UsageScenario(
                "x", "d", (self._sm("ES", 60),),
                (Dependency("ES", "GE", DependencyKind.DATA),),
            )

    def test_rejects_dependency_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            UsageScenario(
                "x", "d",
                (self._sm("ES", 60), self._sm("GE", 60)),
                (
                    Dependency("ES", "GE", DependencyKind.DATA),
                    Dependency("GE", "ES", DependencyKind.DATA),
                ),
            )

    def test_rejects_self_dependency(self):
        with pytest.raises(ValueError, match="self-dependency"):
            Dependency("ES", "ES", DependencyKind.DATA)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            Dependency("ES", "GE", DependencyKind.DATA, probability=1.5)


class TestProbabilityOverride:
    def test_with_dependency_probability(self):
        base = get_scenario("vr_gaming")
        varied = base.with_dependency_probability("ES", "GE", 0.25)
        assert varied.upstream_of("GE").probability == 0.25
        # Original untouched (immutability).
        assert base.upstream_of("GE").probability == 1.0

    def test_unknown_edge_raises(self):
        with pytest.raises(KeyError, match="no dependency"):
            get_scenario("vr_gaming").with_dependency_probability(
                "HT", "GE", 0.5
            )


class TestLoad:
    def test_offered_load_positive(self):
        for s in SCENARIOS.values():
            assert s.offered_load_macs_per_s() > 0

    def test_ar_gaming_is_heaviest(self):
        loads = {
            n: s.offered_load_macs_per_s() for n, s in SCENARIOS.items()
        }
        assert max(loads, key=loads.get) == "ar_gaming"
