"""Tests for the multi-seed statistics module."""

from __future__ import annotations

import pytest

from repro.api import RunSpec
from repro.eval import seed_sweep
from repro.eval.stats import _summarise
from repro.hardware import build_accelerator


class TestSummarise:
    def test_basic(self):
        s = _summarise("x", [1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.std == pytest.approx(1.0)
        assert (s.minimum, s.maximum, s.n) == (1.0, 3.0, 3)

    def test_single_sample_zero_std(self):
        s = _summarise("x", [0.7])
        assert s.std == 0.0
        assert s.confidence_interval() == (0.7, 0.7)

    def test_confidence_interval_contains_mean(self):
        s = _summarise("x", [0.1, 0.2, 0.3, 0.4])
        lo, hi = s.confidence_interval(0.95)
        assert lo <= s.mean <= hi

    def test_wider_level_wider_interval(self):
        s = _summarise("x", [0.1, 0.5, 0.9, 0.3])
        lo90, hi90 = s.confidence_interval(0.90)
        lo99, hi99 = s.confidence_interval(0.99)
        assert hi99 - lo99 > hi90 - lo90

    def test_unsupported_level(self):
        s = _summarise("x", [1.0, 2.0])
        with pytest.raises(ValueError, match="confidence level"):
            s.confidence_interval(0.5)

    def test_describe(self):
        text = _summarise("overall", [0.5, 0.6]).describe()
        assert "overall" in text and "95% CI" in text


class TestSeedSweep:
    SPEC = RunSpec(scenario="outdoor_activity_a", accelerator="A",
                   duration_s=0.5)

    @pytest.fixture(scope="class")
    def sweep(self):
        return seed_sweep(self.SPEC, seeds=8)

    def test_components_present(self, sweep):
        assert set(sweep.statistics) == {
            "overall", "rt", "energy", "qoe", "drop_rate",
        }

    def test_dynamic_scenario_has_spread_or_stability(self, sweep):
        overall = sweep.get("overall")
        assert 0.0 <= overall.minimum <= overall.maximum <= 1.0
        assert overall.n == 8

    def test_get_unknown_raises(self, sweep):
        with pytest.raises(KeyError, match="no statistic"):
            sweep.get("latency")

    def test_describe(self, sweep):
        text = sweep.describe()
        assert "outdoor_activity_a" in text
        assert "overall" in text

    def test_rejects_zero_seeds(self):
        with pytest.raises(ValueError, match="seeds"):
            seed_sweep(self.SPEC, seeds=0)

    def test_rejects_a_session_group_spec(self):
        with pytest.raises(ValueError, match="single-scenario"):
            seed_sweep(self.SPEC.replace(sessions=2), seeds=2)

    def test_accepts_unregistered_custom_system(self):
        # A pre-built system no registered name describes runs in place
        # of the spec's named accelerator.
        import dataclasses

        system = dataclasses.replace(
            build_accelerator("A", 4096), acc_id="custom_a"
        )
        sweep = seed_sweep(
            self.SPEC.replace(scenario="vr_gaming"), seeds=2, system=system,
        )
        assert "custom_a" in sweep.system

    def test_dynamic_scenarios_vary_more_than_static(self):
        # Outdoor A's KD->SR trigger is probabilistic; Social B has only
        # jitter randomness.  The dynamic scenario's spread dominates.
        spec = self.SPEC.replace(pes=8192)
        dynamic = seed_sweep(spec, seeds=10)
        static = seed_sweep(
            spec.replace(scenario="social_interaction_b"), seeds=10
        )
        assert dynamic.get("overall").std >= static.get("overall").std - 1e-6
