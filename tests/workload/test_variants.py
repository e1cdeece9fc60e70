"""Tests for scenario-variant construction."""

from __future__ import annotations

import pytest

from repro.api import run_group
from repro.runtime import SessionSpec
from repro.workload import (
    DependencyKind,
    activate,
    deactivate,
    get_scenario,
    retarget,
    scale_rates,
)


@pytest.fixture
def social_a():
    return get_scenario("social_interaction_a")


class TestDeactivate:
    def test_removes_model(self, social_a):
        variant = deactivate(social_a, "HT")
        assert "HT" not in variant.codes
        assert variant.num_models == social_a.num_models - 1

    def test_renames(self, social_a):
        assert deactivate(social_a, "HT").name == (
            "social_interaction_a_no_ht"
        )

    def test_original_untouched(self, social_a):
        deactivate(social_a, "HT")
        assert "HT" in social_a.codes

    def test_downstream_removes_dependency(self, social_a):
        variant = deactivate(social_a, "GE")
        assert variant.upstream_of("GE" if "GE" in variant.codes else "ES") is None
        assert not variant.dependencies

    def test_upstream_with_dependents_refused(self, social_a):
        with pytest.raises(ValueError, match="downstream"):
            deactivate(social_a, "ES")

    def test_upstream_after_downstream_gone(self, social_a):
        variant = deactivate(deactivate(social_a, "GE"), "ES")
        assert set(variant.codes) == {"HT", "DR"}

    def test_unknown_model(self, social_a):
        with pytest.raises(KeyError):
            deactivate(social_a, "PD")

    def test_cannot_empty_scenario(self):
        s = get_scenario("ar_gaming")
        s = deactivate(deactivate(s, "PD"), "DE")
        with pytest.raises(ValueError, match="empty"):
            deactivate(s, "HT")


class TestRetarget:
    def test_changes_rate(self, social_a):
        variant = retarget(social_a, "HT", 60)
        assert variant.fps_of("HT") == 60
        assert social_a.fps_of("HT") == 30

    def test_other_rates_kept(self, social_a):
        variant = retarget(social_a, "HT", 60)
        assert variant.fps_of("DR") == 30

    def test_unknown_model(self, social_a):
        with pytest.raises(KeyError):
            retarget(social_a, "PD", 30)


class TestScaleRates:
    def test_doubles(self, social_a):
        variant = scale_rates(social_a, 2.0)
        assert variant.fps_of("HT") == 60

    def test_caps_at_sensor_rate(self, social_a):
        variant = scale_rates(social_a, 10.0)
        # Camera streams at 60 FPS; nothing can exceed it.
        assert variant.fps_of("ES") == 60
        assert variant.fps_of("HT") == 60

    def test_halves(self, social_a):
        variant = scale_rates(social_a, 0.5)
        assert variant.fps_of("ES") == 30

    def test_rejects_nonpositive(self, social_a):
        with pytest.raises(ValueError, match="factor"):
            scale_rates(social_a, 0.0)

    def test_load_scales_with_rates(self, social_a):
        up = scale_rates(social_a, 2.0)
        assert (
            up.offered_load_macs_per_s()
            > social_a.offered_load_macs_per_s()
        )


class TestActivate:
    def test_adds_model(self, social_a):
        variant = activate(social_a, "KD", 3)
        assert "KD" in variant.codes
        assert variant.fps_of("KD") == 3

    def test_with_dependency(self, social_a):
        variant = activate(social_a, "KD", 3)
        variant = activate(
            variant, "SR", 3, depends_on="KD",
            kind=DependencyKind.CONTROL, probability=0.2,
        )
        dep = variant.upstream_of("SR")
        assert dep.upstream == "KD"
        assert dep.probability == 0.2

    def test_duplicate_rejected(self, social_a):
        with pytest.raises(ValueError, match="already active"):
            activate(social_a, "HT", 30)

    def test_unknown_code(self, social_a):
        with pytest.raises(KeyError, match="unknown model"):
            activate(social_a, "XX", 30)


class TestVariantProperties:
    """Algebraic properties the QoE control plane leans on."""

    def test_deactivate_activate_round_trip_restores_scenario(self, social_a):
        without = deactivate(social_a, "HT")
        restored = activate(without, "HT", social_a.fps_of("HT"))
        assert set(restored.codes) == set(social_a.codes)
        for code in social_a.codes:
            assert restored.fps_of(code) == social_a.fps_of(code)
        assert set(restored.dependencies) == set(social_a.dependencies)

    def test_scale_rates_identity(self, social_a):
        identity = scale_rates(social_a, 1.0)
        for sm, original in zip(identity.models, social_a.models):
            assert sm.code == original.code
            assert sm.target_fps == original.target_fps
        assert identity.dependencies == social_a.dependencies

    @pytest.mark.parametrize("builder", [
        lambda s, code: retarget(s, code, 15),
        deactivate,
    ])
    def test_unknown_code_suggests_close_match(self, social_a, builder):
        # "HY" is one edit from the active "HT"; the error must both
        # list the active codes and suggest the near miss.
        with pytest.raises(KeyError) as excinfo:
            builder(social_a, "HY")
        message = str(excinfo.value)
        assert "not active in scenario" in message
        assert "'HT'" in message
        assert "did you mean 'HT'?" in message

    def test_unknown_code_without_near_miss_still_lists_active(
        self, social_a
    ):
        with pytest.raises(KeyError) as excinfo:
            retarget(social_a, "QQ", 15)
        message = str(excinfo.value)
        assert "not active in scenario" in message
        assert "did you mean" not in message

    def test_casefolded_code_suggested(self, social_a):
        with pytest.raises(KeyError, match="did you mean 'HT'"):
            retarget(social_a, "ht", 15)


def run_variant(scenario, system):
    """One session of a live scenario object through the runner."""
    return run_group(
        [SessionSpec(session_id=0, scenario=scenario)], system,
        duration_s=0.5,
    ).session_reports[0]


class TestVariantsRunEndToEnd:
    def test_runner_accepts_variants(self, fda_ws_4k):
        base = get_scenario("ar_gaming")
        lighter = deactivate(base, "PD")
        full = run_variant(base, fda_ws_4k)
        light = run_variant(lighter, fda_ws_4k)
        # Removing the saturating model must improve the score.
        assert light.overall > full.overall

    def test_rate_scaling_degrades_score(self, fda_ws_4k):
        base = get_scenario("social_interaction_a")
        stressed = scale_rates(base, 2.0)
        a = run_variant(base, fda_ws_4k)
        b = run_variant(stressed, fda_ws_4k)
        assert b.overall <= a.overall + 0.02
