"""Tests for the DVFS extension."""

from __future__ import annotations

import pytest

from repro.core.config import CLOCK_HZ
from repro.costmodel import (
    DEFAULT_DVFS_POINTS,
    CostTable,
    Dataflow,
    DvfsPoint,
    best_point_for_slack,
    scale_cost,
)
from repro.hardware import ACCELERATOR_IDS, PE_BUDGETS, build_accelerator
from repro.workload import UNIT_MODELS

#: Every (dataflow, PE count) engine shape of Table 5's 13 accelerators
#: at both PE budgets.
ENGINE_SHAPES = sorted(
    {
        (sub.dataflow, sub.num_pes)
        for acc_id in ACCELERATOR_IDS
        for pes in PE_BUDGETS.values()
        for sub in build_accelerator(acc_id, pes).subs
    },
    key=lambda shape: (shape[0].value, shape[1]),
)


@pytest.fixture(scope="module")
def nominal_cost():
    return CostTable().cost("DE", Dataflow.WS, 4096)


class TestDvfsPoint:
    def test_nominal_is_identity_scales(self):
        p = DvfsPoint("nominal", 1.0)
        assert p.latency_scale == 1.0
        assert p.dynamic_energy_scale == 1.0
        assert p.leakage_energy_scale == 1.0

    def test_slow_point_trades_latency_for_energy(self):
        p = DvfsPoint("eco", 0.5)
        assert p.latency_scale == 2.0
        assert p.dynamic_energy_scale == 0.25

    def test_rejects_extreme_scale(self):
        with pytest.raises(ValueError, match="frequency_scale"):
            DvfsPoint("x", 0.05)
        with pytest.raises(ValueError, match="frequency_scale"):
            DvfsPoint("x", 3.0)

    def test_default_ladder_sorted_and_contains_nominal(self):
        freqs = [p.frequency_scale for p in DEFAULT_DVFS_POINTS]
        assert freqs == sorted(freqs)
        assert 1.0 in freqs


class TestScaleCost:
    def test_eco_slower_but_cheaper(self, nominal_cost):
        eco = scale_cost(nominal_cost, DvfsPoint("eco", 0.5))
        assert eco.latency_s > nominal_cost.latency_s
        assert eco.energy_mj < nominal_cost.energy_mj

    def test_boost_faster_but_hotter(self, nominal_cost):
        boost = scale_cost(nominal_cost, DvfsPoint("boost", 1.3))
        assert boost.latency_s < nominal_cost.latency_s
        assert boost.energy_mj > nominal_cost.energy_mj

    def test_nominal_noop(self, nominal_cost):
        same = scale_cost(nominal_cost, DvfsPoint("nominal", 1.0))
        assert same.latency_s == pytest.approx(nominal_cost.latency_s)
        assert same.energy_mj == pytest.approx(nominal_cost.energy_mj)

    def test_leakage_fraction_validated(self, nominal_cost):
        with pytest.raises(ValueError, match="leakage_fraction"):
            scale_cost(nominal_cost, DvfsPoint("eco", 0.5),
                       leakage_fraction=1.5)

    def test_pure_leakage_workload_prefers_speed(self, nominal_cost):
        # With energy 100% leakage, slowing down only hurts.
        eco = scale_cost(nominal_cost, DvfsPoint("eco", 0.5),
                         leakage_fraction=1.0)
        assert eco.energy_mj > nominal_cost.energy_mj


class TestBestPointForSlack:
    def test_generous_slack_picks_eco(self, nominal_cost):
        point, scaled = best_point_for_slack(nominal_cost, slack_s=10.0)
        assert point.frequency_scale == 0.5
        assert scaled.latency_s <= 10.0

    def test_tight_slack_picks_faster_point(self, nominal_cost):
        tight = nominal_cost.latency_s * 1.1  # only ~nominal fits
        point, scaled = best_point_for_slack(nominal_cost, slack_s=tight)
        assert point.frequency_scale >= 1.0
        assert scaled.latency_s <= tight

    def test_impossible_slack_falls_back_to_fastest(self, nominal_cost):
        point, _ = best_point_for_slack(
            nominal_cost, slack_s=nominal_cost.latency_s / 100
        )
        assert point.frequency_scale == max(
            p.frequency_scale for p in DEFAULT_DVFS_POINTS
        )

    def test_nonpositive_slack_fastest(self, nominal_cost):
        point, _ = best_point_for_slack(nominal_cost, slack_s=0.0)
        assert point.frequency_scale == 1.3

    def test_chosen_point_is_cheapest_feasible(self, nominal_cost):
        slack = nominal_cost.latency_s * 1.5
        point, scaled = best_point_for_slack(nominal_cost, slack)
        for p in DEFAULT_DVFS_POINTS:
            candidate = scale_cost(nominal_cost, p)
            if candidate.latency_s <= slack:
                assert scaled.energy_mj <= candidate.energy_mj + 1e-12


class TestScaleCostConsistency:
    """The re-derived cost is internally consistent at every point.

    Historically only the two totals were scaled: ``layer_costs`` and
    ``utilization`` stayed nominal, so summing layers at a non-nominal
    point silently returned nominal numbers.
    """

    @pytest.mark.parametrize(
        "point", DEFAULT_DVFS_POINTS, ids=lambda p: p.name
    )
    def test_layer_sums_match_model_totals(self, nominal_cost, point):
        scaled = scale_cost(nominal_cost, point)
        assert sum(
            lc.latency_s for lc in scaled.layer_costs
        ) == pytest.approx(scaled.latency_s)
        assert sum(
            lc.energy_mj for lc in scaled.layer_costs
        ) == pytest.approx(scaled.energy_mj)

    @pytest.mark.parametrize(
        "point", DEFAULT_DVFS_POINTS, ids=lambda p: p.name
    )
    def test_totals_follow_the_scaling_laws(self, nominal_cost, point):
        scaled = scale_cost(nominal_cost, point)
        assert scaled.latency_s == pytest.approx(
            nominal_cost.latency_s * point.latency_scale
        )
        lf = 0.1
        factor = (
            (1 - lf) * point.dynamic_energy_scale
            + lf * point.leakage_energy_scale
        )
        assert scaled.energy_mj == pytest.approx(
            nominal_cost.energy_mj * factor
        )

    @pytest.mark.parametrize(
        "point", DEFAULT_DVFS_POINTS, ids=lambda p: p.name
    )
    def test_utilization_rederived_not_copied(self, nominal_cost, point):
        scaled = scale_cost(nominal_cost, point)
        # util = macs / (cycles * pes) and cycles scale with latency.
        assert scaled.utilization == pytest.approx(
            min(
                1.0,
                nominal_cost.utilization
                * nominal_cost.latency_s
                / scaled.latency_s,
            )
        )
        if point.frequency_scale < 1.0:
            assert scaled.utilization < nominal_cost.utilization

    @pytest.mark.parametrize(
        "point", DEFAULT_DVFS_POINTS, ids=lambda p: p.name
    )
    def test_per_layer_energy_uniformly_scaled(self, nominal_cost, point):
        scaled = scale_cost(nominal_cost, point)
        lf = 0.1
        factor = (
            (1 - lf) * point.dynamic_energy_scale
            + lf * point.leakage_energy_scale
        )
        for before, after in zip(
            nominal_cost.layer_costs, scaled.layer_costs
        ):
            assert after.energy_mj == pytest.approx(
                before.energy_mj * factor
            )

    def test_layerless_cost_still_scales_totals(self, nominal_cost):
        from dataclasses import replace

        bare = replace(nominal_cost, layer_costs=())
        point = DvfsPoint("eco", 0.5)
        scaled = scale_cost(bare, point)
        assert scaled.latency_s == pytest.approx(bare.latency_s * 2.0)
        assert scaled.layer_costs == ()

    @pytest.mark.parametrize(
        "code", ["HT", "ES", "GE", "KD", "SR", "SS", "OD", "AS", "DE",
                 "DR", "PD"],
    )
    def test_every_unit_model_consistent_across_the_ladder(self, code):
        cost = CostTable().cost(code, Dataflow.WS, 4096)
        for point in DEFAULT_DVFS_POINTS:
            scaled = scale_cost(cost, point)
            assert sum(
                lc.latency_s for lc in scaled.layer_costs
            ) == pytest.approx(scaled.latency_s)
            assert sum(
                lc.energy_mj for lc in scaled.layer_costs
            ) == pytest.approx(scaled.energy_mj)


def _left_to_right(values):
    """``sum()`` as CPython 3.11 and earlier compute it: no compensation."""
    total = 0
    for value in values:
        total += value
    return total


@pytest.mark.parametrize(
    "dataflow,num_pes", ENGINE_SHAPES,
    ids=lambda v: getattr(v, "value", v),
)
def test_prices_sum_layers_left_to_right(dataflow, num_pes):
    """Every price is a plain left-to-right sum of its layers.

    CPython 3.12's ``sum()`` of floats is compensated and can round the
    last bit differently; the governors compare these floats, so the
    cost model must reduce in the same order on every interpreter.  At
    nominal, latency is total cycles over the clock.
    """
    assert len(ENGINE_SHAPES) == 16
    for code in sorted(UNIT_MODELS):
        nominal = CostTable().cost(code, dataflow, num_pes)
        layers = nominal.layer_costs
        cycles = _left_to_right(lc.latency_cycles for lc in layers)
        assert nominal.latency_s == cycles / CLOCK_HZ
        assert nominal.energy_mj == _left_to_right(
            lc.energy_mj for lc in layers
        )
        for point in DEFAULT_DVFS_POINTS:
            scaled = scale_cost(nominal, point)
            assert scaled.latency_s == _left_to_right(
                lc.latency_s for lc in scaled.layer_costs
            )
            assert scaled.energy_mj == _left_to_right(
                lc.energy_mj for lc in scaled.layer_costs
            )
