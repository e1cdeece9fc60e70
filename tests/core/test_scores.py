"""Tests for the four unit score functions (Box 2)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    ScoreConfig,
    accuracy_score,
    energy_score,
    inference_score,
    qoe_score,
    realtime_score,
)
from repro.workload import MetricType, QualityGoal


class TestRealtimeScore:
    def test_half_at_deadline(self):
        # Latency exactly equal to slack is the sigmoid midpoint.
        assert realtime_score(10.0, 10.0, k=15) == pytest.approx(0.5)

    def test_well_within_deadline_is_one(self):
        assert realtime_score(1.0, 10.0, k=15) == pytest.approx(1.0, abs=1e-9)

    def test_well_beyond_deadline_is_zero(self):
        assert realtime_score(20.0, 10.0, k=15) == pytest.approx(0.0, abs=1e-9)

    def test_k_zero_is_flat(self):
        assert realtime_score(0.0, 10.0, k=0) == 0.5
        assert realtime_score(100.0, 10.0, k=0) == 0.5

    def test_larger_k_is_sharper(self):
        # Figure 8: larger k approaches a step at the deadline.
        lateness = 0.2
        soft = realtime_score(10 + lateness, 10.0, k=1)
        sharp = realtime_score(10 + lateness, 10.0, k=50)
        assert sharp < soft < 0.5

    def test_monotone_decreasing_in_latency(self):
        scores = [realtime_score(lat, 10.0) for lat in (5, 8, 10, 12, 15)]
        assert scores == sorted(scores, reverse=True)

    def test_negative_slack_gives_zero(self):
        # Data arrived after the deadline: any latency scores ~0.
        assert realtime_score(1.0, -5.0) < 1e-9

    def test_extreme_values_no_overflow(self):
        assert realtime_score(1e9, 0.0) == 0.0
        assert realtime_score(0.0, 1e9) == 1.0

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError, match="latency"):
            realtime_score(-1.0, 10.0)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError, match="k"):
            realtime_score(1.0, 10.0, k=-1)

    @given(
        latency=st.floats(min_value=0, max_value=1e4),
        slack=st.floats(min_value=-1e4, max_value=1e4),
        k=st.floats(min_value=0, max_value=100),
    )
    def test_always_in_unit_interval(self, latency, slack, k):
        assert 0.0 <= realtime_score(latency, slack, k) <= 1.0


class TestEnergyScore:
    def test_zero_energy_is_one(self):
        assert energy_score(0.0) == 1.0

    def test_at_enmax_is_zero(self):
        assert energy_score(1500.0) == 0.0

    def test_beyond_enmax_clips_to_zero(self):
        assert energy_score(5000.0) == 0.0

    def test_linear_between(self):
        assert energy_score(750.0) == pytest.approx(0.5)
        assert energy_score(300.0) == pytest.approx(0.8)

    def test_custom_enmax(self):
        assert energy_score(50.0, energy_max_mj=100.0) == pytest.approx(0.5)

    def test_rejects_negative_energy(self):
        with pytest.raises(ValueError, match="energy"):
            energy_score(-1.0)

    def test_rejects_nonpositive_enmax(self):
        with pytest.raises(ValueError, match="energy_max"):
            energy_score(1.0, energy_max_mj=0.0)

    @given(e=st.floats(min_value=0, max_value=1e6))
    def test_always_in_unit_interval(self, e):
        assert 0.0 <= energy_score(e) <= 1.0


class TestAccuracyScore:
    hib = QualityGoal("mIoU", 90.0, MetricType.HIGHER_IS_BETTER)
    lib = QualityGoal("WER", 8.0, MetricType.LOWER_IS_BETTER)

    def test_hib_meeting_target_is_one(self):
        assert accuracy_score(self.hib, 90.0) == pytest.approx(1.0)

    def test_hib_exceeding_target_caps_at_one(self):
        # Box 2's max(1, .) is an obvious typo for min: quality beyond the
        # target must not inflate the score.
        assert accuracy_score(self.hib, 120.0) == 1.0

    def test_hib_below_target_is_ratio(self):
        assert accuracy_score(self.hib, 45.0) == pytest.approx(0.5)

    def test_lib_meeting_target_is_one(self):
        assert accuracy_score(self.lib, 8.0) == pytest.approx(1.0, abs=1e-5)

    def test_lib_better_than_target_caps_at_one(self):
        assert accuracy_score(self.lib, 4.0) == 1.0

    def test_lib_worse_than_target_is_ratio(self):
        assert accuracy_score(self.lib, 16.0) == pytest.approx(0.5, abs=1e-5)

    def test_lib_epsilon_guards_zero(self):
        # A perfect (0) error on a lower-is-better metric must not divide
        # by zero.
        assert accuracy_score(self.lib, 0.0) == 1.0

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            accuracy_score(self.hib, 90.0, epsilon=0.0)

    def test_rejects_negative_measurement(self):
        with pytest.raises(ValueError, match="measured"):
            accuracy_score(self.hib, -1.0)

    @given(measured=st.floats(min_value=0, max_value=1e4))
    def test_always_in_unit_interval(self, measured):
        assert 0.0 <= accuracy_score(self.hib, measured) <= 1.0
        assert 0.0 <= accuracy_score(self.lib, measured) <= 1.0


class TestQoEScore:
    def test_all_frames_processed(self):
        assert qoe_score(60, 60) == 1.0

    def test_half_dropped(self):
        assert qoe_score(30, 60) == 0.5

    def test_all_dropped(self):
        assert qoe_score(0, 60) == 0.0

    def test_no_work_offered_is_neutral(self):
        assert qoe_score(0, 0) == 1.0

    def test_rejects_excess_executed(self):
        with pytest.raises(ValueError, match="executed"):
            qoe_score(61, 60)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="frame counts"):
            qoe_score(-1, 10)


class TestInferenceScore:
    def test_product(self):
        assert inference_score(0.5, 0.8, 1.0) == pytest.approx(0.4)

    def test_any_zero_zeroes_it(self):
        assert inference_score(0.0, 1.0, 1.0) == 0.0
        assert inference_score(1.0, 0.0, 1.0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="rt"):
            inference_score(1.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="accuracy"):
            inference_score(1.0, 1.0, -0.1)

    @given(
        rt=st.floats(0, 1), en=st.floats(0, 1), acc=st.floats(0, 1),
    )
    def test_product_bounded(self, rt, en, acc):
        s = inference_score(rt, en, acc)
        assert 0.0 <= s <= min(rt, en, acc) + 1e-12


class TestScoreConfig:
    def test_rejects_bad_score_config(self):
        with pytest.raises(ValueError, match="rt_k"):
            ScoreConfig(rt_k=-1)
        with pytest.raises(ValueError, match="energy_max"):
            ScoreConfig(energy_max_mj=0)
        with pytest.raises(ValueError, match="acc_epsilon"):
            ScoreConfig(acc_epsilon=0)
