"""Tests for inference requests and frame plans (Definitions 6-9)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.workload import FramePlan, InferenceRequest, ScenarioModel, get_model


def plan(code: str, fps: float) -> FramePlan:
    return FramePlan(ScenarioModel(get_model(code), fps))


class TestEffectiveFps:
    def test_target_below_sensor(self):
        assert plan("HT", 30).effective_fps == 30

    def test_target_equals_sensor(self):
        assert plan("ES", 60).effective_fps == 60

    def test_target_above_sensor_clips(self):
        # Even zero-latency inference cannot outrun the input stream.
        assert plan("ES", 120).effective_fps == 60

    def test_sr_on_microphone(self):
        assert plan("SR", 3).effective_fps == 3


class TestFrameMapping:
    def test_full_rate_consumes_every_frame(self):
        p = plan("ES", 60)
        assert [p.sensor_frame_for(i) for i in range(4)] == [0, 1, 2, 3]

    def test_half_rate_skips_alternate_frames(self):
        # Figure 3: a 30 FPS model on the 60 FPS camera skips every other
        # frame.
        p = plan("HT", 30)
        assert [p.sensor_frame_for(i) for i in range(4)] == [0, 2, 4, 6]

    def test_45fps_pattern(self):
        p = plan("HT", 45)
        frames = [p.sensor_frame_for(i) for i in range(6)]
        assert frames == [0, 1, 2, 4, 5, 6]

    def test_negative_frame_rejected(self):
        with pytest.raises(ValueError, match="model_frame"):
            plan("HT", 30).sensor_frame_for(-1)


class TestDeadlines:
    def test_deadline_is_next_consumed_frame(self):
        p = plan("HT", 30)
        # Frame 0 consumes sensor frame 0; next consumed is sensor frame 2.
        assert p.deadline_s(0) == pytest.approx(2 / 60)

    def test_full_rate_deadline(self):
        p = plan("ES", 60)
        assert p.deadline_s(0) == pytest.approx(1 / 60)

    def test_deadline_beyond_request(self):
        p = plan("DR", 30)
        for frame in range(10):
            assert p.deadline_s(frame) > p.request_time_s(frame) - 1e-3


class TestMultimodal:
    def test_dr_waits_for_both_sensors(self):
        p = plan("DR", 30)
        camera, lidar = p.scenario_model.model.sensors
        frame = 4
        sensor_frame = p.sensor_frame_for(frame)
        expected = max(
            camera.arrival_s(sensor_frame, 0), lidar.arrival_s(sensor_frame, 0)
        )
        assert p.request_time_s(frame, 0) == pytest.approx(expected)


class TestNumFrames:
    def test_one_second_at_60fps(self):
        assert plan("ES", 60).num_frames(1.0) == 60

    def test_one_second_at_30fps(self):
        assert plan("HT", 30).num_frames(1.0) == 30

    def test_one_second_at_3fps(self):
        assert plan("KD", 3).num_frames(1.0) == 3

    def test_duration_scales(self):
        assert plan("HT", 30).num_frames(2.0) == 60

    def test_invalid_duration(self):
        with pytest.raises(ValueError, match="duration"):
            plan("HT", 30).num_frames(0.0)

    @given(
        fps=st.sampled_from([3, 10, 30, 45, 60]),
        duration=st.floats(min_value=0.1, max_value=5.0),
    )
    def test_count_close_to_rate(self, fps: float, duration: float):
        code = "KD" if fps == 3 else "HT"
        count = plan(code, fps).num_frames(duration)
        effective = min(fps, plan(code, fps).effective_fps)
        assert abs(count - effective * duration) <= 1.5


class TestInferenceRequest:
    def make(self) -> InferenceRequest:
        return InferenceRequest(
            model_code="HT", model_frame=0,
            request_time_s=0.010, deadline_s=0.043,
        )

    def test_slack(self):
        assert self.make().slack_s == pytest.approx(0.033)

    def test_latency_requires_completion(self):
        with pytest.raises(ValueError, match="not completed"):
            _ = self.make().latency_s

    def test_latency_after_completion(self):
        r = self.make()
        r.end_time_s = 0.030
        assert r.latency_s == pytest.approx(0.020)

    def test_completed_excludes_dropped(self):
        r = self.make()
        r.end_time_s = 0.030
        r.dropped = True
        assert not r.completed

    def test_missed_deadline_detection(self):
        r = self.make()
        r.end_time_s = 0.050  # deadline was 0.043
        assert r.missed_deadline
        r2 = self.make()
        r2.end_time_s = 0.040
        assert not r2.missed_deadline

    def test_repr_states(self):
        r = self.make()
        assert "pending" in repr(r)
        r.end_time_s = 0.02
        assert "done" in repr(r)
        r.dropped = True
        assert "dropped" in repr(r)
