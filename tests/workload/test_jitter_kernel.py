"""The batched jitter draw against the per-draw generator it replaces.

Definition 7's ``rand`` is a clipped Gaussian seeded per (sensor, frame,
seed).  The schedule path draws a whole sensor's frames at once
(:func:`repro.workload.sensors._jitter_units`); these tests pin it, and
the schedules built from it, to the one-generator-per-draw formulation
kept here as the reference, so every float must match exactly.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.runtime.admission import DEGRADATION_LADDER
from repro.workload import SCENARIO_ORDER, SENSORS, get_scenario, scale_rates
from repro.workload.loadgen import _root_schedule
from repro.workload.sensors import _jitter_units, _seed_words

SEEDS = (0, 1, 7, 2**31 - 1)


# -- the reference: one default_rng per draw -----------------------------------


def reference_unit(name: str, frame_id: int, seed: int) -> float:
    key = f"{name}:{frame_id}:{seed}".encode()
    digest = hashlib.sha256(key).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return float(np.clip(rng.normal(0.5, 1 / 6), 0, 1))


def reference_roll(key: str) -> float:
    digest = hashlib.sha256(key.encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return float(rng.random())


def reference_arrival(sensor, frame_id: int, seed: int) -> float:
    nominal = sensor.init_latency_ms / 1e3 + frame_id / sensor.fps
    jitter = 0.0
    if sensor.jitter_ms != 0.0:
        u = reference_unit(sensor.name, frame_id, seed)
        jitter = 2.0 * (sensor.jitter_ms / 1e3) * (u - 0.5)
    return max(0.0, nominal + jitter)


def reference_schedule(scenario, duration_s, seed, frame_loss):
    """The per-frame schedule loop, one scalar draw per sensor frame."""
    rows = []
    for sm in scenario.root_models():
        model = sm.model
        primary = model.primary_sensor
        effective_fps = min(sm.target_fps, primary.fps)
        stride = primary.fps / effective_fps

        def nominal(model_frame: int) -> float:
            sensor_frame = int(model_frame * stride)
            return primary.init_latency_ms / 1e3 + sensor_frame / primary.fps

        frame = 0
        while nominal(frame) < duration_s:
            lost = frame_loss > 0.0 and (
                reference_roll(f"loss:{sm.code}:{frame}:{seed}") < frame_loss
            )
            if not lost:
                sensor_frame = int(frame * stride)
                request_time = max(
                    reference_arrival(
                        sensor,
                        int(round(sensor_frame * sensor.fps / primary.fps)),
                        seed,
                    )
                    for sensor in model.sensors
                )
                rows.append((request_time, sm.code, frame, nominal(frame + 1)))
            frame += 1
    rows.sort(key=lambda r: (r[0], r[1]))
    return tuple(rows)


# -- the kernel ------------------------------------------------------------------


class TestSeedWords:
    @pytest.mark.parametrize("seeds", [
        [0, 1, 2, 12345, 2**31 - 1, 2**32 - 1],  # one-word entropy
        [2**32, 2**63, 2**64 - 1],
        [int(s) for s in np.random.default_rng(3).integers(
            0, 2**64 - 1, 500, dtype=np.uint64, endpoint=True)],
    ])
    def test_matches_seed_sequence(self, seeds):
        entropy = np.array(
            [(s & 0xFFFFFFFF, s >> 32) for s in seeds], np.uint32
        )
        words = _seed_words(entropy)
        assert words.dtype == np.uint64 and words.flags.c_contiguous
        for seed, row in zip(seeds, words):
            expected = np.random.SeedSequence(seed).generate_state(
                4, np.uint64
            )
            assert row.tolist() == expected.tolist(), seed


class TestJitterUnits:
    FRAMES = 900  # x 3 sensors x 4 seeds = 10,800 keys

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", sorted(SENSORS))
    def test_batch_matches_per_draw_generator(self, name, seed):
        got = _jitter_units(name, np.arange(self.FRAMES), seed).tolist()
        assert got == [
            reference_unit(name, frame, seed) for frame in range(self.FRAMES)
        ]

    def test_frames_are_order_independent(self):
        frames = np.array([17, 3, 400, 3, 0])
        got = _jitter_units("camera", frames, 5).tolist()
        assert got == [reference_unit("camera", f, 5) for f in frames]
        assert _jitter_units("camera", frames[:0], 5).shape == (0,)

    @pytest.mark.parametrize("name", sorted(SENSORS))
    def test_scalar_accessors_are_the_batch_of_one(self, name):
        sensor = SENSORS[name]
        for frame in (0, 1, 59, 1000):
            assert sensor.arrival_s(frame, 9) == reference_arrival(
                sensor, frame, 9
            )
            u = reference_unit(name, frame, 9)
            assert sensor.jitter_s(frame, 9) == (
                2.0 * (sensor.jitter_ms / 1e3) * (u - 0.5)
            )

    def test_import_leaves_numpy_random_unloaded(self):
        # Draws import numpy.random on first use, not with the package.
        code = (
            "import sys, repro, repro.api, repro.cli\n"
            "assert 'numpy.random' not in sys.modules\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        subprocess.run(
            [sys.executable, "-c", code], check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )


# -- the schedules built from it -------------------------------------------------


class TestRootSchedule:
    @pytest.mark.parametrize("frame_loss", [0.0, 0.2])
    @pytest.mark.parametrize("duration_s", [0.25, 1.0, 2.0])
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", SCENARIO_ORDER)
    def test_matches_per_frame_loop(self, name, seed, duration_s, frame_loss):
        scenario = get_scenario(name)
        assert _root_schedule(scenario, duration_s, seed, frame_loss) == (
            reference_schedule(scenario, duration_s, seed, frame_loss)
        )

    @pytest.mark.parametrize("step", DEGRADATION_LADDER[1:])
    @pytest.mark.parametrize(
        "name", ["ar_gaming", "vr_gaming", "social_interaction_a",
                 "outdoor_activity_a"],
    )
    def test_degraded_phase_matches_per_frame_loop(self, name, step):
        # A degrade phase streams a rate-scaled scenario over the rest of
        # the run: odd durations and fractional frame strides.
        scenario = scale_rates(get_scenario(name), step.rate_factor)
        for duration_s, seed in ((0.37, 3), (1.913, 2**31 - 1)):
            assert _root_schedule(scenario, duration_s, seed, 0.0) == (
                reference_schedule(scenario, duration_s, seed, 0.0)
            )
