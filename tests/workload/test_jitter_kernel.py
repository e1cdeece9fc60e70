"""The batched jitter draw against the per-draw generator it replaces.

Definition 7's ``rand`` is a clipped Gaussian seeded per (sensor, frame,
seed).  The schedule path draws a whole sensor's frames at once
(:func:`repro.workload.sensors._jitter_units`); these tests pin it, and
the schedules built from it, to the one-generator-per-draw formulation
kept here as the reference, so every float must match exactly.  CI runs
this file by name on each of its interpreters, so a numpy whose sampler
differs (other ziggurat tables, or a fused multiply-add in
``loc + scale * z``) fails there by name.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.runtime.admission import DEGRADATION_LADDER
from repro.workload import SCENARIO_ORDER, SENSORS, get_scenario, scale_rates
from repro.workload import _ziggurat
from repro.workload._ziggurat import KI, WI
from repro.workload.loadgen import _root_schedule
from repro.workload.sensors import (
    _jitter_units,
    _pcg64_first_outputs,
    _seed_words,
    _ziggurat_fast_path,
)

SEEDS = (0, 1, 7, 2**31 - 1)
TOOLS = Path(repro.__file__).resolve().parents[2] / "tools"


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


def key_words(name: str, frame_ids, seed: int) -> np.ndarray:
    """The seed words of each key, as ``_jitter_units`` derives them."""
    digests = b"".join(
        hashlib.sha256(f"{name}:{frame}:{seed}".encode()).digest()[:8]
        for frame in frame_ids
    )
    return _seed_words(np.frombuffer(digests, "<u4").reshape(-1, 2))


class RowSeed(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 one given row of words."""

    def __init__(self, row) -> None:
        self.row = np.array(row, np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, np.dtype(dtype)) == (4, np.dtype(np.uint64))
        return self.row


class TestPcg64FirstOutputs:
    def test_matches_random_raw(self):
        seeds = [int(s) for s in np.random.default_rng(11).integers(
            0, 2**64 - 1, 5000, dtype=np.uint64, endpoint=True)]
        entropy = np.array(
            [(s & 0xFFFFFFFF, s >> 32) for s in seeds], np.uint32
        )
        got = _pcg64_first_outputs(_seed_words(entropy)).tolist()
        assert got == [
            int(np.random.PCG64(seed).random_raw()) for seed in seeds
        ]

    def test_extreme_words(self):
        # Every row of 0, 1, 2**63 and 2**64 - 1 words: each carry of the
        # 128-bit add and multiply, and the top-bit shift into inc.
        values = (0, 1, 2**63, 2**64 - 1)
        rows = np.array(
            [(a, b, c, d) for a in values for b in values
             for c in values for d in values], np.uint64,
        )
        got = _pcg64_first_outputs(rows).tolist()
        assert got == [
            int(np.random.PCG64(RowSeed(row)).random_raw()) for row in rows
        ]


class TestZigguratScan:
    """108,000 keys, 3 sensors x 12 seeds x 3,000 frames, against numpy.

    Besides the fast path, the scan reaches every route the kernel hands
    to the scalar generator: index 0's tail (``rabs >= KI[0]``), index
    1 (``KI[1]`` is 0, so it never takes the fast path) and the wedge
    tests of the other indices.
    """

    FRAMES = 3000
    SCAN_SEEDS = (0, 1, 2, 3, 5, 8, 13, 99, 4242, 2**31 - 1, 2**32, 2**63)

    @pytest.fixture(scope="class")
    def scan(self):
        rows = []  # (name, seed, frame, got, reference, route)
        frames = range(self.FRAMES)
        for name in sorted(SENSORS):
            for seed in self.SCAN_SEEDS:
                got = _jitter_units(name, np.arange(self.FRAMES), seed)
                outputs = _pcg64_first_outputs(key_words(name, frames, seed))
                _, fast = _ziggurat_fast_path(outputs)
                for frame, value, word, on_fast in zip(
                    frames, got.tolist(), outputs.tolist(), fast.tolist()
                ):
                    route = (
                        "fast" if on_fast else
                        "index 0 tail" if word & 0xFF == 0 else
                        "index 1" if word & 0xFF == 1 else "wedge"
                    )
                    rows.append((
                        name, seed, frame, value,
                        reference_unit(name, frame, seed), route,
                    ))
        return rows

    def test_every_draw_matches_reference(self, scan):
        assert len(scan) >= 100_000
        wrong = [row for row in scan if row[3] != row[4]]
        assert wrong == []

    def test_every_fallback_route_is_reached(self, scan):
        routes = [row[5] for row in scan]
        assert set(routes) == {"fast", "index 0 tail", "index 1", "wedge"}
        assert 0.01 < 1 - routes.count("fast") / len(routes) < 0.02

    @pytest.mark.parametrize(
        "route", ["fast", "index 0 tail", "index 1", "wedge"]
    )
    def test_one_frame_batch(self, scan, route):
        name, seed, frame = next(row for row in scan if row[5] == route)[:3]
        got = _jitter_units(name, np.array([frame]), seed)
        assert got.tolist() == [reference_unit(name, frame, seed)]

    def test_empty_batch(self):
        got = _jitter_units("lidar", np.arange(0), 3)
        assert got.shape == (0,) and got.dtype == np.float64
        units, fast = _ziggurat_fast_path(
            _pcg64_first_outputs(np.zeros((0, 4), np.uint64))
        )
        assert units.shape == fast.shape == (0,)


class TestZigguratTables:
    def test_checked_in_module_is_the_tools_output(self):
        # The tables are read off the installed numpy; a numpy with other
        # tables fails here.
        spec = importlib.util.spec_from_file_location(
            "ziggurat_tables", TOOLS / "ziggurat_tables.py"
        )
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        assert Path(_ziggurat.__file__).read_bytes() == tool.render().encode()

    def test_tables_are_read_only(self):
        for table in (KI, WI):
            assert table.shape == (256,)
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0


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
