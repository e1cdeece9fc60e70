"""The batched jitter draw against the per-draw generator it replaces.

Definition 7's ``rand`` is a clipped Gaussian seeded per (sensor, frame,
seed).  A run draws every sensor, frame and seed of the schedules it
plans in one kernel call (:func:`repro.workload.sensors._jitter_units`,
behind :func:`repro.workload.loadgen.root_schedules`); these tests pin
the kernel, and the batched schedules built from it, to the
one-generator-per-draw formulation kept here as the reference, so every
float must match exactly.  CI runs this file by name on each of its
interpreters and under several hash seeds, so a numpy whose sampler
differs (other ziggurat tables, or a fused multiply-add in
``loc + scale * z``), or a batch whose rows follow hash-dependent
iteration, fails there by name.
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

from sim_helpers import replicate

import repro
from repro.hardware import build_accelerator
from repro.runtime import LatencyGreedyScheduler
from repro.runtime.admission import DEGRADATION_LADDER
from repro.workload import SCENARIO_ORDER, SENSORS, get_scenario, scale_rates
from repro.workload import _ziggurat, loadgen, sensors
from repro.workload._ziggurat import KI, WI
from repro.workload.loadgen import _build_schedules, root_schedules
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
        got = _jitter_units([(name, range(self.FRAMES), (seed,))]).tolist()
        assert got == [
            reference_unit(name, frame, seed) for frame in range(self.FRAMES)
        ]

    def test_frames_are_order_independent(self):
        frames = [17, 3, 400, 3, 0]
        got = _jitter_units([("camera", frames, (5,))]).tolist()
        assert got == [reference_unit("camera", f, 5) for f in frames]
        assert _jitter_units([("camera", [], (5,))]).shape == (0,)

    def test_blocks_are_seed_major_and_concatenated(self):
        blocks = [
            ("camera", [4, 0, 9], (2, 11)),
            ("microphone", [1], (0,)),
            ("lidar", [], (3, 4)),
            ("lidar", [8, 2], (2**31 - 1, 0, 5)),
        ]
        got = _jitter_units(blocks).tolist()
        assert got == [
            reference_unit(name, frame, seed)
            for name, frames, seeds in blocks
            for seed in seeds for frame in frames
        ]
        assert _jitter_units([]).shape == (0,)

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
            # One call per sensor: 36,000 keys, so the scan also crosses
            # the kernel's chunk boundaries.
            got = _jitter_units([(name, frames, self.SCAN_SEEDS)]).reshape(
                len(self.SCAN_SEEDS), self.FRAMES
            )
            for seed, seed_got in zip(self.SCAN_SEEDS, got.tolist()):
                outputs = _pcg64_first_outputs(key_words(name, frames, seed))
                _, fast = _ziggurat_fast_path(outputs)
                for frame, value, word, on_fast in zip(
                    frames, seed_got, outputs.tolist(), fast.tolist()
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
        got = _jitter_units([(name, [frame], (seed,))])
        assert got.tolist() == [reference_unit(name, frame, seed)]

    def test_empty_batch(self):
        got = _jitter_units([("lidar", [], (3,))])
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


@pytest.fixture
def empty_memo(monkeypatch):
    """A fresh, empty process-wide schedule memo for one test."""
    memo: dict = {}
    monkeypatch.setattr(loadgen, "_SCHEDULES", memo)
    return memo


def degraded(name: str):
    """``name`` rate-scaled by every step of the degradation ladder."""
    return [
        scale_rates(get_scenario(name), step.rate_factor)
        for step in DEGRADATION_LADDER[1:]
    ]


class TestRootSchedule:
    @pytest.mark.parametrize("frame_loss", [0.0, 0.2])
    @pytest.mark.parametrize("duration_s", [0.25, 1.0, 2.0])
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", SCENARIO_ORDER)
    def test_matches_per_frame_loop(self, name, seed, duration_s, frame_loss):
        scenario = get_scenario(name)
        key = (scenario, duration_s, seed, frame_loss)
        assert _build_schedules([key]) == [reference_schedule(*key)]

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
            key = (scenario, duration_s, seed, 0.0)
            assert _build_schedules([key]) == [reference_schedule(*key)]


class TestBatch:
    """Many keys in one build: every group, sensor and seed at once."""

    @pytest.fixture(scope="class")
    def mixed_keys(self):
        keys = [
            (get_scenario(name), duration_s, seed, frame_loss)
            for name in SCENARIO_ORDER
            for duration_s in (0.25, 1.0, 2.0)
            for seed in SEEDS  # 2**31 - 1 among them
            for frame_loss in (0.0, 0.2)
        ]
        keys += [
            (scenario, duration_s, seed, 0.0)
            for name in ("ar_gaming", "outdoor_activity_a")
            for scenario in degraded(name)
            for duration_s, seed in ((0.37, 3), (1.913, 2**31 - 1))
        ]
        keys.append(keys[5])  # the same key twice in one batch
        return keys

    def test_mixed_batch_matches_reference_key_by_key(
        self, mixed_keys, empty_memo
    ):
        schedules = root_schedules(mixed_keys)
        assert len(schedules) == len(mixed_keys)
        for key, rows in zip(mixed_keys, schedules):
            assert rows == reference_schedule(*key), key
        assert schedules[-1] is schedules[5]
        assert len(empty_memo) == len(set(mixed_keys))

    def test_rows_do_not_depend_on_batch_position(self):
        vr = get_scenario("vr_gaming")
        others = [
            (vr, 2.0, 5, 0.0),  # the same group
            (vr, 0.25, 7, 0.2),
            (get_scenario("ar_assistant"), 1.0, 5, 0.0),
            (degraded("ar_gaming")[0], 0.37, 1, 0.0),
        ]
        for key in [(vr, 2.0, 9, 0.0), (vr, 2.0, 9, 0.2),
                    (get_scenario("outdoor_activity_b"), 1.0, 2, 0.0)]:
            (alone,) = _build_schedules([key])
            assert _build_schedules([key, *others])[0] == alone
            assert _build_schedules([*others, key])[-1] == alone

    def test_memo_answers_without_building(self, empty_memo, monkeypatch):
        key = (get_scenario("ar_gaming"), 0.5, 3, 0.0)
        (first,) = root_schedules([key])

        def fail(*_):
            raise AssertionError("a memoised key was built again")

        monkeypatch.setattr(loadgen, "_build_schedules", fail)
        assert root_schedules([key, key]) == [first, first]
        assert root_schedules([key])[0] is first

    def test_memo_is_bounded(self, empty_memo, monkeypatch):
        monkeypatch.setattr(loadgen, "_MEMO_SIZE", 4)
        vr = get_scenario("vr_gaming")
        keys = [(vr, 0.25, seed, 0.0) for seed in range(6)]
        schedules = root_schedules(keys)
        assert schedules == [reference_schedule(*key) for key in keys]
        assert list(empty_memo) == keys[2:]

    def test_session_group_draws_in_one_kernel_call(
        self, empty_memo, monkeypatch
    ):
        calls = []

        def counted(blocks):
            calls.append(blocks)
            return _jitter_units(blocks)

        monkeypatch.setattr(sensors, "_jitter_units", counted)
        group = replicate(
            get_scenario("vr_gaming"), build_accelerator("J", 8192),
            LatencyGreedyScheduler(), 16, base_seed=40, duration_s=0.5,
        )
        first = group.run()
        assert len(calls) == 1, "the run drew its schedules per session"
        ((name, _, seeds),) = calls[0]
        assert (name, list(seeds)) == ("camera", list(range(40, 56)))
        assert len(empty_memo) == 16
        second = group.run()
        assert len(calls) == 1, "a warm run drew jitter again"
        assert [
            (r.model_code, r.model_frame, r.request_time_s, r.end_time_s)
            for s in first.sessions for r in s.requests
        ] == [
            (r.model_code, r.model_frame, r.request_time_s, r.end_time_s)
            for s in second.sessions for r in s.requests
        ]
