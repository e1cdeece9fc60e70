"""Load generator: turns a usage scenario into timed inference requests.

Root models (those driven directly by sensors) get their full request
schedule generated up front from the jittered sensor streams, as timing
rows the runtime turns into requests one arrival at a time.  A run
builds the schedule of every window it plans in one batch
(:func:`root_schedules`).  Dependent models (downstream of a data or
control dependency) are *not* scheduled here — the runtime spawns their
requests when the upstream inference completes, rolling the
dependency's trigger probability with a deterministic per-frame RNG so
runs are reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .requests import FramePlan, InferenceRequest
from .scenarios import Dependency, UsageScenario
from .sensors import FloatArray, InputSource, IntArray, jitter_blocks_s

__all__ = ["LoadGenerator", "root_schedules"]

#: What a root schedule is a pure function of: ``(scenario, duration_s,
#: seed, frame_loss_probability)``.
ScheduleKey = tuple[UsageScenario, float, int, float]
#: ``(request_time_s, model_code, model_frame, deadline_s)`` rows in
#: dispatch order.
Schedule = tuple[tuple[float, str, int, float], ...]

#: Every root schedule built in the process, oldest first; past
#: ``_MEMO_SIZE`` the oldest go.
_SCHEDULES: dict[ScheduleKey, Schedule] = {}
_MEMO_SIZE = 1 << 10


@lru_cache(maxsize=1 << 16)
def _unit_roll(key: str) -> float:
    """Deterministic uniform draw in [0, 1) for a stable string key.

    Pure function of the key (the per-draw generator exists only to turn
    a hash into a well-distributed float), so it is memoised: repeated
    runs of the same seeds — benchmark repeats, sweep points sharing a
    scenario — skip the generator construction, about 6 µs a roll with
    numpy 2.4 on an AMD EPYC host against well under 0.1 µs for a hit.
    """
    digest = hashlib.sha256(key.encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return float(rng.random())


@lru_cache(maxsize=1 << 12)
def _num_frames(plan: FramePlan, duration_s: float) -> int:
    """Memoised :meth:`FramePlan.num_frames` (hashable frozen plan)."""
    return plan.num_frames(duration_s)


@lru_cache(maxsize=1 << 10)
def _frame_deadlines(plan: FramePlan, duration_s: float) -> tuple[float, ...]:
    """The deadline of every model frame streamed within ``duration_s``.

    Memoised for dependent models, whose requests are spawned one at a
    time mid-run: a lookup here is cheaper than a batch of one.
    """
    frames = np.arange(_num_frames(plan, duration_s))
    return tuple(plan.deadlines_s(frames).tolist())


class _RootTable:
    """What a scenario's root schedules over one duration share: all but
    the seed.

    Its rows are every root model's streamed frames, models in code
    order and each model's frames in order: ``codes``, ``frames`` and
    ``deadlines`` hold each row's model code, model frame and deadline
    (Definition 8).  ``sensors`` lists each sensor the models read with
    the distinct frame ids read from it, sorted, so models sharing a
    sensor share its draws; ``reads`` holds each model's ``(sensor
    index, positions in those ids)`` pairs.
    """

    def __init__(self, scenario: UsageScenario, duration_s: float) -> None:
        plans = [
            FramePlan(sm)
            for sm in sorted(scenario.root_models(), key=lambda sm: sm.code)
        ]
        frames = [np.arange(_num_frames(plan, duration_s)) for plan in plans]
        reads = [plan.sensor_reads(f) for plan, f in zip(plans, frames)]
        wanted: dict[InputSource, list[IntArray]] = {}
        for model_reads in reads:
            for sensor, ids in model_reads:
                wanted.setdefault(sensor, []).append(ids)
        self.sensors: list[tuple[InputSource, IntArray]] = []
        for sensor, chunks in wanted.items():
            # The distinct frame ids, sorted.  (np.unique would import
            # numpy.ma, about 1.5 MB of resident memory, on first use.)
            ids = np.sort(np.concatenate(chunks))
            self.sensors.append((sensor, ids[np.diff(ids, prepend=-1) != 0]))
        column = {sensor: i for i, sensor in enumerate(wanted)}
        self.reads = [
            [
                (column[sensor],
                 np.searchsorted(self.sensors[column[sensor]][1], ids))
                for sensor, ids in model_reads
            ]
            for model_reads in reads
        ]
        self.codes = np.repeat(
            np.array([plan.scenario_model.code for plan in plans], object),
            [len(f) for f in frames],
        )
        # The empty leading arrays keep a scenario without root models
        # (no rows) valid here and in schedules().
        self.frames = np.concatenate([np.arange(0), *frames])
        self.deadlines = np.concatenate([
            np.zeros(0),
            *(plan.deadlines_s(f) for plan, f in zip(plans, frames)),
        ])

    def schedules(
        self,
        jitters: Iterator[FloatArray],
        members: Sequence[tuple[int, float]],
    ) -> list[Schedule]:
        """The schedule of each ``(seed, frame_loss_probability)`` member.

        ``jitters`` yields each of ``sensors``' jitter matrices, one row
        per member (:func:`~repro.workload.sensors.jitter_blocks_s`).
        Definition 7's operations run on ``(members, frames)`` matrices
        in the per-sensor order: jittered arrivals clamped at zero, then
        each model frame's latest arrival among its sensors, since
        multi-modal models (DR) wait for *all* of them.
        """
        arrivals = [
            sensor.arrivals_from_s(ids, next(jitters))
            for sensor, ids in self.sensors
        ]
        times = np.concatenate([
            np.zeros((len(members), 0)),
            *(
                reduce(np.maximum, [
                    arrivals[i][:, at] for i, at in model_reads
                ])
                for model_reads in self.reads
            ),
        ], axis=1)
        # The rows are in (code, frame) order, so a stable sort by time
        # orders them as sorting the requests by (time, code) did.  Lost
        # frames leave the other rows in that order.
        schedules: list[Schedule] = []
        for (seed, loss), member_times, order in zip(
            members, times, np.argsort(times, axis=1, kind="stable")
        ):
            codes = self.codes[order].tolist()
            frames = self.frames[order].tolist()
            rows: Iterable[tuple[float, str, int, float]] = zip(
                member_times[order].tolist(), codes, frames,
                self.deadlines[order].tolist(),
            )
            if loss > 0.0:
                rows = itertools.compress(rows, [
                    _unit_roll(f"loss:{code}:{frame}:{seed}") >= loss
                    for code, frame in zip(codes, frames)
                ])
            schedules.append(tuple(rows))
        return schedules


def root_schedules(keys: Sequence[ScheduleKey]) -> list[Schedule]:
    """The root schedule of each key, building all the memo lacks at once.

    A schedule is a pure function of its key — every randomness source
    is keyed derivation, not stateful RNG — so it is memoised for the
    process: sessions replicating one scenario at the same seed,
    benchmark repeats and sweep points rebuild request *objects*
    (mutable, so they must be fresh per run) from shared timing rows.
    A run asks once for every window it plans, and once more for each
    degrade phase it enters (a batch of one); the keys the memo lacks
    are built together by :func:`_build_schedules`.  A cold
    ``overload_256`` execution's 256 schedules took 112 ms built one
    session at a time and take 39 ms as one batch; a batch of one costs
    what the per-key build did (numpy 2.4.6, CPython 3.11.7, 2-core
    Intel Xeon, alternating in one process).
    """
    schedules: list[Schedule] = []
    missing: list[int] = []
    for key in keys:
        rows = _SCHEDULES.get(key)
        if rows is None:
            missing.append(len(schedules))
            rows = ()
        schedules.append(rows)
    if missing:
        built = _build_schedules([keys[i] for i in missing])
        for i, rows in zip(missing, built):
            schedules[i] = _SCHEDULES[keys[i]] = rows
        while len(_SCHEDULES) > _MEMO_SIZE:
            del _SCHEDULES[next(iter(_SCHEDULES))]
    return schedules


def _build_schedules(keys: Sequence[ScheduleKey]) -> list[Schedule]:
    """Build the root schedule of each key as one batch.

    The keys are grouped by scenario object and duration, in first-seen
    order.  Each group's seed-independent tables are built once
    (:class:`_RootTable`), and one sha256 pass and one kernel call draw
    the jitter of every group, sensor, seed and frame
    (:func:`~repro.workload.sensors.jitter_blocks_s`).  A repeated key
    is built once.
    """
    tables: dict[tuple[int, float], _RootTable] = {}
    members: dict[tuple[int, float], dict[tuple[int, float], None]] = {}
    for scenario, duration_s, seed, loss in keys:
        group = (id(scenario), duration_s)
        if group not in tables:
            tables[group] = _RootTable(scenario, duration_s)
            members[group] = {}
        members[group][seed, loss] = None
    jitters = iter(jitter_blocks_s([
        (sensor, ids, [seed for seed, _ in members[group]])
        for group, table in tables.items()
        for sensor, ids in table.sensors
    ]))
    built = {
        group: dict(zip(
            members[group], table.schedules(jitters, list(members[group]))
        ))
        for group, table in tables.items()
    }
    return [
        built[id(scenario), duration_s][seed, loss]
        for scenario, duration_s, seed, loss in keys
    ]


@dataclass
class LoadGenerator:
    """Generates the request stream for one scenario run.

    Attributes:
        scenario: the usage scenario to drive.
        duration_s: how long the input streams run.
        seed: seed for jitter and dependency-trigger randomness.
        frame_loss_probability: failure-injection knob — probability that a
            sensor frame is lost before reaching the device (bus errors,
            sensor glitches).  Lost frames never become requests; the QoE
            denominator still counts them, so sensor flakiness degrades
            QoE exactly like runtime drops do.
    """

    scenario: UsageScenario
    duration_s: float
    seed: int = 0
    frame_loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration_s}")
        if not 0.0 <= self.frame_loss_probability < 1.0:
            raise ValueError(
                f"frame_loss_probability must be in [0, 1), got "
                f"{self.frame_loss_probability}"
            )
        self._plans = {
            sm.code: FramePlan(sm) for sm in self.scenario.models
        }
        self._deadlines = {
            dep.downstream: _frame_deadlines(
                self._plans[dep.downstream], self.duration_s
            )
            for dep in self.scenario.dependencies
        }

    def frame_lost(self, code: str, model_frame: int) -> bool:
        """Deterministically roll whether a sensor frame was lost."""
        if self.frame_loss_probability <= 0.0:
            return False
        roll = _unit_roll(f"loss:{code}:{model_frame}:{self.seed}")
        return roll < self.frame_loss_probability

    def plan_for(self, code: str) -> FramePlan:
        return self._plans[code]

    def root_schedule(self) -> Schedule:
        """The sensor-driven requests' timing, sorted by request time.

        ``(request_time_s, model_code, model_frame, deadline_s)`` rows:
        the batch of one of :func:`root_schedules`, which a run calls
        once for every window it plans.  The tuple is shared between
        every generator with the same parameters, so it is immutable;
        the runtime builds each row's request only when the row arrives.
        """
        return root_schedules([(
            self.scenario,
            self.duration_s,
            self.seed,
            self.frame_loss_probability,
        )])[0]

    def root_requests(self) -> list[InferenceRequest]:
        """All requests for sensor-driven models, sorted by request time.

        The batch view of :meth:`root_schedule`: the request objects are
        always fresh, since callers mutate them.
        """
        return [
            InferenceRequest(
                model_code=code,
                model_frame=frame,
                request_time_s=request_time_s,
                deadline_s=deadline_s,
            )
            for request_time_s, code, frame, deadline_s
            in self.root_schedule()
        ]

    def dependency_triggers(
        self, dep: Dependency, model_frame: int
    ) -> bool:
        """Deterministically roll whether ``dep`` fires for a frame."""
        if dep.probability >= 1.0:
            return True
        if dep.probability <= 0.0:
            return False
        roll = _unit_roll(
            f"{dep.upstream}->{dep.downstream}:{model_frame}:{self.seed}"
        )
        return roll < dep.probability

    def spawn_dependent(
        self, dep: Dependency, upstream_frame: int, ready_time_s: float
    ) -> InferenceRequest | None:
        """Create the downstream request triggered by an upstream completion.

        Returns ``None`` when the trigger roll fails (dynamic cascading) or
        when the downstream frame falls outside the run duration.  The
        downstream inherits the upstream's frame index mapped onto its own
        frame plan; its request time is when the upstream's output became
        available.
        """
        if not self.dependency_triggers(dep, upstream_frame):
            return None
        down_plan = self._plans[dep.downstream]
        up_plan = self._plans[dep.upstream]
        # Map the upstream model-frame to the downstream frame covering the
        # same instant of the sensor stream.
        ratio = down_plan.effective_fps / up_plan.effective_fps
        down_frame = int(upstream_frame * ratio)
        # The streamed frames are a prefix (FramePlan.num_frames): past
        # it, the frame's nominal arrival is at or after the duration.
        deadlines = self._deadlines[dep.downstream]
        if down_frame >= len(deadlines):
            return None
        return InferenceRequest(
            model_code=dep.downstream,
            model_frame=down_frame,
            request_time_s=ready_time_s,
            deadline_s=deadlines[down_frame],
        )

    def expected_frames(self) -> dict[str, int]:
        """Streamed frame counts per root model (QoE denominators).

        Dependent models' denominators are counted at runtime, since only
        triggered requests are "streamed" work for them.
        """
        downstream = {d.downstream for d in self.scenario.dependencies}
        return {
            sm.code: _num_frames(self._plans[sm.code], self.duration_s)
            for sm in self.scenario.models
            if sm.code not in downstream
        }
