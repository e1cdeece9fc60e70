"""Load generator: turns a usage scenario into timed inference requests.

Root models (those driven directly by sensors) get their full request
schedule generated up front from the jittered sensor streams, as timing
rows the runtime turns into requests one arrival at a time.  Dependent
models (downstream of a data or control dependency) are *not* scheduled
here — the runtime spawns their requests when the upstream inference
completes, rolling the dependency's trigger probability with a
deterministic per-frame RNG so runs are reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .requests import FramePlan, InferenceRequest, request_times_s
from .scenarios import Dependency, UsageScenario

__all__ = ["LoadGenerator"]


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


@lru_cache(maxsize=1 << 10)
def _root_schedule(
    scenario: UsageScenario,
    duration_s: float,
    seed: int,
    frame_loss_probability: float,
) -> tuple[tuple[float, str, int, float], ...]:
    """The scenario's sorted root-request schedule, as plain tuples.

    ``(request_time_s, model_code, model_frame, deadline_s)`` rows in
    dispatch order.  Every root model's request times come from one
    batch (:func:`~repro.workload.requests.request_times_s`), which draws
    each sensor's jitter once for all the frames the models read from it.
    The schedule is a pure function of the (frozen, hashable) scenario
    and the generation parameters — every randomness source is keyed
    derivation, not stateful RNG — so it is memoised: sessions
    replicating one scenario at the same seed, benchmark repeats and
    sweep points rebuild request *objects* (mutable, so they must be
    fresh per run) from cached timing rows instead of redrawing.
    """
    frames = []
    for sm in scenario.root_models():
        plan = FramePlan(sm)
        model_frames = np.arange(_num_frames(plan, duration_s))
        if frame_loss_probability > 0.0:
            model_frames = model_frames[[
                _unit_roll(f"loss:{sm.code}:{frame}:{seed}")
                >= frame_loss_probability
                for frame in model_frames.tolist()
            ]]
        frames.append((plan, model_frames))
    rows: list[tuple[float, str, int, float]] = []
    for (plan, model_frames), times in zip(
        frames, request_times_s(frames, seed)
    ):
        rows += zip(
            times.tolist(),
            itertools.repeat(plan.scenario_model.code),
            model_frames.tolist(),
            plan.deadlines_s(model_frames).tolist(),
        )
    # Same order as sorting the built requests by (time, code): rows are
    # appended in (model, frame) order and the sort is stable.
    rows.sort(key=lambda r: (r[0], r[1]))
    return tuple(rows)


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

    def root_schedule(self) -> tuple[tuple[float, str, int, float], ...]:
        """The sensor-driven requests' timing, sorted by request time.

        ``(request_time_s, model_code, model_frame, deadline_s)`` rows
        from the memoised schedule (:func:`_root_schedule`).  The tuple
        is shared between every generator with the same parameters, so
        it is immutable; the runtime builds each row's request only when
        the row arrives.
        """
        return _root_schedule(
            self.scenario,
            self.duration_s,
            self.seed,
            self.frame_loss_probability,
        )

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
