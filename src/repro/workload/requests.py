"""Inference requests and their timing (Definitions 6-9).

An :class:`InferenceRequest` is one (model, frame) inference to be
dispatched by the runtime.  Its timing fields:

* ``request_time_s`` (``Treq``) — when the input data becomes available:
  the jittered sensor-frame arrival for sensor-driven models, or the
  upstream completion time for dependent models.
* ``deadline_s`` (``Tdl``) — the arrival of the model's *next* input
  frame (Definition 8): finishing later than this cannot contribute to
  the target processing rate.
* ``slack_s`` (``Tsl``) — ``Tdl - Treq``, the window the system has to run
  the inference (Definition 9).

Model frames are derived from sensor frames.  A model targeting
``FPS_model`` on a sensor streaming at ``FPS_sensor >= FPS_model``
consumes every ``FPS_sensor / FPS_model``-th frame (Figure 3: a 30 FPS
model on the 60 FPS camera skips every other frame).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .scenarios import ScenarioModel
from .sensors import FloatArray, InputSource, IntArray

__all__ = ["FramePlan", "InferenceRequest"]


@dataclass(frozen=True)
class FramePlan:
    """Maps a model's frame indices onto sensor frames and deadlines.

    The batch methods take an int array of model frames; the one-frame
    accessors are the batch of one.  ``effective_fps`` and ``stride`` are
    cached: both are pure functions of the (frozen) scenario model.
    """

    scenario_model: ScenarioModel

    @cached_property
    def effective_fps(self) -> float:
        """Achievable processing rate: the target, capped by the sensor.

        Even zero-latency inference cannot exceed the input streaming rate
        (Section 3.6), so a target above the sensor rate clips to it.
        """
        sensor_fps = self.scenario_model.model.primary_sensor.fps
        return min(self.scenario_model.target_fps, sensor_fps)

    @cached_property
    def stride(self) -> float:
        """Sensor frames consumed per model frame (>= 1)."""
        sensor_fps = self.scenario_model.model.primary_sensor.fps
        return sensor_fps / self.effective_fps

    def sensor_frames(self, model_frames: IntArray) -> IntArray:
        """The primary-sensor frame id consumed by each model frame."""
        if (model_frames < 0).any():
            raise ValueError(
                f"model_frame must be >= 0, got {model_frames.min()}"
            )
        return (model_frames * self.stride).astype(np.int64)

    def sensor_reads(
        self, model_frames: IntArray
    ) -> list[tuple[InputSource, IntArray]]:
        """Each of the model's sensors, with the frame ids it delivers.

        Sensors stream at aligned rates in XRBench (Table 3 aligns camera
        and lidar at 60 FPS); the frame id is re-derived for sensors whose
        rate differs from the primary.
        """
        sensor_frames = self.sensor_frames(model_frames)
        primary_fps = self.scenario_model.model.primary_sensor.fps
        return [
            (
                sensor,
                np.rint(sensor_frames * sensor.fps / primary_fps).astype(
                    np.int64
                ),
            )
            for sensor in self.scenario_model.model.sensors
        ]

    def deadlines_s(self, model_frames: IntArray) -> FloatArray:
        """Nominal arrival of each next consumed frame (Definition 8)."""
        sensor = self.scenario_model.model.primary_sensor
        return sensor.nominal_arrivals_s(self.sensor_frames(model_frames + 1))

    def sensor_frame_for(self, model_frame: int) -> int:
        """The sensor frame id consumed by ``model_frame``."""
        return int(self.sensor_frames(np.array([model_frame]))[0])

    def request_time_s(self, model_frame: int, seed: int = 0) -> float:
        """Jittered availability time of one model frame's input data.

        The latest arrival among the model's sensors (Definition 7):
        multi-modal models (DR) wait for *all* of them.
        """
        return max(
            sensor.arrival_s(int(ids[0]), seed)
            for sensor, ids in self.sensor_reads(np.array([model_frame]))
        )

    def deadline_s(self, model_frame: int) -> float:
        """Nominal arrival of the next consumed frame (Definition 8)."""
        return float(self.deadlines_s(np.array([model_frame]))[0])

    def num_frames(self, duration_s: float) -> int:
        """How many model frames stream within ``duration_s``.

        Nominal arrivals never fall as the frame index grows, so the
        streamed frames are a prefix: the count is the first frame whose
        nominal arrival is at or past ``duration_s``.
        """
        if duration_s <= 0:
            raise ValueError(f"duration must be > 0, got {duration_s}")
        sensor = self.scenario_model.model.primary_sensor
        # One sensor frame past the duration, plus a frame of margin.
        count = int(duration_s * self.effective_fps) + 3
        while True:
            arrivals = sensor.nominal_arrivals_s(
                self.sensor_frames(np.arange(count))
            )
            if arrivals[-1] >= duration_s:
                return int(np.searchsorted(arrivals, duration_s))
            count *= 2


@dataclass(slots=True)
class InferenceRequest:
    """One dispatched inference (``IR = (mu, InFrameID)``).

    Slotted: the runtime materialises one per streamed frame (thousands
    per multi-session run) and mutates the timing fields on the hot
    path, so attribute access goes through fixed slots, not a dict.

    ``request_id`` is 0 until a simulation run numbers the request from
    its own counter, so ids are unique within the run and the same
    every time the run is repeated.
    """

    model_code: str
    model_frame: int
    request_time_s: float
    deadline_s: float
    request_id: int = 0
    #: Filled in by the runtime.
    start_time_s: float | None = None
    end_time_s: float | None = None
    accelerator_id: int | None = None
    energy_mj: float | None = None
    dropped: bool = False
    #: Fault-injection stamps (repro.runtime.faults): ``faulted`` marks a
    #: request whose in-flight work was killed by an engine failure at
    #: least once; ``fault_retries`` counts its requeue attempts;
    #: ``failed_faulted`` marks it abandoned by the recovery machinery
    #: (retry budget spent, or no chance to re-run) — distinct from a
    #: deadline miss, which is a *completed* request that ran late.
    faulted: bool = False
    fault_retries: int = 0
    failed_faulted: bool = False

    @property
    def slack_s(self) -> float:
        """``Tsl = Tdl - Treq`` (Definition 9)."""
        return self.deadline_s - self.request_time_s

    @property
    def latency_s(self) -> float:
        """End-to-end latency from data availability to completion."""
        if self.end_time_s is None:
            raise ValueError(
                f"request {self.request_id} ({self.model_code} frame "
                f"{self.model_frame}) has not completed"
            )
        return self.end_time_s - self.request_time_s

    @property
    def completed(self) -> bool:
        return self.end_time_s is not None and not self.dropped

    @property
    def missed_deadline(self) -> bool:
        """Whether the inference finished after its deadline."""
        return self.completed and self.end_time_s > self.deadline_s

    def __repr__(self) -> str:  # keep logs compact
        state = (
            "dropped"
            if self.dropped
            else ("done" if self.completed else "pending")
        )
        return (
            f"IR({self.model_code}#{self.model_frame}, t={self.request_time_s:.4f}, "
            f"dl={self.deadline_s:.4f}, {state})"
        )
