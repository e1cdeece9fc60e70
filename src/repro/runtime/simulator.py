"""One session's simulation outcome: :class:`SimulationResult`.

The event loop lives in :mod:`repro.runtime.multisim`:
:class:`~repro.runtime.multisim.MultiScenarioSimulator` multiplexes any
number of scenario sessions onto one accelerator system, and a
one-session group is the single-scenario run.  Each session of a run
comes back as one :class:`SimulationResult`, which is what scoring
(:func:`repro.core.aggregate.score_simulation`) reads.  A run proceeds
as follows:

1. The load generator schedules every sensor-driven inference request
   (with jittered arrival times) as ARRIVAL events.
2. On arrival, a request enters the waiting queue; a stale waiting frame
   of the same model is dropped (frame-freshness policy, see
   :mod:`repro.runtime.queues`).
3. Whenever an engine is idle and requests wait, the scheduler picks a
   (work item, engine) pair; the analytical cost model supplies the
   inference latency and energy; a COMPLETION event is scheduled.
4. On completion, downstream dependencies may spawn new requests (data
   deps always, control deps with the scenario's trigger probability),
   arriving at the upstream's completion time.

The run ends when all events have drained — input streams stop at
``duration_s`` but in-flight work is allowed to finish, matching how the
paper counts deadline violations for late frames rather than truncating
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.costmodel.analysis import ordered_sum
from repro.hardware import AcceleratorSystem
from repro.workload import InferenceRequest, UsageScenario

from .admission import AdmissionRecord
from .engine import ExecutionRecord
from .faults import FaultRecord

__all__ = ["SimulationResult"]


@dataclass
class SimulationResult:
    """Raw outcome of one scenario x system simulation (one session)."""

    scenario: UsageScenario
    system: AcceleratorSystem
    duration_s: float
    requests: list[InferenceRequest]
    busy_time_s: dict[int, float]
    spawned_frames: dict[str, int]
    #: Engine occupancy log (one entry per dispatched model/segment);
    #: empty for results built by hand from request lists alone.
    records: list[ExecutionRecord] = field(default_factory=list)
    #: The tenant session this result belongs to (0 in single runs).
    session_id: int = 0
    #: Seconds of the streamed duration this session was online for.
    #: ``None`` (the default) means the whole run — the static case.
    #: Dynamic sessions (late arrival, early departure) carry their
    #: actual window here so per-session rates normalise by *active*
    #: rather than streamed duration.
    active_duration_s: float | None = None
    #: QoE control-plane outcome for this session, or ``None`` when no
    #: admission controller was installed — the historical path.
    admission: AdmissionRecord | None = None
    #: Fault-injection outcome for this session (kills, retries, lost
    #: requests, recovery latencies), or ``None`` when no fault plan was
    #: installed — the historical path.
    faults: "FaultRecord | None" = None

    # -- derived statistics --------------------------------------------------

    @property
    def window_s(self) -> float:
        """The session's active window: its QoE/utilization denominator."""
        if self.active_duration_s is None:
            return self.duration_s
        return self.active_duration_s

    def completed(self, model_code: str | None = None) -> list[InferenceRequest]:
        return [
            r
            for r in self.requests
            if r.completed and (model_code is None or r.model_code == model_code)
        ]

    def dropped(self, model_code: str | None = None) -> list[InferenceRequest]:
        return [
            r
            for r in self.requests
            if r.dropped and (model_code is None or r.model_code == model_code)
        ]

    def num_frames(self, model_code: str) -> int:
        """QoE denominator: frames streamed/triggered for the model."""
        return self.spawned_frames.get(model_code, 0)

    def frame_drop_rate(self) -> float:
        total = len(self.requests)
        if total == 0:
            return 0.0
        return len([r for r in self.requests if r.dropped]) / total

    def total_energy_mj(self) -> float:
        """Total energy this session spent, in millijoules.

        Summed over the engine occupancy log when one exists — honest
        accounting that includes segments whose request was later
        dropped (the hardware still spent that energy).  Hand-built
        results without records fall back to per-request energy.
        """
        if self.records:
            return ordered_sum(record.energy_mj for record in self.records)
        return ordered_sum(r.energy_mj or 0.0 for r in self.requests)

    def utilization(self, sub_index: int) -> float:
        """Busy fraction of one engine over the session's window.

        Normalised by the *active* duration (= the streamed duration for
        static sessions), so a tenant online for half the run is not
        reported at half its true utilization.  Busy time is clipped to
        the session's active window at accounting time — the drain tail
        of in-flight work past the window (visible in ``records``) does
        not count, so the fraction cannot exceed 1.0 (up to float
        rounding) for runtime-produced results.
        """
        return self.busy_time_s.get(sub_index, 0.0) / self.window_s

    def missed_deadlines(self, model_code: str | None = None) -> int:
        return sum(
            1
            for r in self.completed(model_code)
            if r.missed_deadline
        )

    def mean_utilization(self) -> float:
        subs = self.system.num_subs
        return ordered_sum(self.utilization(i) for i in range(subs)) / subs
