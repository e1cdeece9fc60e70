"""Discrete-event benchmark runtime (Figure 2), multi-tenant edition."""

from .admission import (
    ADMISSION_POLICIES,
    DEGRADATION_LADDER,
    AdmissionController,
    AdmissionRecord,
    ControlAction,
    DegradationStep,
    DegradeController,
    SessionView,
    ShedController,
    make_admission,
    quality_retention,
)
from .engine import EngineFleet, ExecutionEngine, ExecutionRecord, WorkItem
from .events import EventKind, EventQueue
from .faults import (
    FAULT_PROFILES,
    FaultAction,
    FaultEvent,
    FaultPlan,
    FaultRecord,
    make_fault_plan,
)
from .governor import (
    DVFS_POLICIES,
    DispatchContext,
    DvfsGovernor,
    RaceToIdleGovernor,
    SlackGovernor,
    make_governor,
)
from .multisim import (
    GRANULARITIES,
    MultiScenarioSimulator,
    MultiSessionResult,
    SessionPhase,
    SessionSpec,
)
from .queues import WaitingQueue
from .scheduler import (
    SCHEDULERS,
    EarliestDeadlineScheduler,
    RateMonotonicScheduler,
    LatencyGreedyScheduler,
    RoundRobinScheduler,
    Scheduler,
    make_scheduler,
    register_scheduler,
)
from .segmentation import segment_scenario, split_graph
from .simulator import SimulationResult
from .timeline import Segment, extract_timeline, render_timeline

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionController",
    "AdmissionRecord",
    "ControlAction",
    "DEGRADATION_LADDER",
    "DVFS_POLICIES",
    "DegradationStep",
    "DegradeController",
    "SessionView",
    "ShedController",
    "make_admission",
    "quality_retention",
    "DispatchContext",
    "DvfsGovernor",
    "EarliestDeadlineScheduler",
    "EngineFleet",
    "EventKind",
    "EventQueue",
    "ExecutionEngine",
    "ExecutionRecord",
    "FAULT_PROFILES",
    "FaultAction",
    "FaultEvent",
    "FaultPlan",
    "FaultRecord",
    "GRANULARITIES",
    "LatencyGreedyScheduler",
    "MultiScenarioSimulator",
    "MultiSessionResult",
    "RaceToIdleGovernor",
    "RateMonotonicScheduler",
    "RoundRobinScheduler",
    "SlackGovernor",
    "SCHEDULERS",
    "Scheduler",
    "Segment",
    "SessionPhase",
    "SessionSpec",
    "WaitingQueue",
    "WorkItem",
    "segment_scenario",
    "split_graph",
    "SimulationResult",
    "extract_timeline",
    "make_fault_plan",
    "make_governor",
    "make_scheduler",
    "register_scheduler",
    "render_timeline",
]
