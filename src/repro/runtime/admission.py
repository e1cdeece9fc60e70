"""QoE admission control: the runtime's closed-loop control plane.

The paper frames multi-tenant XR serving as a QoE problem — deadline
satisfaction under concurrent model execution — yet an open-loop runtime
just watches a saturated system miss deadlines.  An
:class:`AdmissionController` closes the loop: the event loop consults it
when a session joins (admit or reject) and at periodic
:attr:`~repro.runtime.events.EventKind.CONTROL_TICK` events (shed or
degrade running sessions), driven by the observed deadline-miss EWMA.

Policies (:data:`ADMISSION_POLICIES`):

* ``none`` — the historical open-loop path.  :func:`make_admission`
  returns ``None`` for it, so no controller object exists, no control
  ticks are scheduled, and the event stream is *literally* the
  historical one — the golden schedule checksums pin it bit-identically.
* ``shed`` — admission control by rejection: when the system-wide
  deadline-miss EWMA crosses the overload threshold, new sessions are
  rejected at join and the lowest-priority running session (highest
  session id — later tenants are lower priority) is dropped.  A shed
  session's user is still present (its frames stream and count against
  QoE as drops) but the system spends nothing on it.
* ``degrade`` — admission control by quality adaptation: a struggling
  session (per-session miss EWMA over threshold) has its models switched
  to cheaper variants mid-run instead of being dropped.  The degradation
  ladder pairs rate scaling (:func:`repro.workload.variants.scale_rates`)
  with quantization levels (:func:`repro.nn.quantize.quality_proxy`
  prices the quality cost); the mechanism is the SESSION_PHASE swap
  machinery — the event loop truncates the session's current activity
  window and enters a degraded phase from the control instant.  The
  *step* taken is priced through the run's price table: the controller
  picks the smallest ladder level whose projected offered load (sum of
  model rates times cheapest-engine latency) sheds at least the observed
  miss fraction.

Every control action is logged as a first-class event: the tick itself is
an :class:`~repro.runtime.events.EventKind` member, and each decision is
stamped into the acting session's :class:`AdmissionRecord` (carried on
its :class:`~repro.runtime.simulator.SimulationResult`) with the miss
EWMA that triggered it, the shed reason or degradation level, and —
via :func:`quality_retention` — the QoE-vs-quality proxy the ladder
level costs.

Controllers only ever *remove* offered load (reject, shed, or slow a
session's stream).  Shedding therefore never increases the deadline-miss
rate versus ``none`` at equal seeds — the property tests pin this across
every registered scheduler.  Degradation carries one caveat the tests
also document: under deadline-ordered schedulers (EDF, rate-monotonic)
at deep saturation, slowing a stream gives stale queued frames *longer*
before a fresher frame displaces them, so work that ``none`` would have
freshness-dropped instead completes late — QoE rises (more frames
served) but the miss rate *conditional on completion* can rise with it.
Under the throughput-greedy scheduler family (the pinned bench
configuration) degradation strictly cuts the miss rate, which the
property tests and the committed bench cells pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Protocol, Sequence

from repro.costmodel.analysis import ordered_sum
from repro.workload import UsageScenario

__all__ = [
    "ADMISSION_POLICIES",
    "DEGRADATION_LADDER",
    "DegradationStep",
    "ControlAction",
    "AdmissionRecord",
    "SessionView",
    "AdmissionController",
    "ShedController",
    "DegradeController",
    "control_ticks",
    "make_admission",
    "quality_retention",
]

#: The admission policies the runtime (and RunSpec/CLI) accept.
ADMISSION_POLICIES: tuple[str, ...] = ("none", "shed", "degrade")


@dataclass(frozen=True)
class DegradationStep:
    """One rung of the quality ladder: a rate scale plus a precision.

    ``rate_factor`` multiplies every model's target FPS (capped at the
    sensor rate, via :func:`~repro.workload.variants.scale_rates`);
    ``bits`` is the quantization precision the degraded models notionally
    run at (``None`` — full float — for the undegraded rung), which
    prices the quality cost through
    :func:`~repro.nn.quantize.quality_proxy`.
    """

    rate_factor: float
    bits: int | None


#: Level 0 is full fidelity; each later rung streams slower and runs at
#: a lower notional precision.  Rate factors are the dominant load
#: lever; bits set the quality price the report shows.
DEGRADATION_LADDER: tuple[DegradationStep, ...] = (
    DegradationStep(1.0, None),
    DegradationStep(0.75, 8),
    DegradationStep(0.5, 6),
    DegradationStep(1.0 / 3.0, 4),
)


@dataclass(frozen=True)
class ControlAction:
    """One logged control-plane decision.

    ``kind`` is ``"reject"`` (at SESSION_JOIN), ``"shed"`` or
    ``"degrade"`` (at a control tick).  ``miss_ewma`` is the deadline-miss
    EWMA that triggered the action; ``level`` the degradation level the
    session moved *to* (0 for reject/shed).
    """

    time_s: float
    kind: str
    session_id: int
    reason: str
    miss_ewma: float
    level: int = 0


@dataclass
class AdmissionRecord:
    """Per-session control-plane outcome, stamped on its result.

    ``shed`` covers both join-time rejection and mid-run shedding
    (``shed_reason`` says which); ``degradation_level`` indexes
    :data:`DEGRADATION_LADDER` (0 = never degraded).  ``actions`` is the
    session's full decision log in event order.
    """

    policy: str
    shed: bool = False
    shed_reason: str | None = None
    degradation_level: int = 0
    actions: tuple[ControlAction, ...] = ()


@dataclass(frozen=True)
class SessionView:
    """What a controller sees of one live session at a control tick."""

    session_id: int
    level: int
    #: The session's *planned* (undegraded) current-activity scenario —
    #: the baseline any further degradation scales from.
    scenario: UsageScenario
    #: Seconds until the current activity window ends; a controller
    #: should not bother degrading a session about to switch anyway.
    remaining_s: float


class AdmissionController(Protocol):
    """Closed-loop QoE decision interface.

    The event loop calls :meth:`admit` when a session joins,
    :meth:`observe` as each request's final segment completes (the
    deadline outcome feed), and :meth:`decide` at every CONTROL_TICK.
    ``latency_of`` prices a task code's cheapest-engine latency through
    the run's price table.  All methods must be deterministic:
    the observation sequence is fixed by the event order, so two equal
    runs make identical decisions.
    """

    #: Seconds between CONTROL_TICK events.
    period_s: float

    def reset(self) -> None:
        """Clear cross-run state (called at the start of every run)."""
        ...

    def admit(self, now_s: float, session_id: int) -> ControlAction | None:
        """``None`` to admit the joining session, else the reject action."""
        ...

    def observe(self, session_id: int, missed: bool) -> None:
        """Feed one completed request's deadline outcome."""
        ...

    def decide(
        self,
        now_s: float,
        sessions: Sequence[SessionView],
        latency_of: Callable[[str], float],
        num_engines: int,
    ) -> list[ControlAction]:
        """Control actions to apply at this tick (possibly empty)."""
        ...


def _ewma(previous: float, sample: float, alpha: float) -> float:
    return alpha * sample + (1.0 - alpha) * previous


@dataclass
class ShedController:
    """Reject/drop lowest-priority sessions under overload.

    Maintains one system-wide deadline-miss EWMA.  While it exceeds
    ``threshold`` (after ``min_observations`` completions), joining
    sessions are rejected and — at most once per ``min_observations``
    further completions, so each action's effect is observed before the
    next — the lowest-priority live session is shed.  ``min_keep``
    sessions always survive: shedding the last tenant would "fix"
    overload by serving nobody.
    """

    period_s: float = 0.02
    threshold: float = 0.3
    alpha: float = 0.2
    min_observations: int = 6
    min_keep: int = 1

    _miss_ewma: float = field(default=0.0, init=False, repr=False)
    _observed: int = field(default=0, init=False, repr=False)
    _since_action: int = field(default=0, init=False, repr=False)

    def reset(self) -> None:
        self._miss_ewma = 0.0
        self._observed = 0
        self._since_action = 0

    @property
    def _overloaded(self) -> bool:
        return (
            self._observed >= self.min_observations
            and self._miss_ewma > self.threshold
        )

    def admit(self, now_s: float, session_id: int) -> ControlAction | None:
        if not self._overloaded:
            return None
        return ControlAction(
            time_s=now_s,
            kind="reject",
            session_id=session_id,
            reason=(
                f"system overloaded at join: miss EWMA "
                f"{self._miss_ewma:.2f} > {self.threshold:g}"
            ),
            miss_ewma=self._miss_ewma,
        )

    def observe(self, session_id: int, missed: bool) -> None:
        self._miss_ewma = _ewma(self._miss_ewma, float(missed), self.alpha)
        self._observed += 1
        self._since_action += 1

    def decide(
        self,
        now_s: float,
        sessions: Sequence[SessionView],
        latency_of: Callable[[str], float],
        num_engines: int,
    ) -> list[ControlAction]:
        if not self._overloaded:
            return []
        if self._since_action < self.min_observations:
            return []
        if len(sessions) <= self.min_keep:
            return []
        victim = max(sessions, key=lambda v: v.session_id)
        self._since_action = 0
        return [
            ControlAction(
                time_s=now_s,
                kind="shed",
                session_id=victim.session_id,
                reason=(
                    f"lowest-priority of {len(sessions)} sessions under "
                    f"overload: miss EWMA {self._miss_ewma:.2f} > "
                    f"{self.threshold:g}"
                ),
                miss_ewma=self._miss_ewma,
            )
        ]


@dataclass
class DegradeController:
    """Switch a struggling session's models to cheaper variants.

    Maintains a per-session deadline-miss EWMA.  When a session's EWMA
    exceeds ``threshold`` (after ``min_observations`` of its completions
    at the current level), the session steps down the quality ladder.
    The step is *priced through the run's price table*: the controller
    projects each candidate level's offered load — the sum over the
    session's planned models of (scaled rate x cheapest-engine latency)
    — and takes the smallest level that sheds at least the observed miss
    fraction of the session's current offered load; escalation is at
    least one rung regardless.
    """

    period_s: float = 0.02
    threshold: float = 0.3
    alpha: float = 0.2
    min_observations: int = 6
    ladder: tuple[DegradationStep, ...] = DEGRADATION_LADDER
    #: Skip sessions whose activity window ends within this horizon —
    #: the phase swap would apply to almost nothing.
    min_remaining_s: float = 0.02

    _miss_ewma: dict[int, float] = field(
        default_factory=dict, init=False, repr=False
    )
    _observed: dict[int, int] = field(
        default_factory=dict, init=False, repr=False
    )

    def reset(self) -> None:
        self._miss_ewma = {}
        self._observed = {}

    def admit(self, now_s: float, session_id: int) -> ControlAction | None:
        return None  # degrade never rejects — it adapts

    def observe(self, session_id: int, missed: bool) -> None:
        self._miss_ewma[session_id] = _ewma(
            self._miss_ewma.get(session_id, 0.0), float(missed), self.alpha
        )
        self._observed[session_id] = self._observed.get(session_id, 0) + 1

    def _offered_load_s(
        self,
        scenario: UsageScenario,
        rate_factor: float,
        latency_of: Callable[[str], float],
    ) -> float:
        """Projected busy-seconds per streamed second at one ladder rung."""
        load = 0.0
        for sm in scenario.models:
            if sm.aux:
                continue
            fps = min(
                sm.target_fps * rate_factor, sm.model.primary_sensor.fps
            )
            load += fps * latency_of(sm.code)
        return load

    def decide(
        self,
        now_s: float,
        sessions: Sequence[SessionView],
        latency_of: Callable[[str], float],
        num_engines: int,
    ) -> list[ControlAction]:
        actions = []
        max_level = len(self.ladder) - 1
        for view in sorted(sessions, key=lambda v: v.session_id):
            sid = view.session_id
            if view.level >= max_level:
                continue
            if view.remaining_s < self.min_remaining_s:
                continue
            if self._observed.get(sid, 0) < self.min_observations:
                continue
            ewma = self._miss_ewma.get(sid, 0.0)
            if ewma <= self.threshold:
                continue
            current = self._offered_load_s(
                view.scenario,
                self.ladder[view.level].rate_factor,
                latency_of,
            )
            # The miss EWMA *is* the relief target: missing 60% of
            # deadlines means ~60% of the offered load does not fit, so
            # find the smallest rung shedding that fraction.
            target_load = (1.0 - ewma) * current
            level = min(view.level + 1, max_level)
            for candidate in range(view.level + 1, max_level + 1):
                level = candidate
                load = self._offered_load_s(
                    view.scenario,
                    self.ladder[candidate].rate_factor,
                    latency_of,
                )
                if load <= target_load:
                    break
            actions.append(
                ControlAction(
                    time_s=now_s,
                    kind="degrade",
                    session_id=sid,
                    reason=(
                        f"session miss EWMA {ewma:.2f} > "
                        f"{self.threshold:g}; ladder level "
                        f"{view.level} -> {level} "
                        f"(x{self.ladder[level].rate_factor:g} rate, "
                        f"int{self.ladder[level].bits})"
                    ),
                    miss_ewma=ewma,
                    level=level,
                )
            )
            # Re-accumulate observations at the new level before
            # escalating again: the action's effect must be seen first.
            self._observed[sid] = 0
            self._miss_ewma[sid] = 0.0
        return actions


def make_admission(policy: str) -> AdmissionController | None:
    """Build the controller for a policy name (hyphens tolerated).

    Returns ``None`` for ``"none"``: no controller means no control
    ticks and the exact historical event stream, which is what the
    golden schedule checksums pin.
    """
    name = policy.replace("-", "_")
    if name not in ADMISSION_POLICIES:
        raise ValueError(
            f"unknown admission policy {policy!r}; one of "
            f"{ADMISSION_POLICIES}"
        )
    if name == "none":
        return None
    if name == "shed":
        return ShedController()
    return DegradeController()


def control_ticks(period_s: float, duration_s: float) -> tuple[float, ...]:
    """The instants a controller is consulted: every whole period
    strictly inside the streamed duration.

    The event loop posts a CONTROL_TICK at each, and the plan compiler
    records them, so both read this one schedule.
    """
    ticks = []
    tick = 1
    while tick * period_s < duration_s:
        ticks.append(tick * period_s)
        tick += 1
    return tuple(ticks)


@lru_cache(maxsize=None)
def _task_retention(code: str, bits: int | None) -> float:
    """Quality retained by one task at one precision, in [0, 1].

    1.0 for full float.  Otherwise the measured
    :func:`~repro.nn.quantize.quality_proxy` relative to the float
    anchor (HiB: target/0.95; LiB: target*0.95) — i.e. exactly the
    fraction of float quality the quantised variant keeps.  Memoised:
    the proxy runs real graph inference, so each (task, bits) pair is
    priced once per process.
    """
    if bits is None:
        return 1.0
    from repro.nn.quantize import quality_proxy
    from repro.workload.models import UNIT_MODELS

    model = UNIT_MODELS.get(code)
    if model is None:
        # Derived codes (e.g. segment stages) carry no zoo quality
        # anchor; they are aux by construction and never scored.
        return 1.0
    from repro.workload.quality import MetricType

    measured = quality_proxy(model.graph, model.quality, bits=bits)
    target = model.quality.target
    if model.quality.metric_type is MetricType.HIGHER_IS_BETTER:
        retention = measured / (target / 0.95)
    else:
        retention = (target * 0.95) / measured
    return min(1.0, retention)


def quality_retention(
    scenario: UsageScenario,
    level: int,
    ladder: tuple[DegradationStep, ...] = DEGRADATION_LADDER,
) -> float:
    """Mean quality retained by a scenario at one degradation level.

    The QoE-vs-quality proxy stamped into reports and exports: 1.0 at
    level 0, decreasing as the ladder's precision drops.  Averaged over
    the scenario's non-aux models.
    """
    if level < 0:
        raise ValueError(f"degradation level must be >= 0, got {level}")
    step = ladder[min(level, len(ladder) - 1)]
    values = [
        _task_retention(sm.code, step.bits)
        for sm in scenario.models
        if not sm.aux
    ]
    return ordered_sum(values) / len(values) if values else 1.0
