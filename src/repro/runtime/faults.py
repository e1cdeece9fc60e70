"""Deterministic fault injection: plans, events, and resilience records.

Production fleets lose engines and hit thermal limits; the runtime's QoE
numbers are only honest if degraded hardware is a condition it can
simulate on demand.  This module is the plan half of that story: a
:class:`FaultPlan` is a seeded, serializable timeline of
engine-failure / recovery / thermal-throttle events, deterministic from
``(profile, seed)`` exactly like :func:`repro.workload.churn.churn_windows`
is for session lifetimes.  The execution half lives in
:mod:`repro.runtime.multisim`, which schedules the plan's events into
its event loop and drives the recovery machinery (kill + requeue under a
retry budget) they demand.

``make_fault_plan("none", ...)`` returns ``None`` — no plan object, no
events, and the event loop stays bit-identical to the historical path
(the golden schedule checksums re-assert this).

Plans are validated at construction, which is spec-compile time for the
API: a plan whose outages fail every engine simultaneously would stall
the run with work that can never be placed, so it is rejected with a
clear error instead (see :meth:`FaultPlan.__post_init__`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.costmodel.analysis import ordered_sum
from repro.workload.loadgen import _unit_roll

__all__ = [
    "FAULT_PROFILES",
    "FaultAction",
    "FaultEvent",
    "FaultPlan",
    "FaultRecord",
    "make_fault_plan",
]

#: Registered fault profiles.  ``none`` installs nothing (the historical
#: path); the others are seeded event-timeline generators.
FAULT_PROFILES = ("none", "single", "flaky", "thermal")

#: FaultEvent.kind values (plain strings so plans serialize trivially).
ENGINE_FAIL = "engine_fail"
ENGINE_RECOVER = "engine_recover"
THERMAL_THROTTLE = "thermal_throttle"
THERMAL_RELEASE = "thermal_release"

_EVENT_KINDS = (ENGINE_FAIL, ENGINE_RECOVER, THERMAL_THROTTLE,
                THERMAL_RELEASE)


def _roll(profile: str, what: str, i: int, seed: int) -> float:
    """Deterministic uniform draw for one plan field (stable string key)."""
    return _unit_roll(f"fault:{profile}:{what}:{i}:{seed}")


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled hardware condition change.

    ``max_frequency_scale`` only accompanies ``thermal_throttle``: the
    ceiling on the DVFS ladder's ``frequency_scale`` the engine may run
    at while throttled.
    """

    time_s: float
    kind: str
    engine_index: int
    max_frequency_scale: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _EVENT_KINDS:
            raise ValueError(
                f"unknown fault event kind {self.kind!r}; "
                f"expected one of {_EVENT_KINDS}"
            )
        if self.time_s < 0:
            raise ValueError(f"fault event time must be >= 0, "
                             f"got {self.time_s}")
        if self.engine_index < 0:
            raise ValueError(
                f"engine_index must be >= 0, got {self.engine_index}"
            )
        if self.kind == THERMAL_THROTTLE:
            if self.max_frequency_scale is None:
                raise ValueError(
                    "thermal_throttle events need a max_frequency_scale"
                )
            if not 0.0 < self.max_frequency_scale:
                raise ValueError(
                    "max_frequency_scale must be > 0, got "
                    f"{self.max_frequency_scale}"
                )
        elif self.max_frequency_scale is not None:
            raise ValueError(
                f"{self.kind} events carry no max_frequency_scale"
            )

    def to_dict(self) -> dict:
        data = {
            "time_s": self.time_s,
            "kind": self.kind,
            "engine_index": self.engine_index,
        }
        if self.max_frequency_scale is not None:
            data["max_frequency_scale"] = self.max_frequency_scale
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        return cls(
            time_s=float(data["time_s"]),
            kind=str(data["kind"]),
            engine_index=int(data["engine_index"]),
            max_frequency_scale=(
                float(data["max_frequency_scale"])
                if data.get("max_frequency_scale") is not None
                else None
            ),
        )


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A seeded, serializable timeline of hardware-fault events.

    Deterministic: the same ``(profile, seed, num_engines, duration_s)``
    always produces the same plan, so fault schedules pin with golden
    checksums exactly like fault-free ones.

    ``retry_budget`` bounds how many times one request's killed work is
    requeued before it is abandoned as ``failed_faulted``; each retry
    backs off ``backoff_s * 2**attempt`` simulated seconds.
    """

    profile: str
    seed: int
    num_engines: int
    duration_s: float
    events: tuple[FaultEvent, ...]
    retry_budget: int = 2
    backoff_s: float = 0.002

    def __post_init__(self) -> None:
        if self.num_engines < 1:
            raise ValueError(
                f"num_engines must be >= 1, got {self.num_engines}"
            )
        if self.duration_s <= 0:
            raise ValueError(
                f"duration_s must be > 0, got {self.duration_s}"
            )
        if self.retry_budget < 0:
            raise ValueError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )
        if self.backoff_s <= 0:
            raise ValueError(
                f"backoff_s must be > 0, got {self.backoff_s}"
            )
        failed: set[int] = set()
        throttled: set[int] = set()
        for event in sorted(self.events,
                            key=lambda e: (e.time_s, e.engine_index)):
            if not 0 <= event.time_s < self.duration_s:
                raise ValueError(
                    f"fault event at t={event.time_s}s is outside the "
                    f"run window [0, {self.duration_s}s)"
                )
            if event.engine_index >= self.num_engines:
                raise ValueError(
                    f"fault event targets engine {event.engine_index} "
                    f"but the system has {self.num_engines} engine(s)"
                )
            if event.kind == ENGINE_FAIL:
                if event.engine_index in failed:
                    raise ValueError(
                        f"engine {event.engine_index} fails twice "
                        f"without recovering (t={event.time_s}s)"
                    )
                failed.add(event.engine_index)
                # The no-capacity veto: a window with every engine down
                # cannot place requeued work, so the run would stall
                # draining retries into a dead fleet.  Reject at
                # spec-compile time instead of mid-run.
                if len(failed) == self.num_engines:
                    raise ValueError(
                        f"fault plan {self.profile!r} (seed {self.seed}) "
                        f"fails all {self.num_engines} engine(s) "
                        f"simultaneously at t={event.time_s}s — no "
                        "capacity remains for requeued work; use a "
                        "system with more engines or a lighter fault "
                        "profile"
                    )
            elif event.kind == ENGINE_RECOVER:
                if event.engine_index not in failed:
                    raise ValueError(
                        f"engine {event.engine_index} recovers at "
                        f"t={event.time_s}s without a preceding failure"
                    )
                failed.discard(event.engine_index)
            elif event.kind == THERMAL_THROTTLE:
                if event.engine_index in throttled:
                    raise ValueError(
                        f"engine {event.engine_index} is throttled twice "
                        f"without a release (t={event.time_s}s)"
                    )
                throttled.add(event.engine_index)
            elif event.kind == THERMAL_RELEASE:
                if event.engine_index not in throttled:
                    raise ValueError(
                        f"engine {event.engine_index} thermal-releases at "
                        f"t={event.time_s}s without a preceding throttle"
                    )
                throttled.discard(event.engine_index)

    @property
    def has_thermal(self) -> bool:
        """Whether any event moves a DVFS ceiling (the run then prices
        the thermal clamp points and reads each engine's effective
        point)."""
        return any(e.kind in (THERMAL_THROTTLE, THERMAL_RELEASE)
                   for e in self.events)

    def to_dict(self) -> dict:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "num_engines": self.num_engines,
            "duration_s": self.duration_s,
            "retry_budget": self.retry_budget,
            "backoff_s": self.backoff_s,
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            profile=str(data["profile"]),
            seed=int(data["seed"]),
            num_engines=int(data["num_engines"]),
            duration_s=float(data["duration_s"]),
            events=tuple(
                FaultEvent.from_dict(e) for e in data.get("events", ())
            ),
            retry_budget=int(data.get("retry_budget", 2)),
            backoff_s=float(data.get("backoff_s", 0.002)),
        )


def _single_profile(num_engines: int, duration_s: float,
                    seed: int) -> tuple[FaultEvent, ...]:
    """One engine dies mid-run and recovers late: the canonical outage."""
    engine = int(_roll("single", "engine", 0, seed) * num_engines)
    engine = min(engine, num_engines - 1)
    fail_s = round(
        (0.30 + 0.20 * _roll("single", "fail", 0, seed)) * duration_s, 9
    )
    recover_s = round(
        (0.70 + 0.15 * _roll("single", "recover", 0, seed)) * duration_s, 9
    )
    return (
        FaultEvent(fail_s, ENGINE_FAIL, engine),
        FaultEvent(recover_s, ENGINE_RECOVER, engine),
    )


def _flaky_profile(num_engines: int, duration_s: float,
                   seed: int) -> tuple[FaultEvent, ...]:
    """Three short non-overlapping outages on varying engines.

    Outage ``i`` starts in ``[0.2 + 0.2i, 0.3 + 0.2i] * duration`` and
    lasts ``[0.03, 0.08] * duration``, so consecutive outages can never
    overlap (an outage ends by ``0.38 + 0.2i`` < the next start at
    ``0.4 + 0.2i``) — at most one engine is down at a time, keeping the
    plan valid on two-engine fleets.
    """
    events: list[FaultEvent] = []
    for i in range(3):
        engine = int(_roll("flaky", "engine", i, seed) * num_engines)
        engine = min(engine, num_engines - 1)
        start = round(
            (0.20 + 0.20 * i + 0.10 * _roll("flaky", "start", i, seed))
            * duration_s, 9,
        )
        length = round(
            (0.03 + 0.05 * _roll("flaky", "length", i, seed)) * duration_s, 9
        )
        end = round(min(start + length, duration_s * (1 - 1e-9)), 9)
        events.append(FaultEvent(start, ENGINE_FAIL, engine))
        events.append(FaultEvent(end, ENGINE_RECOVER, engine))
    return tuple(events)


def _thermal_profile(num_engines: int, duration_s: float,
                     seed: int) -> tuple[FaultEvent, ...]:
    """One engine hits a thermal ceiling mid-run and later cools off.

    The ceiling is drawn from the DVFS ladder's slow half ({0.5, 0.7}),
    so the clamp is always satisfiable by a real ladder point.
    """
    engine = int(_roll("thermal", "engine", 0, seed) * num_engines)
    engine = min(engine, num_engines - 1)
    cap = 0.5 if _roll("thermal", "cap", 0, seed) < 0.5 else 0.7
    throttle_s = round(
        (0.25 + 0.15 * _roll("thermal", "throttle", 0, seed)) * duration_s, 9
    )
    release_s = round(
        (0.65 + 0.15 * _roll("thermal", "release", 0, seed)) * duration_s, 9
    )
    return (
        FaultEvent(throttle_s, THERMAL_THROTTLE, engine,
                   max_frequency_scale=cap),
        FaultEvent(release_s, THERMAL_RELEASE, engine),
    )


_PROFILE_BUILDERS = {
    "single": _single_profile,
    "flaky": _flaky_profile,
    "thermal": _thermal_profile,
}


def make_fault_plan(
    profile: str,
    num_engines: int,
    duration_s: float,
    seed: int = 0,
) -> FaultPlan | None:
    """Build the seeded plan for ``profile``; ``None`` for ``"none"``.

    ``None`` means *no plan object at all*: the event loop installs no
    fault machinery and runs the bit-identical historical path.
    """
    if profile == "none":
        return None
    try:
        builder = _PROFILE_BUILDERS[profile]
    except KeyError:
        raise ValueError(
            f"unknown fault profile {profile!r}; "
            f"expected one of {FAULT_PROFILES}"
        ) from None
    return FaultPlan(
        profile=profile,
        seed=seed,
        num_engines=num_engines,
        duration_s=duration_s,
        events=builder(num_engines, duration_s, seed),
    )


@dataclass(frozen=True, slots=True)
class FaultAction:
    """One recovery-machinery decision, stamped on per-session results.

    Kinds: ``kill`` (in-flight work aborted by an engine failure),
    ``retry_scheduled`` (backoff timer armed), ``requeued`` (the killed
    work re-entered the waiting queue), ``superseded`` (a fresher frame
    of the same model was already waiting, so the stale retry was
    abandoned under the freshness policy), ``session_gone`` (the session
    departed or changed phase before the retry fired) and ``exhausted``
    (retry budget spent).
    """

    time_s: float
    kind: str
    engine_index: int
    request_id: int
    model_code: str
    attempt: int = 0


@dataclass(slots=True)
class FaultRecord:
    """Per-session resilience stamp: what the fault plan did to it.

    ``killed``, ``recovered`` and ``lost`` count requests: ``killed``
    the requests killed at least once, each of which ends ``recovered``
    (completed on a surviving engine) or ``lost``, so ``killed ==
    recovered + lost``.  ``retries`` counts retry events (one request
    may retry more than once), and ``actions`` keeps every kill.
    ``recovery_latencies_s`` entries measure first-kill-to-completion per
    request that was killed by a failure and still completed — the
    user-visible cost of riding out an outage.
    """

    profile: str
    killed: int = 0
    retries: int = 0
    lost: int = 0
    recovered: int = 0
    recovery_latencies_s: list[float] = field(default_factory=list)
    actions: list[FaultAction] = field(default_factory=list)

    @property
    def mean_recovery_latency_s(self) -> float | None:
        if not self.recovery_latencies_s:
            return None
        return ordered_sum(self.recovery_latencies_s) / len(
            self.recovery_latencies_s
        )
