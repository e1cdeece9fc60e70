"""Declarative run descriptions: the serializable front door.

A :class:`RunSpec` is a frozen, JSON-round-trippable description of one
benchmark run — scenario(s) x system x scheduler x sessions x
granularity x duration/seed/score knobs.  Every front end (the Python
API, the ``xrbench`` CLI, the eval figure drivers, benchmarks, and any
future distributed worker) compiles down to a spec and hands it to
:func:`repro.api.execute`; nothing else constructs simulators directly.

A :class:`Sweep` expands a cartesian grid of field values over a base
spec into a list of specs — the serializable form of "13 accelerators x
7 scenarios".  :class:`repro.api.Experiment` executes such lists.

All names inside a spec (scenario, accelerator, scheduler, score preset)
resolve through :mod:`repro.registry`, so constructing a spec validates
them eagerly with did-you-mean errors, and third-party registrations are
usable from JSON without code changes.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import warnings
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro import registry
from repro.core.config import DEFAULT_DURATION_S

__all__ = [
    "ADMISSION_POLICIES",
    "DVFS_POLICIES",
    "FAULT_PROFILES",
    "RunSpec",
    "Sweep",
]

#: Dispatch granularities (mirrors ``repro.runtime.GRANULARITIES``
#: without importing the runtime at spec-construction time).
_GRANULARITIES = ("model", "segment")

#: Upper bound of the churn knob (mirrors ``repro.workload.MAX_CHURN``):
#: arrivals and departures each fray over ``churn * duration`` seconds,
#: and past one half the two bands would overlap.
_MAX_CHURN = 0.5

#: Runtime DVFS governor policies (mirrors
#: ``repro.runtime.DVFS_POLICIES`` without importing the runtime at
#: spec-construction time; a test pins the two — and the JSON-schema
#: enum — to each other).  Public: the CLI and benchmarks read their
#: ``--dvfs`` choices from here.
DVFS_POLICIES = ("static", "slack", "race_to_idle")

#: QoE admission-control policies (mirrors
#: ``repro.runtime.ADMISSION_POLICIES`` without importing the runtime at
#: spec-construction time; a test pins the two — and the JSON-schema
#: enum — to each other).  Public: the CLI and benchmarks read their
#: ``--admission`` choices from here.
ADMISSION_POLICIES = ("none", "shed", "degrade")

#: Fault-injection profiles (mirrors
#: ``repro.runtime.FAULT_PROFILES`` without importing the runtime at
#: spec-construction time; a test pins the two — and the JSON-schema
#: enum — to each other).  Public: the CLI and benchmarks read their
#: ``--faults`` choices from here.
FAULT_PROFILES = ("none", "single", "flaky", "thermal")


@dataclass(frozen=True)
class RunSpec:
    """One benchmark run, declaratively.

    ``scenario`` is a registered scenario name, a tuple of per-session
    names (which fixes the session count), or ``None`` for a
    ``suite=True`` spec.  All other fields are plain JSON scalars; the
    whole spec round-trips through :meth:`to_dict`/:meth:`from_dict` and
    :meth:`to_json`/:meth:`from_json` without loss.
    """

    scenario: str | tuple[str, ...] | None = None
    accelerator: str = "J"
    pes: int = 4096
    scheduler: str = "latency_greedy"
    suite: bool = False
    sessions: int = 1
    granularity: str = "model"
    segments_per_model: int = 2
    duration_s: float = DEFAULT_DURATION_S
    seed: int = 0
    frame_loss: float = 0.0
    score_preset: str = "default"
    #: Session-churn intensity: arrivals spread over the first
    #: ``churn * duration_s`` seconds and departures over the last, via
    #: the deterministic plan in :func:`repro.workload.churn_windows`.
    #: 0 (the default) is the static all-alive case.
    churn: float = 0.0
    #: Deadline-aware segment preemption: at segment boundaries the
    #: scheduler may displace a resuming segment chain with more urgent
    #: waiting work.  Requires ``granularity="segment"`` (the only place
    #: preemption points exist) and a policy that implements the
    #: ``should_preempt`` hook (edf, rate_monotonic).
    preemptive: bool = False
    #: Runtime DVFS governor: ``"static"`` (the default — every dispatch
    #: at the engine's configured point, bit-identical to the historical
    #: runtime), ``"slack"`` (spend deadline slack on slower, cheaper
    #: operating points per dispatch) or ``"race_to_idle"`` (always the
    #: fastest ladder point).
    dvfs_policy: str = "static"
    #: QoE admission control: ``"none"`` (the default — open loop,
    #: bit-identical to the historical runtime), ``"shed"``
    #: (reject/drop lowest-priority sessions under overload) or
    #: ``"degrade"`` (switch struggling sessions' models to cheaper
    #: variants mid-run, driven by the observed deadline-miss EWMA).
    admission: str = "none"
    #: Fault injection: ``"none"`` (the default — no fault machinery,
    #: bit-identical to the historical runtime), ``"single"`` (one
    #: engine dies mid-run and recovers late), ``"flaky"`` (three short
    #: outages on varying engines) or ``"thermal"`` (one engine hits a
    #: DVFS ceiling mid-run and later cools off).  The event timeline is
    #: deterministic from ``(faults, seed)`` and the plan is compiled —
    #: and capacity-validated — at spec construction.
    faults: str = "none"

    def __post_init__(self) -> None:
        scenario = self.scenario
        if isinstance(scenario, list):
            scenario = tuple(scenario)
            object.__setattr__(self, "scenario", scenario)
        if self.suite:
            if scenario is not None:
                raise ValueError(
                    "suite specs run the full scenario suite; "
                    f"drop scenario={scenario!r} or set suite=False"
                )
            # The suite runs each scenario as one session with
            # whole-model dispatch; accepting either field would be a
            # silent no-op.
            for name, default in (("sessions", 1), ("granularity", "model")):
                value = getattr(self, name)
                if value != default:
                    raise ValueError(
                        f"suite specs run each scenario as one session "
                        f"with whole-model dispatch; {name}={value!r} "
                        f"would be ignored, drop it or set suite=False"
                    )
        else:
            if scenario is None:
                raise ValueError(
                    "a scenario name (or tuple of names) is required "
                    "unless suite=True"
                )
        if isinstance(scenario, tuple):
            if not scenario:
                raise ValueError("scenario tuple must not be empty")
            if self.sessions == 1:
                object.__setattr__(self, "sessions", len(scenario))
            elif self.sessions != len(scenario):
                raise ValueError(
                    f"sessions={self.sessions} contradicts the "
                    f"{len(scenario)} per-session scenario names"
                )
        if self.sessions < 1:
            raise ValueError(f"sessions must be >= 1, got {self.sessions}")
        if self.pes < 1:
            raise ValueError(f"pes must be >= 1, got {self.pes}")
        if self.granularity not in _GRANULARITIES:
            raise ValueError(
                f"granularity must be one of {_GRANULARITIES}, "
                f"got {self.granularity!r}"
            )
        if self.segments_per_model < 1:
            raise ValueError(
                f"segments_per_model must be >= 1, "
                f"got {self.segments_per_model}"
            )
        if self.duration_s <= 0:
            raise ValueError(
                f"duration_s must be > 0, got {self.duration_s}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.frame_loss < 1.0:
            raise ValueError(
                f"frame_loss must be in [0, 1), got {self.frame_loss}"
            )
        if not 0.0 <= self.churn <= _MAX_CHURN:
            raise ValueError(
                f"churn must be in [0, {_MAX_CHURN}], got {self.churn}"
            )
        if self.dvfs_policy not in DVFS_POLICIES:
            raise ValueError(
                f"dvfs_policy must be one of {DVFS_POLICIES}, "
                f"got {self.dvfs_policy!r}"
            )
        if self.admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"admission must be one of {ADMISSION_POLICIES}, "
                f"got {self.admission!r}"
            )
        if self.faults not in FAULT_PROFILES:
            raise ValueError(
                f"faults must be one of {FAULT_PROFILES}, "
                f"got {self.faults!r}"
            )
        # Resolve every name through the registries so typos fail at
        # construction time with did-you-mean errors, not mid-run.
        for name in self.scenario_names():
            registry.scenarios.get(name)
        scheduler_cls = registry.schedulers.get(self.scheduler)
        accelerator_factory = registry.accelerators.get(self.accelerator)
        registry.score_presets.get(self.score_preset)
        if self.faults != "none":
            # Compile the seeded fault plan now: a profile whose outage
            # windows would fail every engine of this accelerator
            # simultaneously (e.g. "single" on a one-engine system) is
            # rejected here, at spec-compile time, with the plan's
            # no-capacity error instead of stalling mid-run.  Lazy
            # import keeps the runtime off the spec module's import
            # path.
            from repro.runtime.faults import make_fault_plan

            system = accelerator_factory(self.pes)
            make_fault_plan(
                self.faults, system.num_subs, self.duration_s,
                seed=self.seed,
            )
        if self.preemptive:
            # Preemption only ever acts at segment boundaries; accepting
            # it elsewhere would be a silent no-op.
            if self.suite or self.granularity != "segment":
                raise ValueError(
                    "preemptive=True only acts at segment boundaries; "
                    "set granularity='segment' (and drop suite=True)"
                )
            if not callable(
                getattr(scheduler_cls, "should_preempt", None)
            ):
                raise ValueError(
                    f"preemptive=True needs a scheduler with a "
                    f"should_preempt hook; {self.scheduler!r} has none "
                    f"(edf and rate_monotonic do)"
                )

    # -- derived views --------------------------------------------------------

    def scenario_names(self) -> tuple[str, ...]:
        """The distinct scenario names this spec mentions (empty for suite)."""
        if self.scenario is None:
            return ()
        if isinstance(self.scenario, tuple):
            return self.scenario
        return (self.scenario,)

    @property
    def mode(self) -> str:
        """The shape of the report :func:`repro.api.execute` returns.

        ``"suite"`` -> :class:`~repro.core.BenchmarkReport`;
        ``"sessions"`` -> :class:`~repro.core.MultiSessionReport`;
        ``"single"`` -> :class:`~repro.core.ScenarioReport`.  Every
        mode runs through the same runner, so the mode changes only
        what is reported: a spec that sets anything a plain
        one-scenario run does not is reported as a session group.
        """
        if self.suite:
            return "suite"
        if (
            isinstance(self.scenario, tuple)
            or self.sessions > 1
            or self.granularity != "model"  # includes every preemptive spec
            or self.churn > 0
            or self.dvfs_policy != "static"
            or self.admission != "none"
            or self.faults != "none"
        ):
            return "sessions"
        return "single"

    def describe(self) -> str:
        """One-line human-readable label (used by progress sinks)."""
        if self.suite:
            what = "suite"
        elif isinstance(self.scenario, tuple):
            what = "+".join(self.scenario)
        else:
            what = self.scenario
        extra = ""
        if self.sessions > 1:
            extra += f" x{self.sessions}"
        if self.granularity != "model":
            extra += f" [{self.granularity}]"
        if self.churn > 0:
            extra += f" churn={self.churn:g}"
        if self.preemptive:
            extra += " preemptive"
        if self.dvfs_policy != "static":
            extra += f" dvfs={self.dvfs_policy}"
        if self.admission != "none":
            extra += f" admission={self.admission}"
        if self.faults != "none":
            extra += f" faults={self.faults}"
        return (
            f"{what}{extra} on {self.accelerator}@{self.pes}PE "
            f"({self.scheduler}, {self.duration_s}s, seed {self.seed})"
        )

    def replace(self, **changes: Any) -> "RunSpec":
        """A copy with fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def for_suite(cls, accelerator: str = "J", **kwargs: Any) -> "RunSpec":
        """A full seven-scenario suite spec."""
        return cls(suite=True, accelerator=accelerator, **kwargs)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form: JSON scalars only, field order preserved."""
        out: dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output (strict keys)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown RunSpec fields {unknown}; known: {sorted(known)}"
            )
        return cls(**dict(data))

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class Sweep:
    """A cartesian grid of :class:`RunSpec` variations over a base spec.

    ``grid`` maps RunSpec field names to the values to sweep, e.g.::

        Sweep(
            base=RunSpec(scenario="ar_gaming"),
            grid={"scenario": ("ar_gaming", "vr_gaming"),
                  "accelerator": ("A", "J")},
        )

    :meth:`expand` yields one validated spec per grid point, varying the
    *last* grid field fastest (``itertools.product`` order), so sweeps
    are deterministic and resumable by index.
    """

    base: RunSpec
    grid: Any = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        pairs = tuple(
            (name, tuple(values)) for name, values in dict(self.grid).items()
        )
        known = {f.name for f in dataclasses.fields(RunSpec)}
        for name, values in pairs:
            if name not in known:
                raise ValueError(
                    f"grid field {name!r} is not a RunSpec field; "
                    f"known: {sorted(known)}"
                )
            if not values:
                raise ValueError(f"grid field {name!r} has no values")
        object.__setattr__(self, "grid", pairs)

    def __len__(self) -> int:
        total = 1
        for _, values in self.grid:
            total *= len(values)
        return total

    def expand(self) -> list[RunSpec]:
        """All *distinct* grid points as specs, first occurrence kept.

        Overlapping axis values (``{"seed": (0, 0, 1)}``, or two axes
        that collapse to the same spec) would otherwise execute — and
        plan-cache — identical cells repeatedly; duplicates are dropped
        with a :class:`UserWarning` naming the count.  ``len(sweep)``
        still counts raw grid points.
        """
        if not self.grid:
            return [self.base]
        names = [name for name, _ in self.grid]
        out: list[RunSpec] = []
        seen: set[RunSpec] = set()
        duplicates = 0
        for combo in itertools.product(*(values for _, values in self.grid)):
            spec = self.base.replace(**dict(zip(names, combo)))
            if spec in seen:
                duplicates += 1
                continue
            seen.add(spec)
            out.append(spec)
        if duplicates:
            warnings.warn(
                f"sweep grid has overlapping axis values: dropped "
                f"{duplicates} duplicate cell(s) of {len(self)} "
                f"grid points",
                stacklevel=2,
            )
        return out

    def __iter__(self) -> Iterable[RunSpec]:
        return iter(self.expand())

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "base": self.base.to_dict(),
            "grid": {
                name: list(values) for name, values in self.grid
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Sweep":
        return cls(
            base=RunSpec.from_dict(data["base"]),
            grid=data.get("grid", {}),
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Sweep":
        return cls.from_dict(json.loads(text))
