"""The compilation layer: ``compile_plan(spec) -> DispatchPlan``.

A :class:`DispatchPlan` is the frozen, JSON-round-trippable artifact
between "what the user asked for" (a :class:`~repro.api.RunSpec`) and
"what the event loop does" (:mod:`repro.runtime.multisim`).  It holds
the *fully resolved* run:

* the session table — per-session scenario, seed, frame loss and the
  churn-derived ``(arrival_s, departure_s)`` lifetime window, plus the
  resolved ``(start, stop, scenario)`` phase timeline;
* the per-model segment-chain table (which models split under segment
  granularity, and into exactly which dispatch codes);
* the compiled :class:`~repro.runtime.faults.FaultPlan` event schedule;
* the DVFS ladder and policy bindings, the admission policy and its
  resolved control-tick schedule;
* a sha256 ``fingerprint`` over the whole artifact, and a
  ``workload_fingerprint`` over the spec *minus its seed*, which the
  cells of a seed grid share.

Planning is pure: compiling never touches a cost table or an engine.
Each table comes from the runtime helper the run reads it from
(:func:`~repro.runtime.segmentation.chain_codes`,
:func:`~repro.runtime.admission.control_ticks`, the governor's own
ladder), and the plan is the one producer of a run's fault schedule.
The executor (:func:`repro.api.execute_plan`) consumes the plan —
session windows and fault events are *read*, not re-derived, and the
segment-chain codes must equal the split the executor derives — and
:func:`repro.api.execute` is exactly compile-then-execute, pinned
bit-identical by the golden schedule checksums and the plan digests.

``schema/dispatchplan.schema.json`` validates the serialized form;
``xrbench plan`` emits it and ``xrbench plan --diff`` renders
:func:`diff_plans` between two artifacts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.costmodel import DEFAULT_DVFS_POINTS, CostTable
from repro.hardware import AcceleratorSystem, build_accelerator
from repro.runtime.admission import control_ticks, make_admission
from repro.runtime.faults import FaultPlan, make_fault_plan
from repro.runtime.governor import make_governor
from repro.runtime.segmentation import chain_codes, split_models
from repro.workload import benchmark_suite, churn_windows, get_scenario

from .spec import RunSpec

__all__ = [
    "PLAN_VERSION",
    "DispatchPlan",
    "PlanSession",
    "compile_plan",
    "diff_plans",
    "estimate_plan",
    "workload_fingerprint",
]

#: Bumped whenever the serialized plan layout changes incompatibly.
PLAN_VERSION = 1


def _canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _sha256(data: Any) -> str:
    return hashlib.sha256(_canonical(data).encode("utf-8")).hexdigest()


def workload_fingerprint(spec: RunSpec) -> str:
    """sha256 over the spec *minus its seed*.

    Two specs that differ only in ``seed`` describe the same workload,
    so the cells of a seed grid share this fingerprint while each keeps
    its own plan fingerprint.
    """
    data = spec.to_dict()
    data.pop("seed", None)
    return _sha256(data)


@dataclass(frozen=True)
class PlanSession:
    """One resolved session row of the plan's scenario/session table.

    ``timeline`` is the session's active life as ``(start_s, stop_s,
    scenario)`` triples — arrival/departure clipped to the streamed
    duration, one window per phase (specs express a single phase today;
    the shape already covers mid-run scenario swaps).
    """

    session_id: int
    scenario: str
    seed: int
    frame_loss: float = 0.0
    arrival_s: float = 0.0
    departure_s: float | None = None
    timeline: tuple[tuple[float, float, str], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "session_id": self.session_id,
            "scenario": self.scenario,
            "seed": self.seed,
            "frame_loss": self.frame_loss,
            "arrival_s": self.arrival_s,
            "departure_s": self.departure_s,
            "timeline": [list(w) for w in self.timeline],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlanSession":
        return cls(
            session_id=int(data["session_id"]),
            scenario=str(data["scenario"]),
            seed=int(data["seed"]),
            frame_loss=float(data.get("frame_loss", 0.0)),
            arrival_s=float(data.get("arrival_s", 0.0)),
            departure_s=(
                float(data["departure_s"])
                if data.get("departure_s") is not None
                else None
            ),
            timeline=tuple(
                (float(w[0]), float(w[1]), str(w[2]))
                for w in data.get("timeline", ())
            ),
        )


@dataclass(frozen=True)
class DispatchPlan:
    """A fully resolved run, ready for the executor and for inspection.

    Everything the event loop needs that is derivable from the spec is
    resolved here once: session lifetimes, fault events, segment-chain
    codes, policy bindings.  The plan round-trips through
    :meth:`to_json`/:meth:`from_json` without loss, and
    :func:`repro.api.execute_plan` replays a round-tripped plan to
    bit-identical results.
    """

    spec: RunSpec
    mode: str
    accelerator: str
    pes: int
    num_engines: int
    scheduler: str
    preemptive: bool
    granularity: str
    segments_per_model: int
    duration_s: float
    seed: int
    frame_loss: float
    score_preset: str
    churn: float
    sessions: tuple[PlanSession, ...]
    #: ``(model_code, (piece codes...))`` pairs, in dispatch-planning
    #: order.  Empty under model granularity; models that cannot split
    #: are simply absent (they run whole).
    segment_chains: tuple[tuple[str, tuple[str, ...]], ...] = ()
    #: The compiled :class:`~repro.runtime.faults.FaultPlan` as plain
    #: data, or ``None`` for the fault-free run.
    faults: dict[str, Any] | None = None
    admission: str = "none"
    #: Seconds between admission control ticks (``None`` without a
    #: controller), and the resolved tick schedule the event loop posts.
    admission_period_s: float | None = None
    control_ticks_s: tuple[float, ...] = ()
    dvfs_policy: str = "static"
    #: The operating-point ladder the run's governor (and thermal
    #: clamps) choose from, as ``{"name", "frequency_scale"}`` rows.
    dvfs_ladder: tuple[dict[str, Any], ...] = ()
    version: int = PLAN_VERSION
    fingerprint: str = field(default="", compare=False)
    workload_fingerprint: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.fingerprint:
            object.__setattr__(self, "fingerprint", _sha256(self._content()))
        if not self.workload_fingerprint:
            object.__setattr__(
                self, "workload_fingerprint", workload_fingerprint(self.spec)
            )

    def _content(self) -> dict[str, Any]:
        """The fingerprinted payload: everything but the fingerprints."""
        data = self.to_dict()
        data.pop("fingerprint", None)
        data.pop("workload_fingerprint", None)
        return data

    # -- derived views --------------------------------------------------------

    def chain_codes(self) -> dict[str, tuple[str, ...]]:
        """The segment-chain table as a mapping (executor input)."""
        return dict(self.segment_chains)

    def fault_plan(self) -> FaultPlan | None:
        """The plan's :class:`~repro.runtime.faults.FaultPlan`, or None."""
        if self.faults is None:
            return None
        return FaultPlan.from_dict(self.faults)

    def describe(self) -> str:
        return self.spec.describe()

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "spec": self.spec.to_dict(),
            "mode": self.mode,
            "accelerator": self.accelerator,
            "pes": self.pes,
            "num_engines": self.num_engines,
            "scheduler": self.scheduler,
            "preemptive": self.preemptive,
            "granularity": self.granularity,
            "segments_per_model": self.segments_per_model,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "frame_loss": self.frame_loss,
            "score_preset": self.score_preset,
            "churn": self.churn,
            "sessions": [s.to_dict() for s in self.sessions],
            "segment_chains": {
                code: list(codes) for code, codes in self.segment_chains
            },
            "faults": self.faults,
            "admission": self.admission,
            "admission_period_s": self.admission_period_s,
            "control_ticks_s": list(self.control_ticks_s),
            "dvfs_policy": self.dvfs_policy,
            "dvfs_ladder": [dict(p) for p in self.dvfs_ladder],
            "fingerprint": self.fingerprint,
            "workload_fingerprint": self.workload_fingerprint,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DispatchPlan":
        version = int(data.get("version", PLAN_VERSION))
        if version != PLAN_VERSION:
            raise ValueError(
                f"unsupported DispatchPlan version {version}; "
                f"this build reads version {PLAN_VERSION}"
            )
        plan = cls(
            spec=RunSpec.from_dict(data["spec"]),
            mode=str(data["mode"]),
            accelerator=str(data["accelerator"]),
            pes=int(data["pes"]),
            num_engines=int(data["num_engines"]),
            scheduler=str(data["scheduler"]),
            preemptive=bool(data["preemptive"]),
            granularity=str(data["granularity"]),
            segments_per_model=int(data["segments_per_model"]),
            duration_s=float(data["duration_s"]),
            seed=int(data["seed"]),
            frame_loss=float(data.get("frame_loss", 0.0)),
            score_preset=str(data.get("score_preset", "default")),
            churn=float(data.get("churn", 0.0)),
            sessions=tuple(
                PlanSession.from_dict(s) for s in data.get("sessions", ())
            ),
            segment_chains=tuple(
                (str(code), tuple(str(c) for c in codes))
                for code, codes in dict(
                    data.get("segment_chains", {})
                ).items()
            ),
            faults=(
                dict(data["faults"])
                if data.get("faults") is not None
                else None
            ),
            admission=str(data.get("admission", "none")),
            admission_period_s=(
                float(data["admission_period_s"])
                if data.get("admission_period_s") is not None
                else None
            ),
            control_ticks_s=tuple(
                float(t) for t in data.get("control_ticks_s", ())
            ),
            dvfs_policy=str(data.get("dvfs_policy", "static")),
            dvfs_ladder=tuple(
                dict(p) for p in data.get("dvfs_ladder", ())
            ),
            version=version,
        )
        recorded = data.get("fingerprint")
        if recorded and recorded != plan.fingerprint:
            raise ValueError(
                f"plan fingerprint mismatch: the artifact records "
                f"{recorded[:12]}… but its content hashes to "
                f"{plan.fingerprint[:12]}… — the file was edited after "
                f"compilation"
            )
        return plan

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "DispatchPlan":
        return cls.from_dict(json.loads(text))


def _session_rows(
    spec: RunSpec, names: tuple[str, ...]
) -> tuple[PlanSession, ...]:
    """The resolved session table of one group: consecutive seeds from
    ``spec.seed`` and the deterministic churn windows seeded by it.

    A single-mode spec is a one-name group without churn, and each
    suite scenario a one-name group of its own, whose row is the lone
    session (id 0) of that group.
    """
    windows = churn_windows(
        len(names), spec.duration_s, spec.churn, spec.seed
    )
    rows = []
    for i, (name, window) in enumerate(zip(names, windows)):
        end = spec.duration_s
        if window.departure_s is not None:
            end = min(window.departure_s, spec.duration_s)
        rows.append(PlanSession(
            session_id=i,
            scenario=name,
            seed=spec.seed + i,
            frame_loss=spec.frame_loss,
            arrival_s=window.arrival_s,
            departure_s=window.departure_s,
            timeline=((window.arrival_s, end, name),),
        ))
    return tuple(rows)


def compile_plan(
    spec: RunSpec,
    *,
    system: AcceleratorSystem | None = None,
) -> DispatchPlan:
    """Compile a spec into its fully resolved :class:`DispatchPlan`.

    Pure: resolves names, derives session windows, compiles the fault
    schedule and the segment-chain table — no cost-model analysis and
    no execution.  ``system`` substitutes a pre-built accelerator for
    the spec's named one (the same override :func:`repro.api.execute`
    accepts), which matters to the fault plan's engine count.  The
    chain codes, control ticks and DVFS ladder come from the runtime
    helpers the run itself reads them from.
    """
    if system is None:
        system = build_accelerator(spec.accelerator, spec.pes)
    mode = spec.mode
    if mode == "suite":
        rows = tuple(
            _session_rows(spec, (scenario.name,))[0]
            for scenario in benchmark_suite()
        )
    else:
        names = (
            spec.scenario
            if isinstance(spec.scenario, tuple)
            else (spec.scenario,) * spec.sessions
        )
        rows = _session_rows(spec, names)

    # Only segment granularity splits models (RunSpec rejects it for
    # suites and reports it as a session group); a model that cannot
    # split is absent and runs whole.
    chains: tuple[tuple[str, tuple[str, ...]], ...] = ()
    if spec.granularity == "segment":
        split = split_models(
            (get_scenario(row.scenario) for row in rows),
            spec.segments_per_model,
        )
        chains = tuple(chain_codes(split).items())

    fplan = make_fault_plan(
        spec.faults, system.num_subs, spec.duration_s, seed=spec.seed
    )

    controller = make_admission(spec.admission)
    admission_period: float | None = None
    ticks: tuple[float, ...] = ()
    if controller is not None:
        admission_period = controller.period_s
        ticks = control_ticks(controller.period_s, spec.duration_s)

    points = getattr(
        make_governor(spec.dvfs_policy), "points", DEFAULT_DVFS_POINTS
    )
    ladder = tuple(
        {"name": p.name, "frequency_scale": p.frequency_scale}
        for p in points
    )

    return DispatchPlan(
        spec=spec,
        mode=mode,
        accelerator=spec.accelerator,
        pes=spec.pes,
        num_engines=system.num_subs,
        scheduler=spec.scheduler,
        preemptive=spec.preemptive,
        granularity=spec.granularity,
        segments_per_model=spec.segments_per_model,
        duration_s=spec.duration_s,
        seed=spec.seed,
        frame_loss=spec.frame_loss,
        score_preset=spec.score_preset,
        churn=spec.churn,
        sessions=rows,
        segment_chains=chains,
        faults=fplan.to_dict() if fplan is not None else None,
        admission=spec.admission,
        admission_period_s=admission_period,
        control_ticks_s=ticks,
        dvfs_policy=spec.dvfs_policy,
        dvfs_ladder=ladder,
    )


# -- plan diffing -------------------------------------------------------------

_ABSENT = "<absent>"


def diff_plans(a: DispatchPlan, b: DispatchPlan) -> list[dict[str, Any]]:
    """Structured field-by-field differences between two plans.

    Returns ``{"path", "a", "b"}`` entries in depth-first key order —
    empty when the plans are identical.  Lists of unequal length are
    reported as one summary entry instead of element noise, so an A/B
    of two scheduler policies reads as a handful of lines, not a dump.
    """
    entries: list[dict[str, Any]] = []

    def walk(path: str, va: Any, vb: Any) -> None:
        if isinstance(va, dict) and isinstance(vb, dict):
            for key in sorted(set(va) | set(vb)):
                walk(
                    f"{path}.{key}" if path else str(key),
                    va.get(key, _ABSENT),
                    vb.get(key, _ABSENT),
                )
        elif isinstance(va, list) and isinstance(vb, list):
            if len(va) != len(vb):
                entries.append({
                    "path": path,
                    "a": f"<{len(va)} items>",
                    "b": f"<{len(vb)} items>",
                })
            else:
                for i, (xa, xb) in enumerate(zip(va, vb)):
                    walk(f"{path}[{i}]", xa, xb)
        elif va != vb:
            entries.append({"path": path, "a": va, "b": vb})

    walk("", a.to_dict(), b.to_dict())
    return entries


# -- pre-execution cost estimates ---------------------------------------------


def estimate_plan(
    plan: DispatchPlan,
    *,
    system: AcceleratorSystem | None = None,
) -> dict[str, Any]:
    """Cost/duration estimates for a compiled plan, before any CPU burns.

    Prices every planned session window through the cost store: each
    model's expected frame count (window x target FPS) times its
    cheapest-engine latency/energy at the nominal operating point.
    ``est_busy_engine_s`` is total engine-busy demand;
    ``est_makespan_s`` divides it across the fleet — a lower bound on
    simulated wall-clock, useful for ranking sweep cells, not a
    schedule.  The store is process-wide, so estimating many plans
    analyses each (model, engine shape) pair once.
    """
    if system is None:
        system = build_accelerator(plan.accelerator, plan.pes)
    costs = CostTable()
    expected_requests = 0
    busy_s = 0.0
    energy_mj = 0.0
    for row in plan.sessions:
        for start, stop, name in row.timeline:
            window = stop - start
            if window <= 0:
                continue
            for sm in get_scenario(name).models:
                frames = int(window * sm.target_fps)
                if frames <= 0:
                    continue
                best = min(
                    (
                        costs.cost(sm.code, sub.dataflow, sub.num_pes)
                        for sub in system.subs
                    ),
                    key=lambda c: c.latency_s,
                )
                expected_requests += frames
                busy_s += frames * best.latency_s
                energy_mj += frames * best.energy_mj
    return {
        "sessions": len(plan.sessions),
        "duration_s": plan.duration_s,
        "expected_requests": expected_requests,
        "est_busy_engine_s": round(busy_s, 9),
        "est_energy_mj": round(energy_mj, 6),
        "est_makespan_s": round(
            busy_s / max(plan.num_engines, 1), 9
        ),
    }
