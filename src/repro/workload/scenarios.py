"""Usage scenarios (Table 2 / Definition 4).

A usage scenario assigns a target processing rate to each active unit
model and records the inter-model dependencies:

* **data** dependencies (ES -> GE): the downstream inference consumes the
  upstream's output for the same frame, so it can only start after the
  upstream finishes.  With ``probability < 1`` the downstream is only
  triggered when the upstream output warrants it (Figure 7 sweeps this).
* **control** dependencies (KD -> SR): the downstream is *spawned* only
  when the upstream detects its trigger (a keyword), with a per-scenario
  probability — 0.2 for the outdoor scenarios, 0.5 for AR assistant
  (Section 4.1, "Modeling Dynamic Cascading").

The seven scenario variants reconstruct Table 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.registry import scenarios as SCENARIO_REGISTRY

from .models import UNIT_MODELS, UnitModel

__all__ = [
    "DependencyKind",
    "Dependency",
    "ScenarioModel",
    "UsageScenario",
    "SCENARIOS",
    "SCENARIO_ORDER",
    "get_scenario",
    "register_scenario",
    "benchmark_suite",
]


class DependencyKind(enum.Enum):
    """Data vs. control dependency (Table 2's D / C annotations)."""

    DATA = "data"
    CONTROL = "control"


@dataclass(frozen=True)
class Dependency:
    """An edge ``upstream -> downstream`` in the scenario's model graph.

    ``probability`` is the chance that a completed upstream inference
    triggers the downstream model for the same frame.
    """

    upstream: str
    downstream: str
    kind: DependencyKind
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.upstream == self.downstream:
            raise ValueError(f"self-dependency on {self.upstream!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )


@dataclass(frozen=True)
class ScenarioModel:
    """One active model within a scenario: the model plus its target FPS.

    ``aux`` marks helper stages that are scheduled and simulated but not
    scored as user-facing models — e.g. the intermediate segments of a
    Herald-style split model, whose user-visible result is the *final*
    segment's completion.
    """

    model: UnitModel
    target_fps: float
    aux: bool = False

    def __post_init__(self) -> None:
        if self.target_fps <= 0:
            raise ValueError(
                f"target fps must be > 0, got {self.target_fps} "
                f"(deactivated models are simply omitted from the scenario)"
            )

    @property
    def code(self) -> str:
        return self.model.code

    @property
    def period_s(self) -> float:
        return 1.0 / self.target_fps


@dataclass(frozen=True)
class UsageScenario:
    """A named scenario: active models, rates and dependencies (``theta``)."""

    name: str
    description: str
    models: tuple[ScenarioModel, ...]
    dependencies: tuple[Dependency, ...] = ()

    def __post_init__(self) -> None:
        codes = [sm.code for sm in self.models]
        if len(set(codes)) != len(codes):
            raise ValueError(f"duplicate models in scenario {self.name!r}")
        code_set = set(codes)
        for dep in self.dependencies:
            for end in (dep.upstream, dep.downstream):
                if end not in code_set:
                    raise ValueError(
                        f"dependency endpoint {end!r} not active in "
                        f"scenario {self.name!r}"
                    )
        # Reject dependency cycles (a chain is expected in practice).
        edges = {(d.upstream, d.downstream) for d in self.dependencies}
        visiting: set[str] = set()
        done: set[str] = set()

        def visit(node: str) -> None:
            if node in done:
                return
            if node in visiting:
                raise ValueError(
                    f"dependency cycle involving {node!r} in {self.name!r}"
                )
            visiting.add(node)
            for u, v in edges:
                if u == node:
                    visit(v)
            visiting.discard(node)
            done.add(node)

        for code in code_set:
            visit(code)

    # -- queries -------------------------------------------------------------

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(sm.code for sm in self.models)

    @property
    def num_models(self) -> int:
        return len(self.models)

    def get(self, code: str) -> ScenarioModel:
        for sm in self.models:
            if sm.code == code:
                return sm
        raise KeyError(f"model {code!r} not active in scenario {self.name!r}")

    def fps_of(self, code: str) -> float:
        return self.get(code).target_fps

    def upstream_of(self, code: str) -> Dependency | None:
        """The dependency feeding ``code``, if any (at most one in XRBench)."""
        feeds = [d for d in self.dependencies if d.downstream == code]
        if len(feeds) > 1:
            raise ValueError(
                f"model {code!r} has multiple upstream deps in {self.name!r}"
            )
        return feeds[0] if feeds else None

    def root_models(self) -> list[ScenarioModel]:
        """Models directly driven by sensor frames (no upstream model)."""
        downstreams = {d.downstream for d in self.dependencies}
        return [sm for sm in self.models if sm.code not in downstreams]

    def offered_load_macs_per_s(self) -> float:
        """Aggregate compute demand of the scenario (MACs per second)."""
        return sum(
            sm.model.graph.total_macs * sm.target_fps for sm in self.models
        )

    def with_dependency_probability(
        self, upstream: str, downstream: str, probability: float
    ) -> "UsageScenario":
        """A copy with one dependency's trigger probability replaced.

        Used by the Figure 7 sweep (ES -> GE cascade probability).
        """
        new_deps = []
        found = False
        for dep in self.dependencies:
            if dep.upstream == upstream and dep.downstream == downstream:
                new_deps.append(replace(dep, probability=probability))
                found = True
            else:
                new_deps.append(dep)
        if not found:
            raise KeyError(
                f"no dependency {upstream} -> {downstream} in {self.name!r}"
            )
        return replace(self, dependencies=tuple(new_deps))


def _scenario(
    name: str,
    description: str,
    fps: dict[str, float],
    deps: tuple[Dependency, ...] = (),
) -> UsageScenario:
    models = tuple(
        ScenarioModel(UNIT_MODELS[code], rate) for code, rate in fps.items()
    )
    return UsageScenario(name, description, models, deps)


def _eye_dep(p: float = 1.0) -> Dependency:
    return Dependency("ES", "GE", DependencyKind.DATA, p)


def _speech_dep(p: float) -> Dependency:
    return Dependency("KD", "SR", DependencyKind.CONTROL, p)


def register_scenario(
    scenario: UsageScenario, *, overwrite: bool = False
) -> UsageScenario:
    """Name-address a scenario for ``RunSpec``, the CLI and ``execute()``.

    Registered scenarios resolve through :func:`get_scenario` exactly
    like the seven built-ins, so third-party workloads plug into every
    front end without touching this module.
    """
    return SCENARIO_REGISTRY.register(
        scenario.name, scenario, overwrite=overwrite
    )


for _builtin in (
        _scenario(
            "social_interaction_a",
            "AR messaging with AR object rendering",
            {"HT": 30, "ES": 60, "GE": 60, "DR": 30},
            (_eye_dep(),),
        ),
        _scenario(
            "social_interaction_b",
            "In-person interaction with AR glasses",
            {"ES": 60, "GE": 60, "DR": 30},
            (_eye_dep(),),
        ),
        _scenario(
            "outdoor_activity_a",
            "Hiking with smart photo capture",
            {"KD": 3, "SR": 3, "OD": 10, "DE": 30},
            (_speech_dep(0.2),),
        ),
        _scenario(
            "outdoor_activity_b",
            "Rest during hike",
            {"HT": 30, "KD": 3, "SR": 3},
            (_speech_dep(0.2),),
        ),
        _scenario(
            "ar_assistant",
            "Urban walk with informative AR objects",
            {"KD": 3, "SR": 3, "SS": 10, "OD": 10, "DE": 30, "DR": 30},
            (_speech_dep(0.5),),
        ),
        _scenario(
            "ar_gaming",
            "Gaming with AR object",
            {"HT": 45, "DE": 30, "PD": 30},
        ),
        _scenario(
            "vr_gaming",
            "Highly-interactive immersive VR gaming",
            {"HT": 45, "ES": 60, "GE": 60},
            (_eye_dep(),),
        ),
):
    register_scenario(_builtin)

#: Live view of the scenario registry (built-ins plus any registered
#: third-party scenarios), kept for the original dict-style API.
SCENARIOS: dict[str, UsageScenario] = SCENARIO_REGISTRY.backing

#: Presentation order used by Figure 5 (a)-(g).
SCENARIO_ORDER: tuple[str, ...] = (
    "social_interaction_a",
    "social_interaction_b",
    "outdoor_activity_a",
    "outdoor_activity_b",
    "ar_assistant",
    "ar_gaming",
    "vr_gaming",
)


def get_scenario(name: str) -> UsageScenario:
    """Look up a scenario by name (built-in or registered)."""
    return SCENARIO_REGISTRY.get(name)


def benchmark_suite() -> list[UsageScenario]:
    """The full suite ``Omega`` in Figure 5's presentation order."""
    return [SCENARIOS[name] for name in SCENARIO_ORDER]
