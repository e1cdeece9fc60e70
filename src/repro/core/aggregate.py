"""Hierarchical score aggregation (Figure 4 / Definitions 14-16).

The scoring pipeline over a finished simulation:

    per-inference = RT x Energy x Accuracy          (completed frames)
    per-model     = mean(per-inference)             (0 if all dropped)
    per-scenario  = mean over models of per-model x QoE
    benchmark     = mean over scenarios of per-scenario

Dropped frames are excluded from the per-model mean — their cost is
charged through the QoE factor instead, exactly as Section 3.7 specifies.
The scenario-level unit-score *breakdowns* (the stacked bars of Figure 5)
are per-model means averaged across models, keeping them consistent with
the hierarchy.

Dynamic sessions (late arrival, early departure, mid-run phase changes)
need no special casing here because every denominator is *window-local*
by construction: ``spawned_frames`` counts only the frames streamed
while the session was online, so per-model QoE is normalised by the
session's **active** duration, not the full streamed duration — a tenant
online for half the run is not scored as if it dropped half its frames.
Duration-relative rates (utilization) normalise through
:attr:`~repro.runtime.SimulationResult.window_s` the same way.

Each O(n) aggregate is computed on its first read and then kept
(``functools.cached_property``): a model's per-model score and unit
means, and a scenario's scored models, overall score and breakdowns.
Export, the run database and the progress events each read a scenario's
``overall``, and without the cache each read would score every
inference again.  The caches are sound because every input is frozen: the score classes are
frozen dataclasses over tuples (a list argument is copied to one) of
frozen :class:`InferenceScore` objects, and ``dataclasses.replace``
builds a new object with empty caches.  So :class:`InferenceScore` must
stay frozen; its ``request`` is mutable, but no aggregate reads it.
Every float reduction adds left to right through
:func:`~repro.costmodel.analysis.ordered_sum`, so every interpreter
gives the same scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.costmodel.analysis import ordered_sum
from repro.runtime import MultiSessionResult, SimulationResult
from repro.workload import InferenceRequest

from .config import ScoreConfig
from .scores import (
    accuracy_score,
    energy_score,
    inference_score,
    qoe_score,
    realtime_score,
)

__all__ = [
    "InferenceScore",
    "ModelScore",
    "ScenarioScore",
    "score_simulation",
    "score_sessions",
]

#: The unit scores :meth:`ModelScore.mean_unit` averages.
_UNITS = ("rt", "energy", "accuracy")


@dataclass(frozen=True)
class InferenceScore:
    """Scored view of one completed inference."""

    request: InferenceRequest
    rt: float
    energy: float
    accuracy: float

    @property
    def overall(self) -> float:
        return inference_score(self.rt, self.energy, self.accuracy)


@dataclass(frozen=True)
class ModelScore:
    """Per-model aggregation within one scenario run."""

    model_code: str
    inference_scores: tuple[InferenceScore, ...]
    frames_streamed: int
    frames_executed: int
    frames_dropped: int
    missed_deadlines: int
    #: Helper stages (e.g. intermediate model segments) are simulated but
    #: excluded from user-facing aggregation.
    aux: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.inference_scores, list):
            object.__setattr__(
                self, "inference_scores", tuple(self.inference_scores)
            )

    @property
    def qoe(self) -> float:
        return qoe_score(self.frames_executed, self.frames_streamed)

    @cached_property
    def per_model(self) -> float:
        """Mean per-inference score; zero when every frame was dropped."""
        scores = self.inference_scores
        if not scores:
            return 0.0
        return ordered_sum(s.overall for s in scores) / len(scores)

    @property
    def contribution(self) -> float:
        """This model's term in the scenario score: per-model x QoE."""
        return self.per_model * self.qoe

    @cached_property
    def _unit_means(self) -> tuple[float, float, float]:
        """Mean RT, energy and accuracy score, in ``_UNITS`` order."""
        scores = self.inference_scores
        if not scores:
            return (0.0, 0.0, 0.0)
        n = len(scores)
        return (
            ordered_sum(s.rt for s in scores) / n,
            ordered_sum(s.energy for s in scores) / n,
            ordered_sum(s.accuracy for s in scores) / n,
        )

    def mean_unit(self, name: str) -> float:
        """Mean of one unit score ('rt' / 'energy' / 'accuracy')."""
        try:
            index = _UNITS.index(name)
        except ValueError:
            raise ValueError(
                f"unknown unit score {name!r}; expected one of "
                f"{', '.join(map(repr, _UNITS))}"
            ) from None
        return self._unit_means[index]


@dataclass(frozen=True)
class ScenarioScore:
    """Scenario-level aggregation (Definition 15) plus breakdowns."""

    scenario_name: str
    model_scores: tuple[ModelScore, ...]

    def __post_init__(self) -> None:
        if isinstance(self.model_scores, list):
            object.__setattr__(self, "model_scores", tuple(self.model_scores))
        if not self.model_scores:
            raise ValueError(
                f"scenario {self.scenario_name!r} scored with no models"
            )

    @cached_property
    def scored_models(self) -> tuple[ModelScore, ...]:
        """Models that were actually offered work during the run.

        A control-dependent model whose trigger never fired (e.g. SR when
        no keyword was uttered) streamed zero frames; it neither degraded
        nor improved the experience, so it is excluded from aggregation
        rather than counted as a zero.  Aux helper stages (intermediate
        segments of a split model) are likewise excluded: the final stage
        carries the user-visible deadline and QoE.
        """
        offered = tuple(
            m
            for m in self.model_scores
            if m.frames_streamed > 0 and not m.aux
        )
        return offered or self.model_scores

    @cached_property
    def overall(self) -> float:
        models = self.scored_models
        return ordered_sum(m.contribution for m in models) / len(models)

    def _mean_over_models(self, fn) -> float:
        models = self.scored_models
        return ordered_sum(fn(m) for m in models) / len(models)

    @cached_property
    def rt(self) -> float:
        return self._mean_over_models(lambda m: m.mean_unit("rt"))

    @cached_property
    def energy(self) -> float:
        return self._mean_over_models(lambda m: m.mean_unit("energy"))

    @cached_property
    def accuracy(self) -> float:
        return self._mean_over_models(lambda m: m.mean_unit("accuracy"))

    @cached_property
    def qoe(self) -> float:
        return self._mean_over_models(lambda m: m.qoe)

    @property
    def total_missed_deadlines(self) -> int:
        return sum(m.missed_deadlines for m in self.model_scores)

    @property
    def total_dropped(self) -> int:
        return sum(m.frames_dropped for m in self.model_scores)

    def model(self, code: str) -> ModelScore:
        for m in self.model_scores:
            if m.model_code == code:
                return m
        raise KeyError(
            f"model {code!r} not in scenario {self.scenario_name!r}"
        )


def benchmark_score(scenario_scores: list[ScenarioScore]) -> float:
    """Definition 16: mean of scenario scores across the suite."""
    if not scenario_scores:
        raise ValueError("benchmark score over an empty suite")
    return ordered_sum(s.overall for s in scenario_scores) / len(
        scenario_scores
    )


def score_simulation(
    result: SimulationResult,
    config: ScoreConfig | None = None,
    measured_quality: dict[str, float] | None = None,
) -> ScenarioScore:
    """Score one finished simulation.

    Args:
        result: the simulation outcome.
        config: scoring knobs (k, Enmax, epsilon); defaults apply.
        measured_quality: optional measured model-quality values keyed by
            task code.  Absent entries assume the model exactly meets its
            quality goal (accuracy score 1), matching the paper's
            evaluation where all models satisfy their accuracy targets.
    """
    cfg = config or ScoreConfig()
    measured_quality = measured_quality or {}
    # One pass over the request log partitions it per model — the same
    # (order-preserving) lists result.completed(code)/dropped(code) and
    # missed_deadlines(code) would each rebuild with a full scan per
    # model, which dominated post-run accounting at fleet scale.
    completed_by: dict[str, list] = {}
    dropped_by: dict[str, int] = {}
    missed_by: dict[str, int] = {}
    for request in result.requests:
        code = request.model_code
        if request.dropped:
            dropped_by[code] = dropped_by.get(code, 0) + 1
        elif request.end_time_s is not None:
            completed_by.setdefault(code, []).append(request)
            if request.missed_deadline:
                missed_by[code] = missed_by.get(code, 0) + 1
    model_scores = []
    for sm in result.scenario.models:
        code = sm.code
        goal = sm.model.quality
        if code in measured_quality:
            acc = accuracy_score(goal, measured_quality[code], cfg.acc_epsilon)
        else:
            acc = 1.0
        inf_scores = []
        for request in completed_by.get(code, ()):
            rt = realtime_score(
                request.latency_s * 1e3, request.slack_s * 1e3, cfg.rt_k
            )
            en = energy_score(request.energy_mj or 0.0, cfg.energy_max_mj)
            inf_scores.append(
                InferenceScore(request=request, rt=rt, energy=en, accuracy=acc)
            )
        executed = len(inf_scores)
        streamed = result.num_frames(code)
        model_scores.append(
            ModelScore(
                model_code=code,
                inference_scores=tuple(inf_scores),
                frames_streamed=streamed,
                frames_executed=executed,
                frames_dropped=dropped_by.get(code, 0),
                missed_deadlines=missed_by.get(code, 0),
                aux=sm.aux,
            )
        )
    return ScenarioScore(
        scenario_name=result.scenario.name, model_scores=tuple(model_scores)
    )


def score_sessions(
    result: MultiSessionResult,
    config: ScoreConfig | None = None,
    measured_quality: dict[str, float] | None = None,
) -> list[ScenarioScore]:
    """Per-session QoE/score accounting for a multi-tenant run.

    Each tenant session is scored exactly like a standalone run — its
    own requests, its own streamed-frame denominators — so contention on
    the shared accelerator shows up as per-session QoE and RT
    degradation, ordered by session id.  Churned sessions carry
    window-local denominators (frames streamed while online), so their
    QoE is normalised by active duration; a phased session is scored
    against the merged union of its phase scenarios.
    """
    return [
        score_simulation(session, config, measured_quality)
        for session in result.sessions
    ]
