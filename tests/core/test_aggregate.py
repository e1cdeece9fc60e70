"""Tests for hierarchical score aggregation (Figure 4)."""

from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Experiment, RunSpec, Sweep, execute
from repro.core import (
    MultiSessionReport,
    ScenarioReport,
    ScoreConfig,
    benchmark_score,
    scenario_to_dict,
)
from repro.core import aggregate
from repro.core.aggregate import InferenceScore, ModelScore, ScenarioScore
from repro.eval import rundb
from repro.eval.rundb import summarize_report
from repro.hardware import ACCELERATOR_IDS, PE_BUDGETS
from repro.runtime import admission
from repro.workload import SCENARIO_ORDER, InferenceRequest

#: sha256 over ``repr(_score_row(score))`` of every scenario score a run
#: reports, fed in report order; the session group then adds
#: ``repr(mean_overall)`` and the suite ``repr(xrbench_score)``.  The
#: other score tests compare with ``pytest.approx``, so only these see a
#: last-bit change to an aggregate, such as summing in another order.
#: ``repr`` hashes nothing, so the hash seed cannot move them.
GOLDEN_GRID_SCORES = (
    "d2e241fca4d43939cbd0435e304f90ad95a4b6b2061501aac19433ab47736823"
)
GOLDEN_GROUP_SCORES = (
    "5f82946df8a7729fbe2ddf66bf2d92d49ab4ad499a16da45176a342cbd04963d"
)
GOLDEN_SUITE_SCORES = (
    "640afd816e0f4dc405d3d4ba2b363b78cb32da133a0867cd6c420c01644cf3cb"
)

#: Every scenario at both PE budgets on all 13 accelerators (Figure 5).
FIGURE5_GRID = Sweep(
    base=RunSpec(scenario=SCENARIO_ORDER[0], duration_s=0.25, seed=0),
    grid={
        "pes": tuple(PE_BUDGETS.values()),
        "accelerator": tuple(ACCELERATOR_IDS),
        "scenario": tuple(SCENARIO_ORDER),
    },
)

#: One session group with every dynamic mechanism on: all 8 sessions
#: degrade to level 3, and faults kill 3 requests.
DYNAMIC_GROUP = RunSpec(
    scenario=(
        "ar_gaming", "vr_gaming", "social_interaction_a",
        "outdoor_activity_a",
    ) * 2,
    accelerator="J", pes=8192, granularity="segment", scheduler="edf",
    preemptive=True, dvfs_policy="slack", admission="degrade",
    faults="flaky", churn=0.25, duration_s=2.0, seed=7,
)


def _score_row(s: ScenarioScore) -> tuple:
    """Every aggregate of one scenario score, at full precision."""
    return (
        s.scenario_name, s.overall, s.rt, s.energy, s.accuracy, s.qoe,
        s.total_missed_deadlines, s.total_dropped,
        tuple(
            (
                m.model_code, m.per_model, m.qoe, m.contribution,
                m.mean_unit("rt"), m.mean_unit("energy"),
                m.mean_unit("accuracy"),
            )
            for m in s.model_scores
        ),
    )


def _score_digest(scores, tail: float | None) -> str:
    h = hashlib.sha256()
    for s in scores:
        h.update(repr(_score_row(s)).encode())
    if tail is not None:
        h.update(repr(tail).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def figure5_grid_reports():
    return Experiment(specs=tuple(FIGURE5_GRID.expand())).run()


# -- the aggregates as they were before they were cached ----------------------
#
# The bodies are the old code, verbatim, with two substitutions: a read of
# another aggregate calls its reference here, so no reference reads a
# production cache, and ``sum()`` is spelled ``_left_to_right``, the loop
# the built-in ran up to CPython 3.11 (3.12 compensates, so the built-in
# would make these a different reference on each CI interpreter).  Every
# production aggregate must equal its reference by ``==``.


def _left_to_right(values):
    """``sum()`` as CPython 3.11 and earlier compute it: no compensation."""
    total = 0
    for value in values:
        total += value
    return total


def reference_per_model(self: ModelScore) -> float:
    """Mean per-inference score; zero when every frame was dropped."""
    if not self.inference_scores:
        return 0.0
    return _left_to_right(s.overall for s in self.inference_scores) / len(
        self.inference_scores
    )


def reference_contribution(self: ModelScore) -> float:
    """This model's term in the scenario score: per-model x QoE."""
    return reference_per_model(self) * self.qoe


def reference_mean_unit(self: ModelScore, name: str) -> float:
    """Mean of one unit score ('rt' / 'energy' / 'accuracy')."""
    if not self.inference_scores:
        return 0.0
    return _left_to_right(
        getattr(s, name) for s in self.inference_scores
    ) / len(self.inference_scores)


def reference_scored_models(self: ScenarioScore) -> tuple[ModelScore, ...]:
    offered = tuple(
        m
        for m in self.model_scores
        if m.frames_streamed > 0 and not m.aux
    )
    return offered or self.model_scores


def reference_overall(self: ScenarioScore) -> float:
    models = reference_scored_models(self)
    return _left_to_right(reference_contribution(m) for m in models) / len(
        models
    )


def reference_mean_over_models(self: ScenarioScore, fn) -> float:
    models = reference_scored_models(self)
    return _left_to_right(fn(m) for m in models) / len(models)


def reference_rt(self: ScenarioScore) -> float:
    return reference_mean_over_models(
        self, lambda m: reference_mean_unit(m, "rt")
    )


def reference_energy(self: ScenarioScore) -> float:
    return reference_mean_over_models(
        self, lambda m: reference_mean_unit(m, "energy")
    )


def reference_accuracy(self: ScenarioScore) -> float:
    return reference_mean_over_models(
        self, lambda m: reference_mean_unit(m, "accuracy")
    )


def reference_qoe(self: ScenarioScore) -> float:
    return reference_mean_over_models(self, lambda m: m.qoe)


def reference_benchmark_score(scenario_scores: list[ScenarioScore]) -> float:
    """Definition 16: mean of scenario scores across the suite."""
    if not scenario_scores:
        raise ValueError("benchmark score over an empty suite")
    return _left_to_right(
        reference_overall(s) for s in scenario_scores
    ) / len(scenario_scores)


#: (name, production read, reference) for every aggregate of a model.
MODEL_AGGREGATES = (
    ("per_model", lambda m: m.per_model, reference_per_model),
    ("contribution", lambda m: m.contribution, reference_contribution),
    ("rt", lambda m: m.mean_unit("rt"),
     lambda m: reference_mean_unit(m, "rt")),
    ("energy", lambda m: m.mean_unit("energy"),
     lambda m: reference_mean_unit(m, "energy")),
    ("accuracy", lambda m: m.mean_unit("accuracy"),
     lambda m: reference_mean_unit(m, "accuracy")),
)

#: (name, production read, reference) for every aggregate of a scenario.
SCENARIO_AGGREGATES = (
    ("scored_models", lambda s: s.scored_models, reference_scored_models),
    ("overall", lambda s: s.overall, reference_overall),
    ("rt", lambda s: s.rt, reference_rt),
    ("energy", lambda s: s.energy, reference_energy),
    ("accuracy", lambda s: s.accuracy, reference_accuracy),
    ("qoe", lambda s: s.qoe, reference_qoe),
)


def _reads(scores: list[ScenarioScore]) -> list:
    """Every aggregate of ``scores`` as (label, read, reference) thunks."""
    reads = [(
        "benchmark_score",
        lambda: benchmark_score(scores),
        lambda: reference_benchmark_score(scores),
    )]
    for i, s in enumerate(scores):
        for name, read, reference in SCENARIO_AGGREGATES:
            reads.append((
                f"s{i}.{name}",
                lambda s=s, read=read: read(s),
                lambda s=s, reference=reference: reference(s),
            ))
        for j, m in enumerate(s.model_scores):
            for name, read, reference in MODEL_AGGREGATES:
                reads.append((
                    f"s{i}.m{j}.{name}",
                    lambda m=m, read=read: read(m),
                    lambda m=m, reference=reference: reference(m),
                ))
    return reads


def make_request(code="HT", frame=0, latency=0.005, energy=100.0,
                 slack=0.033) -> InferenceRequest:
    r = InferenceRequest(code, frame, 0.0, slack)
    r.start_time_s = 0.0
    r.end_time_s = latency
    r.energy_mj = energy
    r.accelerator_id = 0
    return r


def make_inf(code="HT", rt=1.0, en=0.9, acc=1.0) -> InferenceScore:
    return InferenceScore(make_request(code), rt=rt, energy=en, accuracy=acc)


def make_model(code="HT", scores=(), streamed=10, executed=None,
               dropped=0, missed=0) -> ModelScore:
    executed = len(scores) if executed is None else executed
    return ModelScore(
        model_code=code, inference_scores=tuple(scores),
        frames_streamed=streamed, frames_executed=executed,
        frames_dropped=dropped, missed_deadlines=missed,
    )


class TestInferenceScore:
    def test_overall_is_product(self):
        s = make_inf(rt=0.5, en=0.8, acc=1.0)
        assert s.overall == pytest.approx(0.4)

    @pytest.mark.parametrize("name", ["request", "rt", "energy", "accuracy"])
    def test_fields_are_read_only(self, name):
        # The aggregates cache over these values, so none may change.
        s = make_inf()
        with pytest.raises(AttributeError):
            setattr(s, name, 0.5)
        assert not hasattr(s, "__dict__")


class TestModelScore:
    def test_per_model_is_mean(self):
        m = make_model(scores=[make_inf(rt=1.0), make_inf(rt=0.0)])
        expected = (1.0 * 0.9 + 0.0) / 2
        assert m.per_model == pytest.approx(expected)

    def test_all_dropped_scores_zero(self):
        # Figure 4 note: if all the frames are dropped, the score is zero.
        m = make_model(scores=[], streamed=10, executed=0, dropped=10)
        assert m.per_model == 0.0
        assert m.contribution == 0.0

    def test_qoe_reflects_drops(self):
        m = make_model(scores=[make_inf()] * 6, streamed=10, executed=6,
                       dropped=4)
        assert m.qoe == pytest.approx(0.6)

    def test_contribution_multiplies_qoe(self):
        m = make_model(scores=[make_inf(rt=1.0, en=1.0)], streamed=2,
                       executed=1, dropped=1)
        assert m.contribution == pytest.approx(0.5)

    def test_mean_unit(self):
        m = make_model(scores=[make_inf(rt=0.2), make_inf(rt=0.8)])
        assert m.mean_unit("rt") == pytest.approx(0.5)
        assert m.mean_unit("energy") == pytest.approx(0.9)

    @pytest.mark.parametrize("name", ["bogus", "overall", "request", "RT"])
    @pytest.mark.parametrize("executed", [0, 2])
    def test_mean_unit_rejects_unknown_units(self, name, executed):
        # A typo must not read as a zero score, with or without inferences.
        m = make_model(scores=[make_inf()] * executed)
        with pytest.raises(ValueError, match="'rt', 'energy', 'accuracy'"):
            m.mean_unit(name)

    def test_list_argument_is_copied_to_a_tuple(self):
        scores = [make_inf(rt=1.0)]
        m = ModelScore("HT", scores, frames_streamed=1, frames_executed=1,
                       frames_dropped=0, missed_deadlines=0)
        first = m.per_model
        scores.append(make_inf(rt=0.0))
        assert len(m.inference_scores) == 1
        assert m.per_model == first


class TestScenarioScore:
    def test_overall_averages_models(self):
        s = ScenarioScore("x", (
            make_model("HT", [make_inf(rt=1.0, en=1.0)], streamed=1),
            make_model("ES", [make_inf(rt=0.0, en=1.0)], streamed=1),
        ))
        assert s.overall == pytest.approx(0.5)

    def test_never_offered_model_excluded(self):
        s = ScenarioScore("x", (
            make_model("HT", [make_inf(rt=1.0, en=1.0)], streamed=1),
            make_model("SR", [], streamed=0, executed=0),
        ))
        # SR never streamed a frame -> neutral, not zero.
        assert s.overall == pytest.approx(1.0)
        assert len(s.scored_models) == 1

    def test_offered_but_all_dropped_counts_as_zero(self):
        s = ScenarioScore("x", (
            make_model("HT", [make_inf(rt=1.0, en=1.0)], streamed=1),
            make_model("PD", [], streamed=10, executed=0, dropped=10),
        ))
        assert s.overall == pytest.approx(0.5)

    def test_unit_breakdowns(self):
        s = ScenarioScore("x", (
            make_model("HT", [make_inf(rt=0.4, en=0.6)], streamed=1),
            make_model("ES", [make_inf(rt=0.8, en=1.0)], streamed=1),
        ))
        assert s.rt == pytest.approx(0.6)
        assert s.energy == pytest.approx(0.8)

    def test_totals(self):
        s = ScenarioScore("x", (
            make_model("HT", [make_inf()], streamed=5, executed=1,
                       dropped=4, missed=1),
            make_model("ES", [make_inf()], streamed=5, executed=1,
                       dropped=2, missed=3),
        ))
        assert s.total_executed == 2
        assert s.total_dropped == 6
        assert s.total_missed_deadlines == 4

    def test_model_lookup(self):
        s = ScenarioScore("x", (make_model("HT", [make_inf()]),))
        assert s.model("HT").model_code == "HT"
        with pytest.raises(KeyError):
            s.model("ES")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no models"):
            ScenarioScore("x", ())
        with pytest.raises(ValueError, match="no models"):
            ScenarioScore("x", [])

    def test_list_argument_is_copied_to_a_tuple(self):
        models = [make_model("HT", [make_inf(rt=1.0, en=1.0)], streamed=1)]
        s = ScenarioScore("x", models)
        first = s.overall
        models.append(make_model("PD", [], streamed=10, dropped=10))
        assert len(s.model_scores) == 1
        assert s.overall == first


class TestBenchmarkScore:
    def test_mean_over_scenarios(self):
        s1 = ScenarioScore("a", (make_model("HT", [make_inf(rt=1.0, en=1.0)],
                                            streamed=1),))
        s2 = ScenarioScore("b", (make_model("HT", [make_inf(rt=0.0, en=1.0)],
                                            streamed=1),))
        assert benchmark_score([s1, s2]) == pytest.approx(0.5)

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            benchmark_score([])


class TestScoreSimulation:
    def test_end_to_end(self):
        report = execute(RunSpec(scenario="vr_gaming", accelerator="A", duration_s=0.5))
        score = report.score
        assert 0.0 <= score.overall <= 1.0
        assert {m.model_code for m in score.model_scores} == {
            "HT", "ES", "GE",
        }

    def test_measured_quality_lowers_accuracy(self):
        spec = RunSpec(scenario="vr_gaming", accelerator="A", duration_s=0.5)
        good = execute(spec)
        degraded = execute(
            spec, measured_quality={"ES": 45.0},  # target is 90.54 mIoU
        )
        assert degraded.score.model("ES").mean_unit("accuracy") == (
            pytest.approx(45.0 / 90.54)
        )
        assert degraded.score.overall < good.score.overall

    def test_default_accuracy_is_one(self):
        report = execute(RunSpec(scenario="vr_gaming", accelerator="A", duration_s=0.5))
        assert report.score.accuracy == pytest.approx(1.0)

    def test_custom_config_enmax(self):
        spec = RunSpec(scenario="vr_gaming", accelerator="A", duration_s=0.5)
        tight = execute(spec, score=ScoreConfig(energy_max_mj=100.0))
        assert tight.score.energy < execute(spec).score.energy


class TestScoreDigests:
    """Every score aggregate of three runs pinned to its last bit."""

    def test_figure5_grid(self, figure5_grid_reports):
        assert len(figure5_grid_reports) == 182
        scores = [r.score for r in figure5_grid_reports]
        assert _score_digest(scores, None) == GOLDEN_GRID_SCORES

    def test_dynamic_session_group(self):
        report = execute(DYNAMIC_GROUP)
        scores = [r.score for r in report.session_reports]
        assert len(scores) == 8
        assert _score_digest(scores, report.mean_overall) == (
            GOLDEN_GROUP_SCORES
        )

    def test_suite(self):
        report = execute(RunSpec.for_suite("J", duration_s=0.5))
        scores = [r.score for r in report.scenario_reports]
        assert len(scores) == len(SCENARIO_ORDER)
        assert _score_digest(scores, report.xrbench_score) == (
            GOLDEN_SUITE_SCORES
        )


# -- frame counts: scored once, read by export and the run database ----------


def _assert_counts_match_a_rescan(spec, report):
    """Export, the rundb row and the summary against the request log."""
    sessions = (
        report.session_reports
        if isinstance(report, MultiSessionReport) else (report,)
    )
    record = summarize_report(spec, report)
    executed = 0
    for session, row in zip(sessions, record.sessions):
        sim = session.simulation
        completed, dropped = len(sim.completed()), len(sim.dropped())
        executed += completed
        frames = scenario_to_dict(session)["frames"]
        assert frames["executed"] == row["frames_executed"] == completed
        assert frames["dropped"] == row["frames_dropped"] == dropped
        assert frames["drop_rate"] == sim.frame_drop_rate()
        assert (
            f"{completed} executed, {dropped} dropped "
            f"({sim.frame_drop_rate():.1%})"
        ) in session.summary()
    assert record.metrics["frames_executed"] == executed


class TestCountedOnce:
    """Executed and dropped counts come from scoring's one pass."""

    def test_figure5_grid(self, figure5_grid_reports):
        specs = FIGURE5_GRID.expand()
        for spec, report in zip(specs, figure5_grid_reports):
            _assert_counts_match_a_rescan(spec, report)

    def test_segment_granularity(self):
        spec = RunSpec(scenario="ar_gaming", accelerator="J", pes=8192,
                       granularity="segment", duration_s=0.5)
        report = execute(spec)
        sim = report.session_reports[0].simulation
        assert len(sim.records) > len(sim.completed())  # split dispatches
        _assert_counts_match_a_rescan(spec, report)

    def test_faulted_degraded_session_group(self, monkeypatch):
        # Retained quality is beside the point here, and measuring it
        # runs the quantised networks.
        for module in (admission, rundb):
            monkeypatch.setattr(
                module, "quality_retention", lambda scenario, level: 1.0
            )
        report = execute(DYNAMIC_GROUP)
        sims = [r.simulation for r in report.session_reports]
        assert any(s.faults.killed for s in sims)
        assert any(s.admission.degradation_level for s in sims)
        assert any(s.dropped() for s in sims)
        _assert_counts_match_a_rescan(DYNAMIC_GROUP, report)
        for sim, line in zip(sims, report.summary().splitlines()[-8:]):
            assert f" dropped={len(sim.dropped())} " in line


# -- the aggregates against their references ----------------------------------

_UNIT = st.floats(0.0, 1.0)
_INFERENCES = st.lists(
    st.builds(
        lambda rt, en, acc: InferenceScore(
            make_request(), rt=rt, energy=en, accuracy=acc
        ),
        _UNIT, _UNIT, _UNIT,
    ),
    max_size=12,
)


@st.composite
def _model_scores(draw, code: str) -> ModelScore:
    """An offered, all-dropped (empty), never-offered or aux model."""
    kind = draw(st.sampled_from(["offered", "empty", "never", "aux"]))
    scores = () if kind in ("empty", "never") else tuple(draw(_INFERENCES))
    dropped = 0 if kind == "never" else draw(st.integers(0, 5))
    if kind == "empty":
        dropped = max(dropped, 1)
    return ModelScore(
        model_code=code, inference_scores=scores,
        frames_streamed=len(scores) + dropped,
        frames_executed=len(scores), frames_dropped=dropped,
        missed_deadlines=draw(st.integers(0, len(scores))),
        aux=kind == "aux",
    )


@st.composite
def _scenario_scores(draw, name: str) -> ScenarioScore:
    n = draw(st.integers(1, 5))
    return ScenarioScore(
        name, tuple(draw(_model_scores(f"M{j}")) for j in range(n))
    )


class TestAgainstReference:
    """Every aggregate equals its pre-cache body, whatever reads first."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_scores_in_any_read_order(self, data):
        n = data.draw(st.integers(1, 3))
        scores = [data.draw(_scenario_scores(f"s{i}")) for i in range(n)]
        reads = _reads(scores)
        # Every aggregate once in a drawn order, then a drawn few again.
        order = data.draw(st.permutations(reads)) + data.draw(
            st.lists(st.sampled_from(reads), max_size=len(reads))
        )
        for label, read, reference in order:
            assert read() == reference(), label

    def test_figure5_grid(self, figure5_grid_reports):
        scores = [r.score for r in figure5_grid_reports]
        for label, read, reference in _reads(scores):
            assert read() == reference(), label

    def test_each_inference_scored_once(self, monkeypatch):
        calls = []
        real = aggregate.inference_score

        def counting(rt, energy, accuracy):
            calls.append(1)
            return real(rt, energy, accuracy)

        monkeypatch.setattr(aggregate, "inference_score", counting)
        spec = RunSpec(scenario="social_interaction_a", accelerator="J",
                       duration_s=0.5)
        report = execute(spec)
        # Export, the run database and the summary each read every
        # aggregate; read them all twice more.
        for _ in range(2):
            scenario_to_dict(report)
            summarize_report(spec, report)
            report.summary()
            for _, read, _ in _reads([report.score]):
                read()
        inferences = sum(
            len(m.inference_scores) for m in report.score.model_scores
        )
        assert inferences > 0
        assert len(calls) == inferences


class TestLeftToRight:
    """Every score reduction adds left to right, as sum() did to 3.11.

    CPython 3.12's ``sum()`` of floats is compensated and can round the
    last bit differently, so each reduction goes through ``ordered_sum``.
    Ten tenths tell the two apart: 0.9999999999999999 left to right,
    1.0 compensated.
    """

    TENTHS = _left_to_right([0.1] * 10) / 10

    def test_model(self):
        assert self.TENTHS != math.fsum([0.1] * 10) / 10
        m = make_model(scores=[make_inf(rt=0.1, en=0.1, acc=0.1)] * 10)
        assert m.per_model == _left_to_right([0.1 * 0.1 * 0.1] * 10) / 10
        for unit in ("rt", "energy", "accuracy"):
            assert m.mean_unit(unit) == self.TENTHS

    def test_scenario_suite_and_sessions(self):
        # Ten models, each with one of ten frames executed: QoE 0.1.
        s = ScenarioScore("x", tuple(
            make_model(f"M{i}", [make_inf(rt=0.1, en=0.1, acc=0.1)],
                       streamed=10, dropped=9)
            for i in range(10)
        ))
        contributions = [m.per_model * m.qoe for m in s.model_scores]
        assert s.overall == _left_to_right(contributions) / 10
        for unit in ("rt", "energy", "accuracy", "qoe"):
            assert getattr(s, unit) == self.TENTHS
        scenarios = [ScenarioScore(
            f"s{i}",
            (make_model("HT", [make_inf(rt=0.1, en=1.0, acc=1.0)],
                        streamed=1),),
        ) for i in range(10)]
        assert benchmark_score(scenarios) == self.TENTHS
        report = MultiSessionReport(
            result=None,
            session_reports=tuple(
                ScenarioReport(simulation=None, score=s) for s in scenarios
            ),
        )
        assert report.mean_overall == self.TENTHS
