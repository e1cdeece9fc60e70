"""Hypothesis property tests over the core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from sim_helpers import run_single

from repro.core import energy_score, qoe_score, realtime_score
from repro.core.aggregate import InferenceScore, ModelScore, ScenarioScore
from repro.costmodel import CostModel, Dataflow
from repro.nn import GraphBuilder, GraphExecutor
from repro.runtime import WaitingQueue
from repro.runtime.segmentation import SegmentChain
from repro.workload import InferenceRequest


# -- random small CNNs -------------------------------------------------------

@st.composite
def small_cnn(draw):
    """A random but always-valid small CNN graph."""
    cin = draw(st.integers(1, 4))
    hw = draw(st.sampled_from([8, 16]))
    b = GraphBuilder("rand", (cin, hw, hw))
    n_layers = draw(st.integers(1, 5))
    for _ in range(n_layers):
        kind = draw(st.sampled_from(["conv", "dw", "pool"]))
        if kind == "conv":
            b.conv(draw(st.sampled_from([4, 8, 16])), 3)
        elif kind == "dw":
            b.dwconv(3)
        elif b.shape[1] >= 4:
            b.pool(2)
        else:
            b.conv(8, 1)
    return b.build()


class TestGraphProperties:
    @settings(max_examples=40, deadline=None)
    @given(graph=small_cnn())
    def test_totals_consistent(self, graph):
        assert graph.total_macs == sum(layer.macs for layer in graph.layers)
        assert graph.total_params >= 0

    @settings(max_examples=20, deadline=None)
    @given(graph=small_cnn(), seed=st.integers(0, 100))
    def test_executor_matches_specs(self, graph, seed):
        out = GraphExecutor(graph, seed=seed).run()
        assert out.shape == graph.out_shape
        assert np.isfinite(out).all()

    @settings(max_examples=20, deadline=None)
    @given(graph=small_cnn(), df=st.sampled_from(list(Dataflow)),
           pes=st.sampled_from([256, 4096]))
    def test_cost_model_total_positive(self, graph, df, pes):
        cost = CostModel(dataflow=df, num_pes=pes).model_cost(graph)
        assert cost.latency_s > 0
        assert cost.energy_mj > 0
        assert 0 <= cost.utilization <= 1


class TestScoreProperties:
    @given(
        lat=st.floats(0, 1e3), slack=st.floats(-1e3, 1e3),
        extra=st.floats(0.001, 100),
    )
    def test_rt_monotone_in_lateness(self, lat, slack, extra):
        assert realtime_score(lat + extra, slack) <= (
            realtime_score(lat, slack) + 1e-12
        )

    @given(e1=st.floats(0, 1e5), e2=st.floats(0, 1e5))
    def test_energy_monotone(self, e1, e2):
        lo, hi = min(e1, e2), max(e1, e2)
        assert energy_score(hi) <= energy_score(lo) + 1e-12

    @given(
        executed=st.integers(0, 1000),
        extra=st.integers(0, 1000),
    )
    def test_qoe_in_unit_interval(self, executed, extra):
        assert 0.0 <= qoe_score(executed, executed + extra) <= 1.0


def _scored_request(code: str, frame: int) -> InferenceScore:
    r = InferenceRequest(code, frame, 0.0, 0.033)
    r.start_time_s = 0.0
    r.end_time_s = 0.01
    r.energy_mj = 10.0
    return InferenceScore(r, rt=0.9, energy=0.8, accuracy=1.0)


class TestAggregationProperties:
    @given(
        n_models=st.integers(1, 5),
        executed=st.lists(st.integers(0, 20), min_size=5, max_size=5),
        dropped=st.lists(st.integers(0, 20), min_size=5, max_size=5),
    )
    def test_scenario_score_bounded(self, n_models, executed, dropped):
        models = []
        for i in range(n_models):
            scores = tuple(
                _scored_request(f"M{i}", f) for f in range(executed[i])
            )
            models.append(
                ModelScore(
                    model_code=f"M{i}", inference_scores=scores,
                    frames_streamed=executed[i] + dropped[i],
                    frames_executed=executed[i],
                    frames_dropped=dropped[i], missed_deadlines=0,
                )
            )
        s = ScenarioScore("prop", tuple(models))
        assert 0.0 <= s.overall <= 1.0
        assert 0.0 <= s.qoe <= 1.0

    @given(st.data())
    def test_dropping_frames_never_raises_score(self, data):
        executed = data.draw(st.integers(1, 10))
        extra_drops = data.draw(st.integers(0, 10))
        scores = tuple(_scored_request("M", f) for f in range(executed))
        base = ModelScore("M", scores, frames_streamed=executed,
                          frames_executed=executed, frames_dropped=0,
                          missed_deadlines=0)
        worse = ModelScore("M", scores,
                           frames_streamed=executed + extra_drops,
                           frames_executed=executed,
                           frames_dropped=extra_drops, missed_deadlines=0)
        assert worse.contribution <= base.contribution + 1e-12


class TestRandomScenarioSimulation:
    """Whole-runtime invariants under randomised workload variants."""

    @settings(max_examples=15, deadline=None)
    @given(
        base=st.sampled_from(
            ["vr_gaming", "social_interaction_a", "outdoor_activity_b"]
        ),
        rate_factor=st.sampled_from([0.5, 1.0, 2.0]),
        acc=st.sampled_from(["A", "J", "H"]),
        pes=st.sampled_from([4096, 8192]),
        loss=st.sampled_from([0.0, 0.2]),
        seed=st.integers(0, 50),
    )
    def test_invariants_hold(self, base, rate_factor, acc, pes, loss, seed):
        from repro.core import score_simulation
        from repro.hardware import build_accelerator
        from repro.runtime import LatencyGreedyScheduler
        from repro.workload import get_scenario, scale_rates

        scenario = scale_rates(get_scenario(base), rate_factor)
        result = run_single(
            scenario,
            build_accelerator(acc, pes),
            LatencyGreedyScheduler(),
            seed=seed,
            duration_s=0.5,
            frame_loss_probability=loss,
        )

        # Outcome exclusivity.
        for r in result.requests:
            assert r.completed != r.dropped
        # No engine overlap.
        by_engine: dict[int, list] = {}
        for r in result.completed():
            by_engine.setdefault(r.accelerator_id, []).append(r)
        for rs in by_engine.values():
            rs.sort(key=lambda r: r.start_time_s)
            for a, b in zip(rs, rs[1:]):
                assert a.end_time_s <= b.start_time_s + 1e-12
        # Causality.
        for r in result.completed():
            assert r.start_time_s >= r.request_time_s - 1e-12
        # QoE denominators never undercount executions.
        for sm in scenario.models:
            assert len(result.completed(sm.code)) <= result.num_frames(sm.code)
        # Scores bounded.
        score = score_simulation(result)
        assert 0.0 <= score.overall <= 1.0
        assert 0.0 <= score.qoe <= 1.0


class TestWaitingQueueProperties:
    #: Whole-model chains of the codes these properties offer.
    CHAINS = {code: SegmentChain(code, (None,)) for code in "ABC"}

    @given(
        arrivals=st.lists(
            st.tuples(st.integers(0, 2), st.sampled_from(["A", "B", "C"]),
                      st.floats(0, 10)),
            min_size=1, max_size=50,
        )
    )
    def test_at_most_one_waiting_per_session_and_model(self, arrivals):
        # Offered in time order, as the event loop offers arrivals: the
        # view holds exactly the freshest frame of each (session, model),
        # in dispatch order.
        q = WaitingQueue(self.CHAINS)
        freshest: dict[tuple[int, str], InferenceRequest] = {}
        ordered = sorted(arrivals, key=lambda x: x[2])
        for i, (session, code, t) in enumerate(ordered):
            request = InferenceRequest(code, i, t, t + 1)
            q.offer(request, session)
            freshest[(session, code)] = request
        waiting = list(q)
        keys = [(w.session_id, w.request.model_code) for w in waiting]
        assert len(keys) == len(set(keys))
        assert {id(w.request) for w in waiting} == {
            id(r) for r in freshest.values()
        }
        order = [
            (w.request.request_time_s, w.session_id, w.request.model_code)
            for w in waiting
        ]
        assert order == sorted(order)

    @given(n=st.integers(1, 30), sessions=st.integers(1, 3))
    def test_conservation(self, n, sessions):
        # Every offered request is either waiting or was displaced, and
        # exactly the displaced ones are marked dropped.
        q = WaitingQueue(self.CHAINS)
        offered, displaced = [], []
        waiting_of: dict[int, InferenceRequest] = {}
        for i in range(n):
            request = InferenceRequest("A", i, float(i), float(i) + 1)
            offered.append(request)
            q.offer(request, i % sessions)
            stale = waiting_of.get(i % sessions)
            if stale is not None:
                displaced.append(stale)
            waiting_of[i % sessions] = request
        assert len(q) + len(displaced) == n
        assert {id(w.request) for w in q} | {id(r) for r in displaced} == {
            id(r) for r in offered
        }
        assert [r.dropped for r in offered] == [
            any(r is d for d in displaced) for r in offered
        ]
