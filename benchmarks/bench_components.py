"""Component micro-benchmarks: cost model, runtime, scoring, numpy engine.

Not paper figures — these track the performance of the reproduction's own
building blocks so regressions in the simulator or analytical model show
up in benchmark history.
"""

from __future__ import annotations

import pytest

from repro.core import score_simulation
from repro.costmodel import CostModel, Dataflow
from repro.hardware import build_accelerator
from repro.nn import GraphExecutor
from repro.runtime import (
    LatencyGreedyScheduler,
    MultiScenarioSimulator,
    SessionSpec,
)
from repro.workload import LoadGenerator, get_scenario
from repro.zoo import build_model


def test_costmodel_analyze_pd(benchmark):
    """Analytical analysis of the heaviest model (49 layers)."""
    graph = build_model("PD")
    cm = CostModel(dataflow=Dataflow.WS, num_pes=4096)
    cost = benchmark(cm.model_cost, graph)
    assert cost.latency_s > 0


def test_costmodel_table_lookup_cached(benchmark, cost_table):
    """Memoised lookups must be effectively free."""
    cost_table.cost("PD", Dataflow.WS, 4096)  # warm
    result = benchmark(cost_table.cost, "PD", Dataflow.WS, 4096)
    assert result.latency_s > 0


def test_loadgen_vr_gaming(benchmark):
    scenario = get_scenario("vr_gaming")

    def generate():
        return LoadGenerator(scenario, 1.0, seed=0).root_requests()

    requests = benchmark(generate)
    assert len(requests) == 105


def test_simulator_ar_gaming(benchmark, cost_table):
    """One second of the most saturated scenario."""
    scenario = get_scenario("ar_gaming")
    system = build_accelerator("J", 4096)

    def simulate():
        return MultiScenarioSimulator(
            sessions=[SessionSpec(0, scenario)], system=system,
            scheduler=LatencyGreedyScheduler(),
            duration_s=1.0, costs=cost_table,
        ).run().sessions[0]

    result = benchmark(simulate)
    assert result.requests


def test_scoring_pipeline(benchmark, cost_table):
    scenario = get_scenario("ar_assistant")
    result = MultiScenarioSimulator(
        sessions=[SessionSpec(0, scenario)],
        system=build_accelerator("M", 8192),
        scheduler=LatencyGreedyScheduler(), duration_s=1.0,
        costs=cost_table,
    ).run().sessions[0]
    score = benchmark(score_simulation, result)
    assert 0.0 <= score.overall <= 1.0


def test_full_suite_one_system(benchmark, harness):
    """The end-to-end cost of one suite evaluation (7 scenarios)."""
    system = build_accelerator("J", 8192)
    report = benchmark.pedantic(
        harness.run_suite, args=(system,), rounds=1, iterations=1
    )
    assert 0.0 <= report.xrbench_score <= 1.0


@pytest.mark.parametrize("code", ["KD", "GE"])
def test_numpy_forward_pass(benchmark, code):
    """Reference-model inference on the numpy engine (light models)."""
    graph = build_model(code)
    executor = GraphExecutor(graph, seed=0)
    executor.run()  # warm the weight cache

    out = benchmark.pedantic(executor.run, rounds=2, iterations=1)
    assert out.shape == graph.out_shape
