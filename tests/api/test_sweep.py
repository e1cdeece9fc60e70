"""Tests for Sweep expansion and Experiment execution (serial + pool)."""

from __future__ import annotations

import pytest

from repro.api import (
    CollectingSink,
    Experiment,
    RunSpec,
    Sweep,
    execute,
)

BASE = RunSpec(scenario="ar_gaming", accelerator="A", duration_s=0.4)


class TestSweep:
    def test_cartesian_expansion_order(self):
        sweep = Sweep(
            base=BASE,
            grid={"scenario": ("ar_gaming", "vr_gaming"),
                  "accelerator": ("A", "J")},
        )
        assert len(sweep) == 4
        cells = [(s.scenario, s.accelerator) for s in sweep.expand()]
        # Last grid field varies fastest (itertools.product order).
        assert cells == [
            ("ar_gaming", "A"), ("ar_gaming", "J"),
            ("vr_gaming", "A"), ("vr_gaming", "J"),
        ]

    def test_empty_grid_yields_base(self):
        assert Sweep(base=BASE).expand() == [BASE]

    def test_unknown_grid_field_rejected(self):
        with pytest.raises(ValueError, match="not a RunSpec field"):
            Sweep(base=BASE, grid={"warp": (1, 2)})

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            Sweep(base=BASE, grid={"accelerator": ()})

    def test_expansion_validates_names(self):
        sweep = Sweep(base=BASE, grid={"accelerator": ("A", "Z")})
        with pytest.raises(KeyError, match="unknown accelerator"):
            sweep.expand()

    def test_json_round_trip(self):
        sweep = Sweep(
            base=BASE,
            grid={"accelerator": ("A", "J"), "seed": (0, 1, 2)},
        )
        clone = Sweep.from_json(sweep.to_json())
        assert clone == sweep
        assert clone.expand() == sweep.expand()


class TestSweepDeduplication:
    """Overlapping axis values must not silently duplicate work."""

    def test_repeated_axis_values_deduplicated_with_warning(self):
        sweep = Sweep(
            base=BASE,
            grid={"accelerator": ("A", "J", "A"), "seed": (0, 0)},
        )
        assert len(sweep) == 6  # raw grid points, pre-dedup
        with pytest.warns(UserWarning, match="overlapping axis values"):
            specs = sweep.expand()
        assert len(specs) == 2
        assert [s.accelerator for s in specs] == ["A", "J"]
        assert len(set(specs)) == len(specs)

    def test_first_occurrence_order_is_kept(self):
        sweep = Sweep(
            base=BASE,
            grid={"scenario": ("vr_gaming", "ar_gaming", "vr_gaming")},
        )
        with pytest.warns(UserWarning, match="dropped 1 duplicate"):
            specs = sweep.expand()
        assert [s.scenario for s in specs] == ["vr_gaming", "ar_gaming"]

    def test_distinct_grid_warns_nothing(self):
        import warnings

        sweep = Sweep(base=BASE, grid={"seed": (0, 1, 2)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            specs = sweep.expand()
        assert len(specs) == 3


class TestExperiment:
    def test_from_sweep_preserves_order(self):
        sweep = Sweep(base=BASE, grid={"accelerator": ("A", "J")})
        experiment = Experiment.from_sweep(sweep, name="x")
        assert len(experiment) == 2
        assert [s.accelerator for s in experiment.specs] == ["A", "J"]

    def test_serial_run_shares_cost_cache(self):
        sweep = Sweep(base=BASE, grid={"seed": (0, 1)})
        reports = Experiment.from_sweep(sweep).run()
        assert len(reports) == 2
        for report in reports:
            assert 0.0 <= report.score.overall <= 1.0

    def test_workers_match_serial(self):
        """Acceptance: 2 scenarios x 2 accelerators, workers=2 == serial."""
        sweep = Sweep(
            base=BASE,
            grid={"scenario": ("ar_gaming", "vr_gaming"),
                  "accelerator": ("A", "J")},
        )
        experiment = Experiment.from_sweep(sweep)
        serial = experiment.run()
        pooled = experiment.run(workers=2)
        assert [r.score.overall for r in serial] == (
            [r.score.overall for r in pooled]
        )
        assert [r.score.rt for r in serial] == [r.score.rt for r in pooled]
        assert [len(r.simulation.requests) for r in serial] == (
            [len(r.simulation.requests) for r in pooled]
        )

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            Experiment(specs=(BASE,)).run(workers=0)

    def test_pool_event_stream_matches_serial_shape(self):
        sweep = Sweep(base=BASE, grid={"seed": (0, 1)})
        experiment = Experiment.from_sweep(sweep)
        serial_sink, pool_sink = CollectingSink(), CollectingSink()
        experiment.run(sinks=[serial_sink])
        experiment.run(workers=2, sinks=[pool_sink])
        pool_kinds = pool_sink.kinds()
        assert pool_kinds.count("spec_started") == 2
        assert pool_kinds.count("spec_finished") == 2
        serial_overall = [
            e.payload["overall"] for e in serial_sink.events
            if e.kind == "spec_finished"
        ]
        pool_overall = [
            e.payload["overall"] for e in pool_sink.events
            if e.kind == "spec_finished"
        ]
        assert serial_overall == pool_overall

    def test_events_cover_every_spec(self):
        sink = CollectingSink()
        sweep = Sweep(base=BASE, grid={"seed": (0, 1, 2)})
        Experiment.from_sweep(sweep, name="evt").run(
            sinks=[sink]
        )
        kinds = sink.kinds()
        assert kinds[0] == "experiment_started"
        assert kinds[-1] == "experiment_finished"
        assert kinds.count("spec_started") == 3
        assert kinds.count("spec_finished") == 3
        finished = [e for e in sink.events if e.kind == "spec_finished"]
        assert [e.index for e in finished] == [0, 1, 2]
        assert all(e.total == 3 for e in finished)

    def test_dict_round_trip(self):
        experiment = Experiment(
            name="rt", specs=(BASE, BASE.replace(accelerator="J"))
        )
        assert Experiment.from_dict(experiment.to_dict()) == experiment


class TestWorkerDeathRetry:
    """A pool worker dying (BrokenProcessPool) retries the cell serially."""

    class _DeadFuture:
        def result(self):
            from concurrent.futures.process import BrokenProcessPool

            raise BrokenProcessPool("worker died")

    def test_dead_worker_cell_retried_serially(self):
        from repro.api.execute import _pooled_result

        spec = BASE
        sink = CollectingSink()
        report, retries = _pooled_result(
            spec, self._DeadFuture(), [sink], 0, 1
        )
        assert retries == 1
        assert 0.0 <= report.score.overall <= 1.0
        (event,) = [e for e in sink.events if e.kind == "spec_retried"]
        assert event.payload["attempt"] == 1
        assert event.payload["error"] == "BrokenProcessPool"

    def test_retry_budget_exhaustion_fails_the_sweep(self, monkeypatch):
        import importlib
        from concurrent.futures.process import BrokenProcessPool

        execute_module = importlib.import_module("repro.api.execute")

        def always_broken(spec, **kwargs):
            raise BrokenProcessPool("still dead")

        monkeypatch.setattr(execute_module, "execute", always_broken)
        sink = CollectingSink()
        with pytest.raises(RuntimeError, match="worker process died"):
            execute_module._pooled_result(
                BASE, self._DeadFuture(), [sink], 0, 1
            )
        retried = [e for e in sink.events if e.kind == "spec_retried"]
        assert [e.payload["attempt"] for e in retried] == [1, 2]

    def test_pooled_run_notes_retried_cells(self, monkeypatch):
        """End to end: one worker dies, the sweep still completes and the
        experiment_finished event names the retried cell."""
        import importlib

        execute_module = importlib.import_module("repro.api.execute")

        class _FakePool:
            def __init__(self, max_workers=None):
                self.calls = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, spec_dict):
                self.calls += 1
                if self.calls == 1:
                    return TestWorkerDeathRetry._DeadFuture()

                class _Lazy:
                    def result(_self):
                        return fn(spec_dict)

                return _Lazy()

        monkeypatch.setattr(execute_module, "ProcessPoolExecutor",
                            _FakePool)
        sink = CollectingSink()
        sweep = Sweep(base=BASE, grid={"seed": (0, 1)})
        reports = Experiment.from_sweep(sweep).run(
            workers=2, sinks=[sink]
        )
        assert len(reports) == 2
        (finished,) = [
            e for e in sink.events if e.kind == "experiment_finished"
        ]
        assert finished.payload["retried"] == [
            sweep.expand()[0].describe()
        ]
        assert sink.kinds().count("spec_retried") == 1


class TestSharedCostStore:
    def test_experiment_reuses_analysis_across_specs(self, monkeypatch):
        """The cost store is process-wide: the second spec's run
        analyses no (engine shape, graph) pair again."""
        from repro.costmodel import CostModel, cached

        calls: list[int] = []

        class SpecCounter:
            def emit(self, event):
                if event.kind == "spec_started":
                    calls.append(0)

        original = CostModel.model_cost

        def counting(engine, graph):
            calls[-1] += 1
            return original(engine, graph)

        monkeypatch.setattr(cached, "_STORE", {})
        monkeypatch.setattr(CostModel, "model_cost", counting)
        sweep = Sweep(base=BASE, grid={"seed": (0, 1)})
        reports = Experiment.from_sweep(sweep).run(sinks=[SpecCounter()])
        assert reports[0].simulation.scenario.name == (
            reports[1].simulation.scenario.name
        )
        assert calls[0] > 0
        assert calls[1] == 0
