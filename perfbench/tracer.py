"""Host-time shims around the simulator's layer boundaries.

A :class:`Tracer` replaces selected module functions and class methods
with thin wrappers that count calls and accumulate host time per layer,
then puts the originals back.  Methods are wrapped on the class that
defines them; module functions are wrapped in every module that looks
them up (``repro.api.execute.score_sessions``, not only
``repro.core.aggregate.score_sessions``).

Accounting is stack based: each wrapped call adds its duration to the
enclosing wrapped call's child time, so a layer's self time is its total
minus the wrapped calls nested inside it.  A call nested directly inside
a call of the same layer (an adapter delegating to the policy it wraps,
a cache falling through to its base table) folds into the outer call.

Layers in :data:`SPAN_LAYERS` are called at most a few thousand times a
run; each of their calls is also kept as a span (name, start, end,
parent span, run id) and written out once as Chrome trace-event JSON.
The per-event boundaries (event queue, cost lookups, jitter draws) are
called up to a hundred thousand times a run and are only aggregated.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Callable

#: ``(module, attribute path, layer)``: what to wrap.  An attribute path
#: ``Class.method`` wraps the method on the class.  A target missing from
#: the program is skipped and reported, and its layer then reads zero.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.api", "compile_plan", "api.compile_plan"),
    ("repro.api.execute", "compile_plan", "api.compile_plan"),
    ("repro.api", "execute_plan", "api.execute_plan"),
    ("repro.api.execute", "execute_plan", "api.execute_plan"),
    ("repro.api.execute", "run_single_scenario", "api.run_single_scenario"),
    ("repro.api.execute", "Experiment.run", "api.experiment_run"),
    ("repro.api.execute", "build_accelerator", "hardware.build_accelerator"),
    ("repro.api.plan", "build_accelerator", "hardware.build_accelerator"),
    ("repro.costmodel.analysis", "CostModel.model_cost", "costmodel.analysis"),
    ("repro.costmodel.model_cost", "CostTable.cost", "costmodel.cost"),
    ("repro.costmodel.cached", "CachedCostTable.cost", "costmodel.cost"),
    ("repro.costmodel.cached", "CachedCostTable.engine_cost",
     "costmodel.cost"),
    ("repro.costmodel.cached", "DenseCostView.row", "costmodel.dense"),
    ("repro.costmodel.cached", "DenseCostView.latencies", "costmodel.dense"),
    ("repro.costmodel.cached", "DenseCostView.latency_energy",
     "costmodel.dense"),
    ("repro.costmodel.cached", "DenseCostView.best_engine_index",
     "costmodel.dense"),
    ("repro.workload.sensors", "InputSource.jitter_s", "workload.jitter"),
    ("repro.workload.loadgen", "LoadGenerator.root_requests",
     "workload.root_requests"),
    ("repro.workload.loadgen", "LoadGenerator.spawn_dependent",
     "workload.spawn_dependent"),
    ("repro.runtime.multisim", "MultiScenarioSimulator.run", "runtime.run"),
    ("repro.runtime.multisim", "split_graph", "runtime.split_graph"),
    ("repro.runtime.segmentation", "split_graph", "runtime.split_graph"),
    ("repro.runtime.events", "EventQueue.push", "runtime.event_push"),
    ("repro.runtime.events", "EventQueue.pop_fields", "runtime.event_pop"),
    ("repro.runtime.queues", "WaitingQueue.offer", "runtime.waiting_offer"),
    ("repro.api.execute", "score_sessions", "core.score"),
    ("repro.api.execute", "score_simulation", "core.score"),
    ("repro.core.export", "scenario_to_dict", "core.export"),
    ("repro.eval.rundb", "RunDatabase.append", "eval.rundb_append"),
    ("repro.eval.rundb", "ReportGenerator.render", "eval.report_render"),
)

#: Every policy class in these modules has these methods wrapped: the
#: policies are registered by name, so the set is read from the module.
POLICY_TARGETS: tuple[tuple[str, tuple[str, ...], str], ...] = (
    ("repro.runtime.scheduler", ("select", "pick", "should_preempt"),
     "runtime.scheduler"),
    ("repro.runtime.governor", ("select",), "runtime.governor"),
)

SPAN_LAYERS = frozenset({
    "api.compile_plan", "api.execute_plan", "api.run_single_scenario",
    "api.experiment_run", "hardware.build_accelerator", "runtime.run",
    "runtime.split_graph", "workload.root_requests", "core.score",
    "core.export", "eval.rundb_append", "eval.report_render",
})

#: Layers whose self time counts as the ``api`` layer's own work.
API_LAYERS = (
    "api.compile_plan", "api.execute_plan", "api.run_single_scenario",
    "api.experiment_run",
)

Stat = list  # [calls, total seconds, seconds in wrapped children]
Span = tuple[str, float, float, int, str]  # name, start, end, parent, run


class Tracer:
    """Installs the shims, keeps per-run layer stats and spans."""

    def __init__(self) -> None:
        self.runs: dict[str, dict[str, Stat]] = {}
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stats: dict[str, Stat] = {}
        self._run = ""
        self._run_start = 0.0
        self._stack: list[Stat] = []
        self._open_spans: list[int] = []
        self._patched: list[tuple[Any, str, Any, bool]] = []

    # -- run ids ---------------------------------------------------------------

    def start_run(self, run: str) -> None:
        """Attribute everything from now on to run id ``run``."""
        self.end_run()
        self._run, self._run_start = run, time.perf_counter()
        self._stats = self.runs.setdefault(run, {})

    def end_run(self) -> None:
        """Close the current run id with a span covering it."""
        if self._run:
            self.spans.append(
                (f"run.{self._run}", self._run_start, time.perf_counter(), -1,
                 self._run)
            )
            self._run = ""

    def stat(self, run: str, layer: str) -> Stat:
        return self.runs.get(run, {}).get(layer, [0, 0.0, 0.0])

    # -- shims -----------------------------------------------------------------

    def _wrap(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        tracer = self
        clock = time.perf_counter
        stack = self._stack
        keep_span = layer in SPAN_LAYERS

        def shim(*args: Any, **kwargs: Any) -> Any:
            stats = tracer._stats
            stat = stats.get(layer)
            if stat is None:
                stat = stats[layer] = [0, 0.0, 0.0]
            elif stack and stack[-1] is stat:
                return fn(*args, **kwargs)
            if keep_span:
                span_id = len(tracer.spans)
                parent = tracer._open_spans[-1] if tracer._open_spans else -1
                tracer.spans.append((layer, 0.0, 0.0, parent, tracer._run))
                tracer._open_spans.append(span_id)
            stack.append(stat)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat[0] += 1
                stat[1] += end - start
                if stack:
                    stack[-1][2] += end - start
                if keep_span:
                    tracer._open_spans.pop()
                    tracer.spans[span_id] = (
                        layer, start, end, parent, tracer._run
                    )

        return shim

    def _patch(self, owner: Any, name: str, layer: str, on_class: bool) -> None:
        original = owner.__dict__[name] if on_class else getattr(owner, name)
        self._patched.append((owner, name, original, on_class))
        setattr(owner, name, self._wrap(original, layer))

    def install(self) -> None:
        """Wrap every target that exists in the program."""
        for module_name, path, layer in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *classes, name = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            if owner is None or (
                name not in owner.__dict__ if classes else
                not hasattr(owner, name)
            ):
                self.missing.append(f"{module_name}:{path}")
                continue
            self._patch(owner, name, layer, bool(classes))
        for module_name, names, layer in POLICY_TARGETS:
            module = importlib.import_module(module_name)
            for cls in list(vars(module).values()):
                if not isinstance(cls, type) or cls.__module__ != module_name:
                    continue
                for name in names:
                    if callable(cls.__dict__.get(name)):
                        self._patch(cls, name, layer, True)

    def uninstall(self) -> list[str]:
        """Restore the originals; returns attributes that did not restore."""
        for owner, name, original, _ in reversed(self._patched):
            setattr(owner, name, original)
        broken = [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, original, on_class in self._patched
            if (owner.__dict__.get(name) if on_class
                else getattr(owner, name, None)) is not original
        ]
        self._patched.clear()
        return broken

    # -- output ----------------------------------------------------------------

    def chrome_events(self, origin: float) -> list[dict[str, Any]]:
        """The kept spans as Chrome trace-event ``X`` records (no ``pid``)."""
        return [
            {
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3), "tid": 0,
                "args": {"run": run, "id": i, "parent": parent},
            }
            for i, (name, start, end, parent, run) in enumerate(self.spans)
        ]
