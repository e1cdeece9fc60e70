"""repro: a pure-Python reproduction of XRBench (MLSys 2023).

XRBench is a real-time multi-task multi-model (MTMM) machine-learning
benchmark suite for extended-reality (XR) / metaverse devices.  This
package rebuilds the whole published stack:

* :mod:`repro.api` — the declarative entry point: serializable
  :class:`RunSpec`/:class:`Sweep`/:class:`Experiment` descriptions run
  through one :func:`execute` funnel, and every run shape through one
  runner, :func:`repro.api.run_group`.
* :mod:`repro.registry` — unified name registries for scenarios,
  schedulers, accelerators and score presets (third-party registrable).
* :mod:`repro.workload` — sensors, the 11 unit models, the 7 usage
  scenarios, jittered load generation and dynamic model cascading.
* :mod:`repro.nn` / :mod:`repro.zoo` — executable layer-graph reference
  implementations of every unit model.
* :mod:`repro.costmodel` — a MAESTRO-style analytical latency/energy
  model for WS/OS/RS-dataflow accelerators.
* :mod:`repro.hardware` — the 13 accelerator configurations of Table 5.
* :mod:`repro.runtime` — the discrete-event benchmark runtime with
  pluggable schedulers and multi-tenant session multiplexing.
* :mod:`repro.core` — the XRBench scoring metrics, reports and the
  :class:`Harness`, the front end for live scenario objects.
* :mod:`repro.eval` — drivers regenerating every evaluation table/figure.

Quickstart::

    from repro import RunSpec, Sweep, Experiment, execute

    # One declarative, JSON-round-trippable run.
    spec = RunSpec(scenario="ar_gaming", accelerator="J")
    report = execute(spec)
    print(report.summary())

    # Multi-tenant: four concurrent sessions, segment-level dispatch.
    multi = execute(spec.replace(sessions=4, granularity="segment"))
    print(multi.summary())

    # A cartesian sweep, optionally on worker processes.
    sweep = Sweep(base=spec, grid={"accelerator": ("A", "J", "M")})
    reports = Experiment.from_sweep(sweep).run(workers=2)

The pre-spec surface (``Harness().run_scenario(...)``) remains available
for scenario objects a spec cannot carry, and runs through the same
runner.
"""

from .api import Experiment, Report, RunSpec, Sweep, execute
from .core import (
    BenchmarkReport,
    Harness,
    HarnessConfig,
    MultiSessionReport,
    ScenarioReport,
    ScoreConfig,
)
from .hardware import build_accelerator
from .runtime import make_scheduler
from .workload import benchmark_suite, get_scenario

__version__ = "1.1.0"

__all__ = [
    "BenchmarkReport",
    "Experiment",
    "Harness",
    "HarnessConfig",
    "MultiSessionReport",
    "Report",
    "RunSpec",
    "ScenarioReport",
    "ScoreConfig",
    "Sweep",
    "__version__",
    "benchmark_suite",
    "build_accelerator",
    "execute",
    "get_scenario",
    "make_scheduler",
]
