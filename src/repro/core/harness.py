"""The benchmark harness: the front end for live scenario objects.

:class:`Harness` builds :class:`~repro.runtime.SessionSpec` values and
hands them to :func:`repro.api.run_group`, the one runner behind
:func:`repro.api.execute` too, so both surfaces produce byte-identical
results by construction.

Prefer the declarative API for new code::

    from repro.api import RunSpec, execute

    report = execute(RunSpec(scenario="ar_gaming", accelerator="J"))

The harness stays for callers that hold live objects a serializable spec
cannot carry (a pre-built :class:`~repro.hardware.AcceleratorSystem`, a
mutated :class:`~repro.workload.UsageScenario`, measured quality maps).
Deprecation policy: the harness is maintained indefinitely as an API
layer, but new execution features (sweeps, workers, progress events)
land only on the ``RunSpec`` path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.hardware import AcceleratorSystem
from repro.runtime import SessionSpec
from repro.workload import UsageScenario, benchmark_suite, get_scenario

from .config import HarnessConfig
from .report import BenchmarkReport, MultiSessionReport, ScenarioReport

__all__ = ["Harness"]


@dataclass
class Harness:
    """Runs scenarios against accelerator systems and scores them."""

    config: HarnessConfig = field(default_factory=HarnessConfig)

    def run_scenario(
        self,
        scenario: UsageScenario | str,
        system: AcceleratorSystem,
        seed: int | None = None,
        measured_quality: dict[str, float] | None = None,
    ) -> ScenarioReport:
        """Simulate and score one scenario on one system."""
        return self.run_sessions(
            [scenario], system, seed=seed, measured_quality=measured_quality,
        ).session_reports[0]

    def run_sessions(
        self,
        scenario: UsageScenario | str | Sequence[UsageScenario | str],
        system: AcceleratorSystem,
        num_sessions: int = 4,
        seed: int | None = None,
        granularity: str = "model",
        segments_per_model: int = 2,
        measured_quality: dict[str, float] | None = None,
    ) -> MultiSessionReport:
        """Multiplex concurrent scenario sessions onto one system.

        ``scenario`` may be a single scenario (or name) replicated across
        ``num_sessions`` tenants with consecutive seeds, or a sequence of
        per-session scenarios (whose length then sets the session count).
        """
        # Imported here: repro.api imports repro.core.
        from repro.api.execute import run_group

        if isinstance(scenario, (str, UsageScenario)):
            scenarios: Sequence[UsageScenario | str] = (
                [scenario] * num_sessions
            )
        else:
            scenarios = list(scenario)
        base_seed = self.config.seed if seed is None else seed
        sessions = [
            SessionSpec(
                session_id=i,
                scenario=get_scenario(sc) if isinstance(sc, str) else sc,
                seed=base_seed + i,
                frame_loss_probability=self.config.frame_loss_probability,
            )
            for i, sc in enumerate(scenarios)
        ]
        return run_group(
            sessions,
            system,
            scheduler=self.config.scheduler,
            duration_s=self.config.duration_s,
            score=self.config.score,
            granularity=granularity,
            segments_per_model=segments_per_model,
            measured_quality=measured_quality,
        )

    def run_suite(
        self,
        system: AcceleratorSystem,
        seed: int | None = None,
    ) -> BenchmarkReport:
        """Run the full seven-scenario suite (Definition 5's Omega)."""
        return BenchmarkReport(
            system=system,
            scenario_reports=[
                self.run_scenario(scenario, system, seed=seed)
                for scenario in benchmark_suite()
            ],
        )
