"""Session-group builders and price tables shared by the tests.

The runtime has one event loop, :class:`repro.runtime.MultiScenarioSimulator`,
fed a list of :class:`repro.runtime.SessionSpec`.  Most tests run either
N copies of one scenario with consecutive seeds (:func:`replicate`) or
one session, the single-scenario run (:func:`run_single`).  Policy unit
tests that call ``select`` directly price through :func:`price_table`.
"""

from __future__ import annotations

from repro.costmodel import DEFAULT_DVFS_POINTS, PriceTable
from repro.runtime import (
    MultiScenarioSimulator,
    SessionSpec,
    SimulationResult,
)
from repro.workload import UNIT_MODELS


def price_table(system, codes=tuple(UNIT_MODELS),
                points=DEFAULT_DVFS_POINTS) -> PriceTable:
    """The price table a run on ``system`` builds for zoo ``codes``.

    Each code is priced from its zoo graph, and ``points`` (by default
    the governors' ladder) join nominal on the table's DVFS ladder.
    """
    return PriceTable(
        system, points, {code: UNIT_MODELS[code].graph for code in codes}
    )


def replicate(
    scenario,
    system,
    scheduler,
    num_sessions: int,
    base_seed: int = 0,
    frame_loss_probability: float = 0.0,
    windows=None,
    **kwargs,
) -> MultiScenarioSimulator:
    """``num_sessions`` sessions of ``scenario`` with consecutive seeds.

    ``windows`` optionally supplies one lifetime window per session (any
    object with ``arrival_s``/``departure_s``, such as a
    :class:`repro.workload.SessionWindow`); the other keywords go to the
    simulator.
    """
    if windows is not None and len(windows) != num_sessions:
        raise ValueError(
            f"got {len(windows)} lifetime windows for "
            f"{num_sessions} sessions"
        )
    sessions = [
        SessionSpec(
            i, scenario, base_seed + i, frame_loss_probability,
            arrival_s=windows[i].arrival_s if windows else 0.0,
            departure_s=windows[i].departure_s if windows else None,
        )
        for i in range(num_sessions)
    ]
    return MultiScenarioSimulator(
        sessions=sessions, system=system, scheduler=scheduler, **kwargs
    )


def run_single(
    scenario,
    system,
    scheduler,
    seed: int = 0,
    frame_loss_probability: float = 0.0,
    **kwargs,
) -> SimulationResult:
    """Run ``scenario`` as one session; its result."""
    return replicate(
        scenario, system, scheduler, 1, base_seed=seed,
        frame_loss_probability=frame_loss_probability, **kwargs,
    ).run().sessions[0]
