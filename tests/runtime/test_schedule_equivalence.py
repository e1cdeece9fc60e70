"""Golden-schedule equivalence: the incremental dispatch path is
bit-identical to the recompute-everything formulation it replaced.

The checksums below were generated from the pre-refactor event loop
(which rebuilt the waiting list, re-sorted the resumable list and
re-scanned engine idleness on every scheduler pass) over every
registered scheduler x both granularities x 1/4/16 sessions.  The
maintained-state dispatch path must reproduce every schedule exactly:
each checksum hashes the full ``(start_s, sub_index, task_code)``
execution log, so any reordering, timing drift, or dropped/duplicated
dispatch changes the digest.  ``GOLDEN_REQUESTS`` adds what the
dispatch log cannot see: every request a run creates, dispatched or
not, with its id, timing and terminal state, and the per-session QoE
denominators.  ``GOLDEN_FAULT_LOGS`` pins the fault-recovery decisions
(kills, retries, requeues, abandoned retries) per session.
``GOLDEN_WIDE`` pins every policy on a four-engine fleet, where engine
choice is not decided between two engines.  ``GOLDEN_GOVERNED`` and
``GOLDEN_DYNAMIC_DVFS`` pin the DVFS governors' choices: the point every
dispatch ran at and the energy it was charged.  ``GOLDEN_HORIZON`` pins
a session group whose degrade actions cancel phases while their arrival
streams still run.

If a deliberate scheduling-semantics change ever invalidates these,
regenerate with ``checksum_of(run_case(...))`` (or
``request_checksum_of``) and say so loudly in the commit message — this
file is the contract that perf work does not move schedules.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from sim_helpers import replicate

from repro.hardware import build_accelerator
from repro.runtime import (
    MultiScenarioSimulator,
    SessionPhase,
    SessionSpec,
    make_fault_plan,
    make_scheduler,
)
from repro.runtime.segmentation import dispatch_segment_code
from repro.workload import churn_windows, get_scenario

#: One workload fixed forever: vr_gaming on accelerator J at 8192 PEs,
#: 0.25 streamed seconds, base seed 0, default 2-way splits.
SCENARIO = "vr_gaming"
ACCELERATOR = "J"
PES = 8192
DURATION_S = 0.25
BASE_SEED = 0

#: (scheduler, granularity, sessions) -> (record count, sha256 digest),
#: generated from the pre-refactor dispatch loop.
GOLDEN: dict[tuple[str, str, int], tuple[int, str]] = {
    ("latency_greedy", "model", 1):
        (42, "50a395771a3e90f3c3b255b27adde908db1b05128ec182d81a0d5b3df2c68381"),
    ("latency_greedy", "model", 4):
        (94, "9eb2c3d3ab1bfef2c54812278945f8a81e6c31249d1843a993087e5fcae019bb"),
    ("latency_greedy", "model", 16):
        (129, "7aeeb97cd83488dba582d207ec91c3c25ccde87724470d6e8973a9555b3ff33c"),
    ("latency_greedy", "segment", 1):
        (84, "adc70ad2afa83af9c3e4104cb8e8f8eaa8c20879ca057b36727af10384ea91a4"),
    ("latency_greedy", "segment", 4):
        (188, "8f960f35ebae561e6e28d46ee042f0a33e1825bc89344bb73f3432e8ca4e29fc"),
    ("latency_greedy", "segment", 16):
        (258, "9dd5ca29e0ceede2ad2f235a81501ae025bebf27f3f98fa93cdc92374499d4dc"),
    ("round_robin", "model", 1):
        (42, "d27f23b3db03e798d2888b010669a81ab6fce502b8eb5bb84f7d045d52ba7bd5"),
    ("round_robin", "model", 4):
        (94, "9eb2c3d3ab1bfef2c54812278945f8a81e6c31249d1843a993087e5fcae019bb"),
    ("round_robin", "model", 16):
        (129, "7aeeb97cd83488dba582d207ec91c3c25ccde87724470d6e8973a9555b3ff33c"),
    ("round_robin", "segment", 1):
        (84, "77efeaed135fecb9f00df37b7f11d1fbb0fe32fed7cb3bc5e3787aee90a5a67a"),
    ("round_robin", "segment", 4):
        (188, "8f960f35ebae561e6e28d46ee042f0a33e1825bc89344bb73f3432e8ca4e29fc"),
    ("round_robin", "segment", 16):
        (258, "9dd5ca29e0ceede2ad2f235a81501ae025bebf27f3f98fa93cdc92374499d4dc"),
    ("edf", "model", 1):
        (42, "50a395771a3e90f3c3b255b27adde908db1b05128ec182d81a0d5b3df2c68381"),
    ("edf", "model", 4):
        (97, "fe382b9338fc7639ec3efd4854152572e992193b2f091fd3ed579dc7e7c5f350"),
    ("edf", "model", 16):
        (139, "b06d7dc2ba994b5dfa9789486284131925194c0e4df047ef4fee700615579813"),
    ("edf", "segment", 1):
        (84, "adc70ad2afa83af9c3e4104cb8e8f8eaa8c20879ca057b36727af10384ea91a4"),
    ("edf", "segment", 4):
        (194, "0a672de99e6bb8e8828682e1e38d943201c40f869de34ae16b0c114037d98e60"),
    ("edf", "segment", 16):
        (278, "2ebdb33cef3a57084262b3748f431f0fdf33c0441fbcad4f597e030a82d76857"),
    ("rate_monotonic", "model", 1):
        (42, "50a395771a3e90f3c3b255b27adde908db1b05128ec182d81a0d5b3df2c68381"),
    ("rate_monotonic", "model", 4):
        (114, "5077a526d740ce000f9657955f680ad2520783367d9dc6f700424d2c6db8ea22"),
    ("rate_monotonic", "model", 16):
        (148, "2d35dc63efd6204b20d40091f2ac6a7d5647e63006d9c83e3e59e4a5817ab71f"),
    ("rate_monotonic", "segment", 1):
        (84, "adc70ad2afa83af9c3e4104cb8e8f8eaa8c20879ca057b36727af10384ea91a4"),
    ("rate_monotonic", "segment", 4):
        (228, "2f5cfe0aa7439703ebaafb8dbf6aace2e132947197371f5fef392af95480a3aa"),
    ("rate_monotonic", "segment", 16):
        (296, "11696056b7c19cd34193a213ab483976465433a8d86350c26c30ff0029173f38"),
}


#: (scheduler, granularity, sessions, churn, preemptive, dvfs) ->
#: (record count, sha256 digest).  Same contract as ``GOLDEN`` but over
#: the *dynamic* machinery later PRs added on top of the static cells:
#: session churn (mid-run JOIN/LEAVE), deadline-aware segment preemption,
#: and the slack/race-to-idle DVFS governors.  Generated from the
#: pre-batch-drain event loop so the batched/vectorised dispatch path is
#: pinned against every scheduling feature, not just the static sweep.
GOLDEN_DYNAMIC: dict[
    tuple[str, str, int, float, bool, str], tuple[int, str]
] = {
    ("latency_greedy", "model", 16, 0.25, False, "static"):
        (54, "492aafeeeb32db44475a12c765167d311e298d9d10bea46927039beeca680e5b"),
    ("latency_greedy", "segment", 16, 0.25, False, "static"):
        (108, "1e8ec71575f809f04467cf25525896d49bed616d0e14db1c2a664d193fb14aa4"),
    ("round_robin", "model", 16, 0.25, False, "static"):
        (54, "492aafeeeb32db44475a12c765167d311e298d9d10bea46927039beeca680e5b"),
    ("edf", "segment", 16, 0.0, True, "static"):
        (278, "2ebdb33cef3a57084262b3748f431f0fdf33c0441fbcad4f597e030a82d76857"),
    ("edf", "segment", 16, 0.25, True, "static"):
        (169, "3c93a01a74171c2f3d8437ba75e570944607cde26d4b437dc412e71b11b0b55b"),
    ("rate_monotonic", "segment", 4, 0.25, True, "static"):
        (149, "4b44dd22698e00ae518c4e5018525fb3e26bd8f341d862772c1b0243849dff02"),
    ("latency_greedy", "model", 16, 0.0, False, "slack"):
        (127, "09bc715155ac86198ff6f78cde7ea378bca50ea3939f19c22a99b69ca055499b"),
    ("latency_greedy", "segment", 16, 0.0, False, "slack"):
        (254, "2ff969a9be60447c845a44c4f8a83be81964e995aa4af3d7bb27513ef3380799"),
    ("edf", "model", 4, 0.0, False, "race_to_idle"):
        (122, "20d914b7866277e521032bd96a78380ab96c9427387397d16499a33973edcf43"),
    ("edf", "segment", 16, 0.25, True, "slack"):
        (185, "0044a3f710e30b66be4b1ac9d1ee5a33c03154bee2c0079c3629297711d53302"),
}


#: (scheduler, granularity, sessions, fault profile) ->
#: (record count, sha256 digest).  Same contract again, over the
#: fault-injection machinery: seeded engine failures, recovery, the
#: in-flight kill/requeue path and thermal DVFS clamps.  Fault plans are
#: deterministic in (profile, seed), so these digests pin the *entire*
#: resilience path — which dispatch gets killed, when the retry lands,
#: which surviving engine absorbs the requeued frame, and how thermal
#: caps reshape every subsequent dispatch.
GOLDEN_FAULTS: dict[tuple[str, str, int, str], tuple[int, str]] = {
    ("latency_greedy", "model", 4, "single"):
        (71, "cc01de145e2698654f92fc7bc442fc6dfad44ef549cc157af5e043dc588e457c"),
    ("latency_greedy", "segment", 16, "single"):
        (213, "40cff6b4bfbad7c5cc82410c91af2ed281a2b4e9cd53d34e504bb15786065d53"),
    ("edf", "segment", 4, "flaky"):
        (179, "d92b8cccf2d5684f1c8bb75fc23aeaa1b137f7452c08b70ca40bb1581fb56a08"),
    ("latency_greedy", "model", 4, "thermal"):
        (86, "7ff37d20c1f09ead270911b82d293505a041de9b5b90c354aeef87c3788607e9"),
    ("rate_monotonic", "model", 16, "flaky"):
        (137, "f6481f4aebbc2f2638f22f1b53df493e68dc0233cdcb6f217bf5a911c1c59e95"),
}


#: name -> ``run_case`` arguments of the request-level golden cells:
#: one static cell plus one per mechanism that decides a request's fate
#: besides the dispatch log — churn with preemption and the slack
#: governor, a mid-run activity switch, both admission policies (the
#: degrade cell fires 4 degrade actions, so cancelled phase tails are
#: uncounted) and engine faults.  Two cells pin the phase-membership
#: checks: ``phase_same_2`` switches to the *same* activity, so the new
#: phase keeps the ES -> GE dependency live and a stale-phase completion
#: that spawned a dependent would show; ``degrade_flaky_6`` reaches a
#: retry that fires after a degrade phase change (``session_gone``) and
#: a segment chain stopped by a phase change.
REQUEST_CELLS: dict[str, dict] = {
    "static_16": dict(scheduler="latency_greedy", granularity="model",
                      sessions=16),
    "churn_edf_slack_16": dict(scheduler="edf", granularity="segment",
                               sessions=16, churn=0.25, preemptive=True,
                               dvfs="slack"),
    "phase_4": dict(scheduler="latency_greedy", granularity="model",
                    sessions=4, phase="social_interaction_b"),
    "degrade_16": dict(scheduler="latency_greedy", granularity="model",
                       sessions=16, admission="degrade"),
    "shed_16": dict(scheduler="latency_greedy", granularity="model",
                    sessions=16, admission="shed"),
    "flaky_4": dict(scheduler="edf", granularity="segment", sessions=4,
                    faults="flaky"),
    "phase_same_2": dict(scheduler="edf", granularity="segment",
                         sessions=2, phase="vr_gaming"),
    "degrade_flaky_6": dict(scheduler="edf", granularity="segment",
                            sessions=6, faults="flaky",
                            admission="degrade"),
}

#: name -> sha256 of :func:`request_checksum_of`.  The schedule digests
#: above see only what dispatched; these pin every request a run
#: creates — including the ones superseded before they ever ran — with
#: its run-scoped id, timing and terminal state, and each session's
#: QoE denominators (``spawned_frames``).
GOLDEN_REQUESTS: dict[str, str] = {
    "static_16":
        "7635b8264dc648afe8b9573dc556dedb009e0f0eedf41bdc355ba2f5a880ac9d",
    "churn_edf_slack_16":
        "884df9da043a18c7f46d48d3de27923927b99f6595d9cdb0aaaf37b22f30e533",
    "phase_4":
        "8f840a6944820811fba61d56daf27d6ea7fd8a396da810b49120d6ede9b0f9e5",
    "degrade_16":
        "54cba11765e4c7fefb0494d1fae16f7ade4357da647ee7214bca94d8cc9f9ab8",
    "shed_16":
        "99875101a7a812a44d148de2803a59d5002c19e95422731a1f9dae9566460b23",
    "flaky_4":
        "6ba343395759f7b1c5eb6bf53ce6502aa34147b96418b53bc3a103c665315ced",
    "phase_same_2":
        "1255c103c25ec910c4cc7d0c0c3d651c6cec8f21432588c39f28a8d066f108ed",
    "degrade_flaky_6":
        "39b60181f138e7634368e39ee6352972aad0326cae293c6c0faaf0c146443e7f",
}

#: name (a ``REQUEST_CELLS`` key) -> sha256 of :func:`fault_log_checksum_of`:
#: every session's fault-recovery log, so a retry that requeues where it
#: should have been abandoned (or the reverse) fails even when the
#: request rows happen to agree.
GOLDEN_FAULT_LOGS: dict[str, str] = {
    "flaky_4":
        "498d72a3e40ee2f0510b888d31d05e24cd48c42b6c89b5e69472bcef870ecc82",
    "degrade_flaky_6":
        "c1adb0985d8ede24bc66bca7dfe11cd3c0e660bd678a99643e67a6dc597bc436",
}


#: (scheduler, granularity) -> (record count, sha256 digest) of
#: ``WIDE_SESSIONS`` sessions on accelerator ``WIDE_ACCELERATOR``.  Every
#: cell above runs on J's two engines, where an idle list is ``[0, 1]``
#: or a single engine, so an engine's index always equals its position
#: in the list.  M has four engines (WS/OS/WS/OS: two pairs that tie on
#: latency), so its idle lists include ones like ``[1, 3]``, and engine
#: choice must map the chosen index, and break ties, correctly.
WIDE_ACCELERATOR = "M"
WIDE_SESSIONS = 16
GOLDEN_WIDE: dict[tuple[str, str], tuple[int, str]] = {
    ("latency_greedy", "model"):
        (132, "b1c861fc3640ec56a211b6a3828da5044073e245d4d074ce1381652a6a441b69"),
    ("latency_greedy", "segment"):
        (264, "a0d2226f034e588ce76f9e0e4af3302753f2d4629bfd7a42aa12b0de4a883531"),
    ("round_robin", "model"):
        (131, "93484778950bc48a64291bff3c6a9bba94fa32b2112f75bc1ee00a68e7553eca"),
    ("round_robin", "segment"):
        (262, "c70ac1f0a081d8c4e309575c10f4430ef2a31b1e85d6018680fab7467474737b"),
    ("edf", "model"):
        (145, "a80b871c1173de837c12b0994b222e77ca648b444252c25a7f55280289a1997a"),
    ("edf", "segment"):
        (290, "ddfde93ab74695facca53c1ded4caf2cac00e34be2d7eabdd82d61730359a80b"),
    ("rate_monotonic", "model"):
        (163, "de6f83297663ba3ebe8858c2a55de904d98a948f55eb62ef5dad60b0c2806cdb"),
    ("rate_monotonic", "segment"):
        (326, "dc456666e5779db39a28b223f98c716a9315f36a6d1bcd4bfc99c4ff7b69b00e"),
}

#: (scheduler, granularity) -> sha256 of :func:`request_checksum_of` for
#: the ``GOLDEN_WIDE`` cells.  The schedule digest does not record which
#: session a dispatch served, so two same-instant dispatches that trade
#: engines between sessions leave it unchanged; the requests' end times
#: do not.
GOLDEN_WIDE_REQUESTS: dict[tuple[str, str], str] = {
    ("latency_greedy", "model"):
        "2e223da8ed5178869e555ca4dc2339f0241cab227c510e5ffb7c20a4577e7077",
    ("latency_greedy", "segment"):
        "2e223da8ed5178869e555ca4dc2339f0241cab227c510e5ffb7c20a4577e7077",
    ("round_robin", "model"):
        "82a858b4feb2b934171097adf2db9ff03b43e5a3feb609ad9a7d95884d8c7cf6",
    ("round_robin", "segment"):
        "82a858b4feb2b934171097adf2db9ff03b43e5a3feb609ad9a7d95884d8c7cf6",
    ("edf", "model"):
        "ef201398c71cee271d03ca72f0a688376087f596a35d4a86e66d54b7f77651ad",
    ("edf", "segment"):
        "ef201398c71cee271d03ca72f0a688376087f596a35d4a86e66d54b7f77651ad",
    ("rate_monotonic", "model"):
        "e7af6bda87fc30b66c0522440337a100abe95a81d9e0410e8e992df14eadc59f",
    ("rate_monotonic", "segment"):
        "e7af6bda87fc30b66c0522440337a100abe95a81d9e0410e8e992df14eadc59f",
}


#: name -> ``run_case`` arguments of the governed golden cells.  The
#: governed ``GOLDEN_DYNAMIC`` cells never downshift outside a thermal
#: clamp, never meet a thermal fault and run on J's two engines only:
#: ``slack_wide_2`` downshifts (eco) and races (boost) on M's four
#: engines, and the two thermal cells run each governor against a
#: thermal ceiling, where the clamped ladder decides.
GOVERNED_CELLS: dict[str, dict] = {
    "slack_wide_2": dict(scheduler="edf", granularity="segment",
                         sessions=2, dvfs="slack", accelerator="M"),
    "slack_thermal_2": dict(scheduler="edf", granularity="segment",
                            sessions=2, dvfs="slack", faults="thermal"),
    "race_thermal_4": dict(scheduler="latency_greedy", granularity="model",
                           sessions=4, dvfs="race_to_idle",
                           faults="thermal"),
}

#: name -> ((record count, :func:`checksum_of` digest),
#: :func:`request_checksum_of` digest, :func:`dvfs_checksum_of` digest).
GOLDEN_GOVERNED: dict[str, tuple[tuple[int, str], str, str]] = {
    "slack_wide_2": (
        (168, "25ddcbca3a012af78d2ce684af66266fc49cb040038254cc41fae00cdeb7c09b"),
        "078ab7df44a63f3ce6e148258e58420c974a9b7a909a0c5623635d22c2f2b2db",
        "929e99eddd1fb651ac2bae33d8d7c3317f481faa0d911fb05d601c5fa9a55eb6",
    ),
    "slack_thermal_2": (
        (158, "a9bbaa3d0e9ed47189252634b6d5e3a921984da6a29fbaf67b36fc93259c0fa5"),
        "b566376d9903be317549baeb2f32ac26b6123418d5f6f520853136b5aff7a8c9",
        "a995094c2465417cd08e425b2343cc189b076a8328f67a1389c9444cc935acfa",
    ),
    "race_thermal_4": (
        (100, "7b4cd3c99919ef6926402fdeb6fc3c846088bdcb28a7179c0ba2c691ef3ec07e"),
        "ca3bd2931a4808823f063aee431c3edee809af9b3511ba44f796356af2a5064d",
        "1f72371f989aea9e8072a0b1e0f8dacf4a468eb18a0f2f6b75f2ed023b0546d8",
    ),
}

#: ``GOLDEN_DYNAMIC`` key -> :func:`dvfs_checksum_of` digest, for the
#: governed cells there: their schedule digests record neither the
#: point each dispatch ran at nor the energy it was charged.
GOLDEN_DYNAMIC_DVFS: dict[tuple[str, str, int, float, bool, str], str] = {
    ("edf", "model", 4, 0.0, False, "race_to_idle"):
        "4700c303e9dee1768c080b358956158103aae38f365a1561bf17cbcad494a6a0",
    ("edf", "segment", 16, 0.25, True, "slack"):
        "789e8b834425fd8af6977ad0c03e8777bfdcaebac3b2e99b27a0482ed5dff2af",
    ("latency_greedy", "model", 16, 0.0, False, "slack"):
        "b15dcd0f8e4818a04a642cc439c6e9bb5164ae8adf2956be4335756add8ff577",
    ("latency_greedy", "segment", 16, 0.0, False, "slack"):
        "34ec75297dc248bec403768272f06e462e5832e718f30150b69a07aeff119b57",
}

#: ``RunSpec`` fields of the dynamic session group
#: ``tests/core/test_aggregate.py`` scores: all 8 sessions degrade to
#: level 3, under preemptive EDF, the slack governor, flaky faults and
#: churn.  A degrade action cancels the session's current phase, and that
#: phase's arrival cursor keeps streaming its rows to the end of the
#: phase's original window.  Their frames are uncounted, but the rows stay
#: on the event heap: they are dispatch instants, and they bound the slack
#: governor's event horizon (``DispatchContext.next_event_s``).  No other
#: governed golden runs degrade admission, so a horizon that skipped the
#: tail rows would pass every other golden here and fail the request and
#: DVFS digests of this one.
HORIZON_SPEC: dict = dict(
    scenario=("ar_gaming", "vr_gaming", "social_interaction_a",
              "outdoor_activity_a") * 2,
    accelerator="J", pes=8192, granularity="segment", scheduler="edf",
    preemptive=True, dvfs_policy="slack", admission="degrade",
    faults="flaky", churn=0.25, duration_s=2.0, seed=7,
)

#: ((record count, :func:`checksum_of` digest), :func:`request_checksum_of`
#: digest, :func:`dvfs_checksum_of` digest) of ``HORIZON_SPEC``.
GOLDEN_HORIZON: tuple[tuple[int, str], str, str] = (
    (754, "dd477da9739593aa7919273e7e2dc2dc1b64c3dd13bf7ca07749fef3146118de"),
    "4121ed1713ebfbd43469ba98465d68a473bc1873622c76d8d28e72305cfcce5c",
    "f38973f20dd613ea95d9862dd50835d38ee2b4b9b64d035be54ff0ddd6cecc6e",
)


def run_case(
    scheduler: str,
    granularity: str,
    sessions: int,
    churn: float = 0.0,
    preemptive: bool = False,
    dvfs: str = "static",
    faults: str = "none",
    admission: str = "none",
    phase: str | None = None,
    accelerator: str = ACCELERATOR,
):
    """One golden cell.  ``phase`` names a scenario every session
    switches to halfway through the run (one :class:`SessionPhase`);
    such cells take no churn windows."""
    kwargs = {"preemptive": True} if preemptive else {}
    windows = (
        churn_windows(sessions, DURATION_S, churn, BASE_SEED)
        if churn
        else None
    )
    system = build_accelerator(accelerator, PES)
    policy = make_scheduler(scheduler, **kwargs)
    options = dict(
        duration_s=DURATION_S,
        granularity=granularity,
        dvfs_policy=dvfs,
        faults=make_fault_plan(
            faults, system.num_subs, DURATION_S, seed=BASE_SEED
        ),
        admission=admission,
    )
    if phase is not None:
        switch = (SessionPhase(DURATION_S / 2, get_scenario(phase)),)
        return MultiScenarioSimulator(
            sessions=[
                SessionSpec(i, get_scenario(SCENARIO), BASE_SEED + i,
                            phases=switch)
                for i in range(sessions)
            ],
            system=system,
            scheduler=policy,
            **options,
        ).run()
    return replicate(
        get_scenario(SCENARIO),
        system,
        policy,
        sessions,
        base_seed=BASE_SEED,
        windows=windows,
        **options,
    ).run()


def checksum_of(result) -> tuple[int, str]:
    """(record count, sha256 of the (start_s, sub_index, task_code) log).

    ``start_s`` is rounded to a nanosecond so the digest survives
    last-bit float formatting differences while still flagging any real
    timing change.
    """
    rows = [
        [
            round(r.start_s, 9),
            r.sub_index,
            dispatch_segment_code(r.model_code, r.segment_index,
                                  r.num_segments)
            if r.num_segments > 1
            else r.model_code,
        ]
        for r in result.records
    ]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return len(rows), hashlib.sha256(blob).hexdigest()


def request_checksum_of(result) -> str:
    """sha256 over every session's requests and QoE denominators.

    Per session: its sorted ``spawned_frames`` and one row per request
    in log order — id, model, frame, request time, deadline, ``dropped``,
    ``failed_faulted`` and end time — with times rounded to a
    nanosecond like :func:`checksum_of`.
    """

    def ns(t):
        return None if t is None else round(t, 9)

    doc = [
        [
            sorted(session.spawned_frames.items()),
            [
                [r.request_id, r.model_code, r.model_frame,
                 ns(r.request_time_s), ns(r.deadline_s), r.dropped,
                 r.failed_faulted, ns(r.end_time_s)]
                for r in session.requests
            ],
        ]
        for session in result.sessions
    ]
    blob = json.dumps(doc, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def dvfs_checksum_of(result) -> str:
    """sha256 of the (start_s, sub_index, dvfs, energy_mj) log.

    One row per record, like :func:`checksum_of`: the name of the DVFS
    point the interval ran at and the energy it was charged, with the
    start time and the energy rounded to 1e-9 so a last-bit difference
    in float summation cannot move the digest.
    """
    rows = [
        [round(r.start_s, 9), r.sub_index, r.dvfs, round(r.energy_mj, 9)]
        for r in result.records
    ]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def fault_log_checksum_of(result) -> str:
    """sha256 over every session's :class:`~repro.runtime.FaultRecord`.

    Per session in id order: ``killed``, ``retries``, ``recovered`` and
    ``lost``, the recovery latencies, and one row per action — time,
    kind, engine index, request id, model code and attempt — with times
    rounded to a nanosecond.  A session without a record is ``null``.
    """
    doc = [
        None if (log := session.faults) is None else [
            log.killed, log.retries, log.recovered, log.lost,
            [round(t, 9) for t in log.recovery_latencies_s],
            [
                [round(a.time_s, 9), a.kind, a.engine_index, a.request_id,
                 a.model_code, a.attempt]
                for a in log.actions
            ],
        ]
        for session in result.sessions
    ]
    blob = json.dumps(doc, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize(
    "scheduler,granularity,sessions",
    sorted(GOLDEN),
    ids=lambda v: str(v),
)
def test_schedule_matches_pre_refactor_golden(scheduler, granularity,
                                              sessions):
    result = run_case(scheduler, granularity, sessions)
    assert checksum_of(result) == GOLDEN[(scheduler, granularity, sessions)]


@pytest.mark.parametrize(
    "scheduler,granularity,sessions,churn,preemptive,dvfs",
    sorted(GOLDEN_DYNAMIC),
    ids=lambda v: str(v),
)
def test_dynamic_schedule_matches_golden(scheduler, granularity, sessions,
                                         churn, preemptive, dvfs):
    result = run_case(scheduler, granularity, sessions, churn, preemptive,
                      dvfs)
    key = (scheduler, granularity, sessions, churn, preemptive, dvfs)
    assert checksum_of(result) == GOLDEN_DYNAMIC[key]
    if key in GOLDEN_DYNAMIC_DVFS:
        assert dvfs_checksum_of(result) == GOLDEN_DYNAMIC_DVFS[key]


def test_every_governed_dynamic_cell_pins_its_dvfs_log():
    governed = {key for key in GOLDEN_DYNAMIC if key[-1] != "static"}
    assert governed == set(GOLDEN_DYNAMIC_DVFS)


@pytest.mark.parametrize("cell", sorted(GOLDEN_GOVERNED))
def test_governed_cells_match_golden(cell):
    result = run_case(**GOVERNED_CELLS[cell])
    schedule, requests, dvfs = GOLDEN_GOVERNED[cell]
    assert checksum_of(result) == schedule
    assert request_checksum_of(result) == requests
    assert dvfs_checksum_of(result) == dvfs


def run_horizon_spec():
    """``HORIZON_SPEC`` through the public API."""
    from repro.api import RunSpec, execute

    return execute(RunSpec(**HORIZON_SPEC)).result


def test_cancelled_phase_tails_keep_the_governor_horizon():
    result = run_horizon_spec()
    schedule, requests, dvfs = GOLDEN_HORIZON
    assert checksum_of(result) == schedule
    assert request_checksum_of(result) == requests
    assert dvfs_checksum_of(result) == dvfs


@pytest.mark.parametrize(
    "scheduler,granularity,sessions,faults",
    sorted(GOLDEN_FAULTS),
    ids=lambda v: str(v),
)
def test_fault_schedule_matches_golden(scheduler, granularity, sessions,
                                       faults):
    result = run_case(scheduler, granularity, sessions, faults=faults)
    key = (scheduler, granularity, sessions, faults)
    assert checksum_of(result) == GOLDEN_FAULTS[key]


@pytest.mark.parametrize("cell", sorted(GOLDEN_REQUESTS))
def test_requests_match_golden(cell):
    result = run_case(**REQUEST_CELLS[cell])
    assert request_checksum_of(result) == GOLDEN_REQUESTS[cell]


@pytest.mark.parametrize("cell", sorted(GOLDEN_FAULT_LOGS))
def test_fault_logs_match_golden(cell):
    result = run_case(**REQUEST_CELLS[cell])
    assert fault_log_checksum_of(result) == GOLDEN_FAULT_LOGS[cell]


@pytest.mark.parametrize(
    "scheduler,granularity",
    sorted(GOLDEN_WIDE),
    ids=lambda v: str(v),
)
def test_wide_fleet_schedule_matches_golden(scheduler, granularity):
    result = run_case(scheduler, granularity, WIDE_SESSIONS,
                      accelerator=WIDE_ACCELERATOR)
    key = (scheduler, granularity)
    assert checksum_of(result) == GOLDEN_WIDE[key]
    assert request_checksum_of(result) == GOLDEN_WIDE_REQUESTS[key]


def test_faults_none_is_bit_identical_to_historical_path():
    """``faults="none"`` must not perturb a single dispatch: the run is
    byte-for-byte the pre-fault-injection schedule."""
    plain = run_case("latency_greedy", "model", 4)
    gated = run_case("latency_greedy", "model", 4, faults="none")
    assert checksum_of(gated) == checksum_of(plain)
    assert checksum_of(gated) == GOLDEN[("latency_greedy", "model", 4)]


def test_golden_covers_every_registered_scheduler():
    """New policies must be added to the golden table (or this reminds you)."""
    from repro.runtime import SCHEDULERS

    covered = {scheduler for scheduler, _, _ in GOLDEN}
    assert covered == set(SCHEDULERS), (
        "schedulers missing from the golden table: "
        f"{sorted(set(SCHEDULERS) - covered)}"
    )


def test_checksum_is_schedule_sensitive():
    """Sanity: the digest actually distinguishes different schedules."""
    a = checksum_of(run_case("latency_greedy", "model", 4))
    b = checksum_of(run_case("edf", "model", 4))
    assert a != b


# -- plan-path equivalence ----------------------------------------------------
#
# PR 9 split execution into compile_plan(spec) -> execute_plan(plan).
# Every golden cell is re-asserted through that seam: the spec compiles
# to a DispatchPlan, the plan round-trips through JSON, and the executor
# replays it to the exact pre-plan schedule.  A 1-tuple scenario forces
# sessions=1 cells into the multi-tenant engine run_case exercises
# (a bare string would route to the single-tenant simulator).


def run_case_via_plan(
    scheduler: str,
    granularity: str,
    sessions: int,
    churn: float = 0.0,
    preemptive: bool = False,
    dvfs: str = "static",
    faults: str = "none",
):
    from repro.api import DispatchPlan, RunSpec, compile_plan, execute_plan

    spec = RunSpec(
        scenario=(SCENARIO,) * sessions,
        accelerator=ACCELERATOR,
        pes=PES,
        scheduler=scheduler,
        granularity=granularity,
        duration_s=DURATION_S,
        seed=BASE_SEED,
        churn=churn,
        preemptive=preemptive,
        dvfs_policy=dvfs,
        faults=faults,
    )
    plan = DispatchPlan.from_json(compile_plan(spec).to_json())
    return execute_plan(plan).result


@pytest.mark.parametrize(
    "scheduler,granularity,sessions",
    sorted(GOLDEN),
    ids=lambda v: str(v),
)
def test_plan_path_matches_golden(scheduler, granularity, sessions):
    result = run_case_via_plan(scheduler, granularity, sessions)
    assert checksum_of(result) == GOLDEN[(scheduler, granularity, sessions)]


@pytest.mark.parametrize(
    "scheduler,granularity,sessions,churn,preemptive,dvfs",
    sorted(GOLDEN_DYNAMIC),
    ids=lambda v: str(v),
)
def test_plan_path_matches_dynamic_golden(scheduler, granularity, sessions,
                                          churn, preemptive, dvfs):
    result = run_case_via_plan(scheduler, granularity, sessions, churn,
                               preemptive, dvfs)
    key = (scheduler, granularity, sessions, churn, preemptive, dvfs)
    assert checksum_of(result) == GOLDEN_DYNAMIC[key]


@pytest.mark.parametrize(
    "scheduler,granularity,sessions,faults",
    sorted(GOLDEN_FAULTS),
    ids=lambda v: str(v),
)
def test_plan_path_matches_fault_golden(scheduler, granularity, sessions,
                                        faults):
    result = run_case_via_plan(scheduler, granularity, sessions,
                               faults=faults)
    key = (scheduler, granularity, sessions, faults)
    assert checksum_of(result) == GOLDEN_FAULTS[key]
