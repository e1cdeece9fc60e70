"""Command-line interface: ``xrbench``.

Every executing subcommand parses its flags into a single declarative
:class:`repro.api.RunSpec` and runs it through the one
:func:`repro.api.execute` funnel — the CLI is a spec compiler, not a
second execution path.

Subcommands:

* ``run`` — run one scenario (or a spec file via ``--spec``) and print
  the report.
* ``suite`` — run the full seven-scenario suite on one accelerator.
* ``plan`` — compile a spec into its frozen
  :class:`repro.api.DispatchPlan` artifact (JSON, validated in CI
  against ``schema/dispatchplan.schema.json``) without executing
  anything; ``--diff A.json B.json`` renders a structured
  field-by-field diff between two compiled plans.
* ``sweep`` — expand a cartesian scenario x accelerator grid and run it
  (optionally on worker processes); ``--dry-run`` emits the expanded
  specs plus per-cell plan fingerprints and cost/duration estimates
  from the compiled plans, as JSON for external runners (validated in
  CI against ``schema/runspec.schema.json``).
* ``figure5`` / ``figure6`` / ``figure7`` / ``figure8`` — regenerate the
  paper's evaluation figures as text tables.
* ``tables`` — print the definitional tables (1, 2, 3, 5, 6, 7).
* ``models`` — per-model layer summaries and cost-model estimates.
* ``ablations`` / ``pareto`` / ``stats`` — design-choice ablations,
  Pareto-frontier analysis and multi-seed statistics.
* ``export`` — suite results as a submission payload, JSON or CSV.
* ``report`` — render the persistent run database (``--record`` on the
  executing subcommands appends to it) as markdown or HTML, including
  the QoE/throughput/energy Pareto frontier across admission policies.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.api import (
    ADMISSION_POLICIES,
    DVFS_POLICIES,
    FAULT_PROFILES,
    Experiment,
    RunSpec,
    StreamSink,
    Sweep,
    execute,
)
from repro.costmodel import CostTable, Dataflow
from repro.costmodel.analysis import ordered_sum
from repro.hardware import ACCELERATOR_IDS
from repro.lint.cli import add_lint_arguments, run as run_lint_command
from repro.workload import SCENARIO_ORDER, UNIT_MODELS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xrbench",
        description="XRBench (MLSys 2023) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags default to None so "not passed" is distinguishable from
    # "passed the default value": _spec_from_args fills in the RunSpec
    # defaults, and `run --spec` treats any explicitly-passed flag as an
    # override of the corresponding spec field.  A figure sets the PE
    # budgets (and Figure 7 the seeds) itself, so it offers no flag the
    # run would ignore.
    def add_common(
        p: argparse.ArgumentParser, *, pes: bool = True, seed: bool = True,
    ) -> None:
        if pes:
            p.add_argument(
                "--pes", type=int, default=None,
                help="total PE budget (default 4096)",
            )
        if seed:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument(
            "--duration", type=float, default=None,
            help="streamed seconds per run (default 1.0)",
        )
        p.add_argument(
            "--scheduler", default=None,
            choices=["latency_greedy", "round_robin", "edf",
                     "rate_monotonic"],
        )
        p.add_argument(
            "--frame-loss", type=float, default=None,
            help="failure injection: sensor frame-loss probability",
        )
        p.add_argument(
            "--score-preset", default=None,
            help="named scoring preset (default 'default')",
        )

    def add_dynamics(p: argparse.ArgumentParser) -> None:
        """Session-churn and DVFS flags (run/suite/sweep/export)."""
        p.add_argument(
            "--churn", type=float, default=None, metavar="F",
            help="session churn: arrivals spread over the first F and "
                 "departures over the last F fraction of the duration "
                 "(0..0.5; default 0 = static sessions)",
        )
        p.add_argument(
            "--dvfs", default=None, choices=list(DVFS_POLICIES),
            help="runtime DVFS governor: static (default; fixed "
                 "per-engine operating points), slack (spend deadline "
                 "slack on slower, cheaper points per dispatch) or "
                 "race_to_idle (always the fastest point)",
        )
        p.add_argument(
            "--admission", default=None, choices=list(ADMISSION_POLICIES),
            help="QoE admission controller: none (default), shed "
                 "(reject/drop lowest-priority sessions under overload) "
                 "or degrade (switch struggling sessions to cheaper "
                 "model variants mid-run)",
        )
        p.add_argument(
            "--faults", default=None, choices=list(FAULT_PROFILES),
            help="fault-injection profile: none (default), single (one "
                 "engine dies mid-run and recovers late), flaky (three "
                 "short outages on varying engines) or thermal (one "
                 "engine hits a DVFS ceiling mid-run); the event "
                 "timeline is deterministic from (profile, seed)",
        )
        p.add_argument(
            "--record", nargs="?", const="runs/runs.jsonl", default=None,
            metavar="DB.jsonl",
            help="append this run's metrics to the JSON-lines run "
                 "database (default path runs/runs.jsonl); render it "
                 "later with 'xrbench report'",
        )

    run_p = sub.add_parser("run", help="run one scenario on one accelerator")
    run_p.add_argument("scenario", nargs="?", default=None,
                       choices=list(SCENARIO_ORDER))
    run_p.add_argument("accelerator", nargs="?", default=None,
                       choices=list(ACCELERATOR_IDS))
    run_p.add_argument(
        "--spec", default=None, metavar="SPEC.json",
        help="load the RunSpec from a JSON file (mutually exclusive with "
             "the positionals); flags set to non-default values override "
             "the corresponding spec fields",
    )
    run_p.add_argument("--timeline", action="store_true",
                       help="print the execution timeline")
    run_p.add_argument(
        "--sessions", type=int, default=None,
        help="concurrent tenant sessions multiplexed onto the system "
             "(distinct seeds; default 1)",
    )
    run_p.add_argument(
        "--granularity", default=None, choices=["model", "segment"],
        help="dispatch whole models, or split models at segment "
             "boundaries so long inferences yield engines (default model)",
    )
    run_p.add_argument(
        "--segments", type=int, default=None,
        help="target segments per model at --granularity segment "
             "(default 2)",
    )
    run_p.add_argument(
        "--preemptive", action="store_const", const=True, default=None,
        help="deadline-aware segment preemption at segment boundaries "
             "(needs --granularity segment and --scheduler edf or "
             "rate_monotonic)",
    )
    add_common(run_p)
    add_dynamics(run_p)

    suite_p = sub.add_parser("suite", help="run the full scenario suite")
    suite_p.add_argument("accelerator", choices=list(ACCELERATOR_IDS))
    add_common(suite_p)
    add_dynamics(suite_p)

    plan_p = sub.add_parser(
        "plan",
        help="compile a spec into its DispatchPlan artifact, or diff two "
             "compiled plans",
    )
    plan_p.add_argument("scenario", nargs="?", default=None,
                        choices=list(SCENARIO_ORDER))
    plan_p.add_argument("accelerator", nargs="?", default=None,
                        choices=list(ACCELERATOR_IDS))
    plan_p.add_argument(
        "--spec", default=None, metavar="SPEC.json",
        help="load the RunSpec from a JSON file (mutually exclusive with "
             "the positionals); flags set to non-default values override "
             "the corresponding spec fields",
    )
    plan_p.add_argument(
        "--diff", nargs=2, default=None, metavar=("A.json", "B.json"),
        help="render a structured field-by-field diff between two "
             "compiled plan artifacts instead of compiling one",
    )
    plan_p.add_argument(
        "--json", action="store_true",
        help="with --diff: emit the diff entries as a JSON array",
    )
    plan_p.add_argument(
        "--output", default=None, metavar="PLAN.json",
        help="write the compiled plan here instead of stdout",
    )
    plan_p.add_argument("--sessions", type=int, default=None)
    plan_p.add_argument("--granularity", default=None,
                        choices=["model", "segment"])
    plan_p.add_argument("--segments", type=int, default=None)
    plan_p.add_argument("--preemptive", action="store_const", const=True,
                        default=None)
    add_common(plan_p)
    add_dynamics(plan_p)

    sweep_p = sub.add_parser(
        "sweep", help="run a cartesian scenario x accelerator grid"
    )
    sweep_p.add_argument(
        "--scenario", action="append", choices=list(SCENARIO_ORDER),
        help="repeatable; default: the full seven-scenario order",
    )
    sweep_p.add_argument(
        "--accelerator", action="append", choices=list(ACCELERATOR_IDS),
        help="repeatable; default: J",
    )
    sweep_p.add_argument(
        "--workers", type=int, default=1,
        help="process-pool workers (default 1: serial, shared cost cache)",
    )
    sweep_p.add_argument(
        "--dry-run", action="store_true",
        help="emit the expanded specs as JSON instead of executing",
    )
    sweep_p.add_argument(
        "--progress", action="store_true",
        help="stream per-spec progress events to stderr",
    )
    add_common(sweep_p)
    add_dynamics(sweep_p)

    fig5_p = sub.add_parser("figure5", help="regenerate Figure 5")
    fig5_p.add_argument(
        "--metric", default="overall",
        choices=["rt", "energy", "qoe", "overall"],
    )
    add_common(fig5_p, pes=False)

    fig6_p = sub.add_parser("figure6", help="regenerate Figure 6")
    fig6_p.add_argument("--accelerator", default="J",
                        choices=list(ACCELERATOR_IDS))
    add_common(fig6_p, pes=False)

    fig7_p = sub.add_parser("figure7", help="regenerate Figure 7")
    fig7_p.add_argument("--trials", type=int, default=200)
    add_common(fig7_p, pes=False, seed=False)

    sub.add_parser("figure8", help="regenerate Figure 8")

    tables_p = sub.add_parser("tables", help="print definitional tables")
    tables_p.add_argument(
        "--which", default="all",
        choices=["1", "2", "3", "5", "6", "7", "all"],
    )

    models_p = sub.add_parser("models", help="model summaries and costs")
    models_p.add_argument("--code", choices=list(UNIT_MODELS), default=None)
    models_p.add_argument("--pes", type=int, default=4096)

    ablate_p = sub.add_parser("ablations", help="design-choice ablations")
    ablate_p.add_argument(
        "--which", default="all",
        choices=["scheduler", "jitter", "k", "enmax", "dvfs",
                 "quantization", "all"],
    )

    sub.add_parser(
        "observations",
        help="verify the paper's Section 4 claims against this build",
    )

    pareto_p = sub.add_parser(
        "pareto", help="Pareto frontier over accelerator designs"
    )
    pareto_p.add_argument("--pes", type=int, default=4096)

    # A seed sweep sets every seed itself, so it offers no --seed; no
    # abbreviations, so a --seed typed anyway is not read as --seeds.
    stats_p = sub.add_parser(
        "stats", help="multi-seed statistics for a dynamic scenario",
        allow_abbrev=False,
    )
    stats_p.add_argument("scenario", choices=list(SCENARIO_ORDER))
    stats_p.add_argument("accelerator", choices=list(ACCELERATOR_IDS))
    stats_p.add_argument("--seeds", type=int, default=20)
    # No dynamics flags: seed sweeps are single-mode.
    add_common(stats_p, seed=False)

    export_p = sub.add_parser(
        "export", help="suite results as JSON submission or CSV"
    )
    export_p.add_argument("accelerator", choices=list(ACCELERATOR_IDS))
    export_p.add_argument("--format", default="submission",
                          choices=["submission", "json", "csv"])
    export_p.add_argument("--breakdowns", action="store_true")
    add_common(export_p)
    add_dynamics(export_p)

    report_p = sub.add_parser(
        "report", help="render the run database with its QoE Pareto tables"
    )
    report_p.add_argument(
        "--runs", default="runs/runs.jsonl", metavar="DB.jsonl",
        help="JSON-lines run database to render (default runs/runs.jsonl)",
    )
    report_p.add_argument(
        "--format", default="markdown", choices=["markdown", "html"],
    )
    report_p.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the rendered report here instead of stdout",
    )

    lint_p = sub.add_parser(
        "lint",
        help="xrlint: determinism & contract static analysis "
             "(zero unsuppressed findings gates CI)",
    )
    add_lint_arguments(lint_p)

    return parser


#: run-subcommand flag -> (RunSpec field, default when the flag is not
#: passed).  Shared by _spec_from_args and the `run --spec` overrides.
_FLAG_FIELDS = {
    "pes": ("pes", 4096),
    "seed": ("seed", 0),
    "duration": ("duration_s", 1.0),
    "scheduler": ("scheduler", "latency_greedy"),
    "frame_loss": ("frame_loss", 0.0),
    "score_preset": ("score_preset", "default"),
    "sessions": ("sessions", 1),
    "granularity": ("granularity", "model"),
    "segments": ("segments_per_model", 2),
    "churn": ("churn", 0.0),
    "preemptive": ("preemptive", False),
    "dvfs": ("dvfs_policy", "static"),
    "admission": ("admission", "none"),
    "faults": ("faults", "none"),
}


def _flag(args: argparse.Namespace, name: str) -> object:
    """One flag's value, falling back to its default when not passed."""
    field, default = _FLAG_FIELDS[name]
    value = getattr(args, name, None)
    return default if value is None else value


def _spec_from_args(args: argparse.Namespace, **overrides) -> RunSpec:
    """Compile the common flags into a RunSpec, once, for every subcommand.

    ``overrides`` supplies the subcommand-specific fields (scenario,
    suite, sessions, ...); everything else comes from the shared flags.
    """
    return RunSpec(
        accelerator=overrides.pop(
            "accelerator", getattr(args, "accelerator", None) or "J"
        ),
        pes=_flag(args, "pes"),
        scheduler=_flag(args, "scheduler"),
        duration_s=_flag(args, "duration"),
        seed=_flag(args, "seed"),
        frame_loss=_flag(args, "frame_loss"),
        score_preset=_flag(args, "score_preset"),
        churn=_flag(args, "churn"),
        preemptive=_flag(args, "preemptive"),
        dvfs_policy=_flag(args, "dvfs"),
        admission=_flag(args, "admission"),
        faults=_flag(args, "faults"),
        **overrides,
    )


def _explicit_flags(args: argparse.Namespace) -> dict:
    """Explicitly-passed run flags, as RunSpec field overrides for --spec."""
    return {
        field: getattr(args, flag)
        for flag, (field, _) in _FLAG_FIELDS.items()
        if getattr(args, flag, None) is not None
    }


def _record_runs(args: argparse.Namespace, pairs: list[tuple]) -> None:
    """Append (spec, report) pairs to the run database when --record set."""
    path = getattr(args, "record", None)
    if path is None:
        return
    from repro.eval import RunDatabase

    db = RunDatabase(path)
    for spec, report in pairs:
        db.append(spec, report)
    print(f"recorded {len(pairs)} run(s) to {db.path}", file=sys.stderr)


def _load_spec(path: str) -> RunSpec:
    with open(path, encoding="utf-8") as fh:
        return RunSpec.from_dict(json.load(fh))


def _fail(exc: BaseException) -> int:
    """Print a spec/run error cleanly to stderr and return exit code 2.

    ``str(KeyError)`` is the repr of its argument, which would wrap the
    registry's did-you-mean messages in stray quotes.
    """
    message = (
        exc.args[0]
        if isinstance(exc, KeyError) and exc.args
        else str(exc)
    )
    print(message, file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "lint":
        return run_lint_command(
            args.paths,
            output_format=args.format,
            rule_names=args.rule,
            root=args.root,
            list_rules=args.list_rules,
        )

    if args.command == "run":
        try:
            if args.spec is not None:
                if args.scenario is not None or args.accelerator is not None:
                    print("--spec replaces the scenario/accelerator "
                          "positionals; pass one or the other",
                          file=sys.stderr)
                    return 2
                spec = _load_spec(args.spec)
                overrides = _explicit_flags(args)
                if overrides:
                    spec = spec.replace(**overrides)
            else:
                if args.scenario is None or args.accelerator is None:
                    parser.error(
                        "run needs a scenario and an accelerator "
                        "(or --spec SPEC.json)"
                    )
                spec = _spec_from_args(
                    args,
                    scenario=args.scenario,
                    accelerator=args.accelerator,
                    sessions=_flag(args, "sessions"),
                    granularity=_flag(args, "granularity"),
                    segments_per_model=_flag(args, "segments"),
                )
            report = execute(spec)
        except (KeyError, ValueError, OSError) as exc:
            return _fail(exc)
        _record_runs(args, [(spec, report)])
        print(report.summary())
        if args.timeline:
            if spec.mode == "sessions":
                from repro.runtime import render_timeline

                for session in report.result.sessions:
                    print(f"-- session {session.session_id} --")
                    print(render_timeline(session))
            elif spec.mode == "suite":
                for scenario_report in report.scenario_reports:
                    name = scenario_report.simulation.scenario.name
                    print(f"-- {name} --")
                    print(scenario_report.timeline())
            else:
                print(report.timeline())
        return 0

    if args.command == "suite":
        try:
            spec = _spec_from_args(args, suite=True)
            report = execute(spec)
        except (KeyError, ValueError) as exc:
            return _fail(exc)
        _record_runs(args, [(spec, report)])
        print(report.summary())
        return 0

    if args.command == "plan":
        from repro.api import DispatchPlan, compile_plan, diff_plans

        if args.diff is not None:
            if args.scenario is not None or args.spec is not None:
                print("--diff takes two compiled plan files; drop the "
                      "scenario/--spec arguments", file=sys.stderr)
                return 2
            try:
                loaded = []
                for path in args.diff:
                    with open(path, encoding="utf-8") as fh:
                        loaded.append(DispatchPlan.from_json(fh.read()))
                entries = diff_plans(*loaded)
            except (KeyError, ValueError, OSError) as exc:
                return _fail(exc)
            if args.json:
                print(json.dumps(entries, indent=2))
            elif not entries:
                print("plans are identical")
            else:
                for entry in entries:
                    print(f"{entry['path']}: {entry['a']!r} -> "
                          f"{entry['b']!r}")
            return 0
        try:
            if args.spec is not None:
                if args.scenario is not None or args.accelerator is not None:
                    print("--spec replaces the scenario/accelerator "
                          "positionals; pass one or the other",
                          file=sys.stderr)
                    return 2
                spec = _load_spec(args.spec)
                overrides = _explicit_flags(args)
                if overrides:
                    spec = spec.replace(**overrides)
            else:
                if args.scenario is None or args.accelerator is None:
                    parser.error(
                        "plan needs a scenario and an accelerator (or "
                        "--spec SPEC.json, or --diff A.json B.json)"
                    )
                spec = _spec_from_args(
                    args,
                    scenario=args.scenario,
                    accelerator=args.accelerator,
                    sessions=_flag(args, "sessions"),
                    granularity=_flag(args, "granularity"),
                    segments_per_model=_flag(args, "segments"),
                )
            plan = compile_plan(spec)
        except (KeyError, ValueError, OSError) as exc:
            return _fail(exc)
        rendered = plan.to_json(indent=2)
        if args.output is None:
            print(rendered)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
            print(f"wrote {args.output} "
                  f"(fingerprint {plan.fingerprint[:12]})", file=sys.stderr)
        return 0

    if args.command == "sweep":
        if args.workers < 1:
            parser.error(f"--workers must be >= 1, got {args.workers}")
        scenarios = tuple(args.scenario or SCENARIO_ORDER)
        accelerators = tuple(args.accelerator or ("J",))
        try:
            base = _spec_from_args(
                args, scenario=scenarios[0], accelerator=accelerators[0]
            )
            sweep = Sweep(
                base=base,
                grid={"scenario": scenarios, "accelerator": accelerators},
            )
            specs = sweep.expand()
        except (KeyError, ValueError) as exc:
            return _fail(exc)
        if args.dry_run:
            # Per-cell plan fingerprints and cost/duration estimates:
            # cells sharing a workload fingerprint reuse a prior
            # compilation.
            from repro.api import compile_plan, estimate_plan
            from repro.api import workload_fingerprint as workload_fp

            plans: dict[str, object] = {}
            cells = []
            try:
                for spec in specs:
                    plan = compile_plan(
                        spec, reuse=plans.get(workload_fp(spec))
                    )
                    plans[plan.workload_fingerprint] = plan
                    cells.append({
                        "fingerprint": plan.fingerprint,
                        "workload_fingerprint": plan.workload_fingerprint,
                        "estimate": estimate_plan(plan),
                    })
            except (KeyError, ValueError) as exc:
                return _fail(exc)
            print(json.dumps(
                {
                    "sweep": sweep.to_dict(),
                    "specs": [spec.to_dict() for spec in specs],
                    "cells": cells,
                },
                indent=2,
            ))
            return 0
        sinks = [StreamSink(sys.stderr)] if args.progress else []
        experiment = Experiment(name="cli-sweep", specs=tuple(specs))
        try:
            reports = experiment.run(workers=args.workers, sinks=sinks)
        except (KeyError, ValueError) as exc:
            return _fail(exc)
        _record_runs(args, list(zip(specs, reports)))
        print(f"{'scenario':<22s}{'acc':>4s}{'pes':>6s}{'overall':>9s}"
              f"{'rt':>7s}{'qoe':>7s}")
        for spec, report in zip(specs, reports):
            if spec.mode == "sessions":
                # Churned/preemptive sweeps route through the
                # multi-tenant engine: report session means.
                scores = [r.score for r in report.session_reports]
                overall = ordered_sum(s.overall for s in scores) / len(scores)
                rt = ordered_sum(s.rt for s in scores) / len(scores)
                qoe = ordered_sum(s.qoe for s in scores) / len(scores)
            else:
                s = report.score
                overall, rt, qoe = s.overall, s.rt, s.qoe
            print(f"{spec.scenario:<22s}{spec.accelerator:>4s}"
                  f"{spec.pes:>6d}{overall:>9.3f}{rt:>7.3f}"
                  f"{qoe:>7.3f}")
        return 0

    if args.command == "figure5":
        from repro.eval import format_figure5, run_figure5

        try:
            base = _spec_from_args(args, scenario=SCENARIO_ORDER[0])
        except (KeyError, ValueError) as exc:
            return _fail(exc)
        print(format_figure5(run_figure5(base), args.metric))
        return 0

    if args.command == "figure6":
        from repro.eval import format_figure6, run_figure6

        try:
            base = _spec_from_args(args, scenario="ar_gaming")
        except (KeyError, ValueError) as exc:
            return _fail(exc)
        print(format_figure6(run_figure6(base)))
        return 0

    if args.command == "figure7":
        from repro.eval import format_figure7, run_figure7

        try:
            base = _spec_from_args(args, scenario="vr_gaming")
            rows = run_figure7(base, trials=args.trials)
        except (KeyError, ValueError) as exc:
            return _fail(exc)
        print(format_figure7(rows))
        return 0

    if args.command == "figure8":
        from repro.eval import format_figure8, run_figure8

        print(format_figure8(run_figure8()))
        return 0

    if args.command == "tables":
        from repro.eval import table1, table2, table3, table5, table6, table7

        tables = {"1": table1, "2": table2, "3": table3, "5": table5,
                  "6": table6, "7": table7}
        which = tables.keys() if args.which == "all" else [args.which]
        print("\n\n".join(tables[w]() for w in which))
        return 0

    if args.command == "models":
        costs = CostTable()
        codes = [args.code] if args.code else list(UNIT_MODELS)
        for code in codes:
            model = UNIT_MODELS[code]
            graph = model.graph
            print(
                f"{code} ({model.task}): {graph.total_macs / 1e9:.2f} GMACs, "
                f"{graph.total_params / 1e6:.2f} M params, "
                f"{graph.num_layers} layers"
            )
            for df in Dataflow:
                c = costs.cost(code, df, args.pes)
                print(
                    f"  {df.value}@{args.pes}PE: {c.latency_ms:7.2f} ms, "
                    f"{c.energy_mj:7.1f} mJ, util {c.utilization:.1%}"
                )
        return 0

    if args.command == "ablations":
        from repro.eval import (
            dvfs_ablation,
            enmax_sensitivity,
            jitter_ablation,
            quantization_ablation,
            rt_k_sensitivity,
            scheduler_ablation,
        )

        which = args.which
        if which in ("scheduler", "all"):
            print("scheduler ablation (ar_gaming, J@8K):")
            for r in scheduler_ablation():
                print(f"  {r.setting:<16s} overall={r.overall:.3f} "
                      f"rt={r.rt:.3f} qoe={r.qoe:.3f}")
        if which in ("jitter", "all"):
            mean, spread = jitter_ablation()
            print("jitter ablation (social_interaction_a, A@4K):")
            print(f"  mean overall={mean.overall:.3f}; "
                  f"seed spread={spread.overall:.4f}")
        if which in ("k", "all"):
            print("RT-score k sensitivity (ar_gaming, J@8K):")
            for r in rt_k_sensitivity():
                print(f"  {r.setting:<8s} overall={r.overall:.3f} "
                      f"rt={r.rt:.3f}")
        if which in ("enmax", "all"):
            print("Enmax sensitivity (ar_assistant, C@4K):")
            for r in enmax_sensitivity():
                print(f"  {r.setting:<16s} overall={r.overall:.3f}")
        if which in ("dvfs", "all"):
            print("slack-aware DVFS (WS@4K):")
            for code, row in dvfs_ablation().items():
                print(f"  {code}: f={row['chosen_frequency']:.1f} "
                      f"saving={row['energy_saving']:+.1%}")
        if which in ("quantization", "all"):
            print("weight quantisation (numpy engine):")
            for code, by_bits in quantization_ablation().items():
                for bits, row in by_bits.items():
                    print(f"  {code} int{bits}: "
                          f"acc_score={row['accuracy_score']:.3f} "
                          f"meets_goal={bool(row['meets_goal'])}")
        return 0

    if args.command == "observations":
        from repro.eval import format_observations, verify_observations

        observations = verify_observations()
        print(format_observations(observations))
        return 0 if all(o.holds for o in observations) else 1

    if args.command == "pareto":
        from repro.eval import evaluate_designs, pareto_frontier

        points = evaluate_designs(total_pes=args.pes)
        frontier = {p.acc_id for p in pareto_frontier(points)}
        print(f"Design space at {args.pes} PEs "
              f"(score / mean energy / mean drops):")
        for p in sorted(points, key=lambda p: -p.xrbench_score):
            marker = "*" if p.acc_id in frontier else " "
            print(f" {marker} {p.acc_id}  {p.xrbench_score:.3f}  "
                  f"{p.mean_energy_mj:7.1f} mJ  {p.mean_drop_rate:6.1%}")
        print("(* = Pareto-optimal)")
        return 0

    if args.command == "stats":
        from repro.eval import seed_sweep

        try:
            spec = _spec_from_args(
                args, scenario=args.scenario, accelerator=args.accelerator
            )
            sweep = seed_sweep(spec, seeds=args.seeds)
        except (KeyError, ValueError) as exc:
            return _fail(exc)
        print(sweep.describe())
        return 0

    if args.command == "export":
        from repro.core import benchmark_to_dict, submission, to_csv

        try:
            spec = _spec_from_args(args, suite=True)
            report = execute(spec)
        except (KeyError, ValueError) as exc:
            return _fail(exc)
        _record_runs(args, [(spec, report)])
        # The executed report carries its plan's fingerprints.
        if args.format == "submission":
            print(submission(report, include_breakdowns=args.breakdowns))
        elif args.format == "json":
            print(json.dumps(
                benchmark_to_dict(
                    report,
                    plan_fingerprint=report.plan_fingerprint,
                    workload_fingerprint=report.workload_fingerprint,
                ),
                indent=2,
            ))
        else:
            print(
                to_csv(report, plan_fingerprint=report.plan_fingerprint),
                end="",
            )
        return 0

    if args.command == "report":
        from repro.eval import ReportGenerator, RunDatabase

        db = RunDatabase(args.runs)
        generator = ReportGenerator.from_database(db)
        if generator.skipped_lines:
            lines = ", ".join(
                str(lineno) for lineno, _ in generator.skipped_lines
            )
            print(
                f"warning: {db.path}: skipped "
                f"{len(generator.skipped_lines)} malformed line(s) "
                f"({lines}) — likely a crashed writer's truncated tail",
                file=sys.stderr,
            )
        if not generator.records:
            print(f"no runs recorded at {db.path}; run with --record first",
                  file=sys.stderr)
            return 2
        rendered = generator.render(args.format)
        if args.output is None:
            print(rendered, end="")
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
            print(f"wrote {args.output}", file=sys.stderr)
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
