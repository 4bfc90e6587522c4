"""Command-line interface: regenerate the paper's tables and figures.

``python -m repro list`` shows the available experiments;
``python -m repro fig12`` (etc.) prints the regenerated artifact;
``python -m repro lint`` statically checks the shipped artifacts with
rispp-lint (see :mod:`repro.analysis`);
``python -m repro verify`` replays simulation traces against the formal
reference machine and proves worst-case rotation-latency bounds with
rispp-verify (see :mod:`repro.analysis.verify`);
``python -m repro chaos`` runs a seeded fault-injection campaign with
scrubbing-based recovery and reports resilience metrics (see
:mod:`repro.faults`);
``python -m repro metrics`` runs one shipped workload with the
:mod:`repro.obs` telemetry registry attached and prints the collected
metrics in Prometheus text or JSONL snapshot form;
``python -m repro audit`` statically checks the repro source tree
itself against its implementation contracts with rispp-audit (see
:mod:`repro.analysis.audit`);
``python -m repro serve`` runs the long-lived scenario daemon that
answers chaos scenario requests over local HTTP/JSON with
byte-deterministic reports (see :mod:`repro.serve` and
``docs/serving.md``).
The benchmark suite (``pytest benchmarks/ --benchmark-only``) additionally
*asserts* the reproduction criteria; this CLI is the quick look.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from typing import Any, Callable


def _fig1() -> str:
    from .hardware.area import H264_PHASES, AreaComparison
    from .reporting.tables import render_table

    comparisons = [AreaComparison.build(list(H264_PHASES), a) for a in (1.0, 1.25, 1.5, 2.0)]
    phases = render_table(
        ["phase", "time %", "GE"],
        [[p.name, p.time_pct, p.gate_equivalents] for p in H264_PHASES],
        title="Fig. 1: H.264 phase profile",
    )
    table = render_table(
        ["alpha", "GE extensible", "GE RISPP", "saving %"],
        [
            [c.alpha, c.extensible_ge, round(c.rispp_ge), round(c.saving_pct, 1)]
            for c in comparisons
        ],
        title="Extensible processor vs RISPP",
    )
    return phases + "\n\n" + table


def _fig3() -> str:
    from .apps.aes.blocks import aes_forecast_report
    from .reporting.tables import render_table

    report = aes_forecast_report(runs=8, containers=6)
    table = render_table(
        ["block", "SI", "p", "distance", "expected", "FDF demand"],
        [
            [c.block_id, c.si_name, f"{c.probability:.2f}", f"{c.distance:.0f}",
             f"{c.expected_executions:.1f}", f"{c.required_executions:.1f}"]
            for c in report.candidates
        ],
        title="Fig. 3: AES FC candidates",
    )
    return table + "\n\n" + report.dot


def _fig4() -> str:
    from .forecast.fdf import ForecastDecisionFunction
    from .reporting.figures import render_surface

    fdf = ForecastDecisionFunction(
        t_rot=85_000.0, t_sw=544.0, t_hw=24.0, rotation_energy=2_000.0
    )
    ticks = [0.1, 0.2, 0.4, 0.6, 1.0, 1.6, 2.5, 4.0, 6.3, 10.0, 15.8, 25.1, 39.8, 63.1, 100.0]
    surface = fdf.surface([t * fdf.t_rot for t in ticks], [1.0, 0.7, 0.4])
    return render_surface(
        surface,
        ["p=100%", "p=70%", "p=40%"],
        [f"{t:g}" for t in ticks],
        title="Fig. 4: FDF demand over t/T_rot",
    )


def _fig6() -> str:
    from .apps.h264.scenario import run_fig6_scenario

    result = run_fig6_scenario()
    labels = ", ".join(
        f"{n}={result.label(t, n):,}"
        for t, n in (("A", "T0"), ("B", "T1"), ("B", "T2"), ("B", "T3"))
    )
    return f"Fig. 6 checkpoints: {labels}\n\n" + result.runtime.trace.render_timeline()


def _fig11() -> str:
    from .apps.h264.sis import REFERENCE_CONFIGS, build_h264_library, si_cycles_for_config
    from .reporting.tables import render_table

    library = build_h264_library()
    sis = ("SATD_4x4", "DCT_4x4", "HT_4x4")
    return render_table(
        ["SI", *REFERENCE_CONFIGS.keys()],
        [
            [si, *(si_cycles_for_config(library, si, c) for c in REFERENCE_CONFIGS)]
            for si in sis
        ],
        title="Fig. 11: SI execution time [cycles]",
    )


def _fig12() -> str:
    from .apps.h264.encoder import macroblock_cycles
    from .apps.h264.sis import REFERENCE_CONFIGS, build_h264_library, si_cycles_for_config
    from .reporting.tables import render_table

    library = build_h264_library()
    paper = {"Opt. SW": 201_065, "4 Atoms": 60_244, "5 Atoms": 59_135, "6 Atoms": 58_287}
    rows = []
    for config in REFERENCE_CONFIGS:
        latencies = {
            s: si_cycles_for_config(library, s, config)
            for s in ("SATD_4x4", "DCT_4x4", "HT_4x4", "HT_2x2")
        }
        total = macroblock_cycles(latencies)
        rows.append([config, total, paper[config],
                     f"{100 * (total - paper[config]) / paper[config]:+.2f}%"])
    return render_table(
        ["config", "measured", "paper", "deviation"],
        rows,
        title="Fig. 12: all-over encoder performance [cycles/MB]",
    )


def _fig13() -> str:
    from .apps.h264.sis import build_h264_library
    from .core.pareto import pareto_front_of
    from .reporting.figures import render_series

    library = build_h264_library()
    series = {}
    for name in ("SATD_4x4", "HT_4x4", "DCT_4x4", "HT_2x2"):
        si = library.get(name)
        series[f"{name} (front)"] = [
            (p.atoms, p.cycles) for p in pareto_front_of(si)
        ]
    return render_series(
        series, title="Fig. 13: Pareto fronts", x_label="#Atoms", y_label="cycles"
    )


def _table1() -> str:
    from .hardware.atom_specs import TABLE1_SPECS
    from .reporting.tables import render_table

    return render_table(
        ["Atom", "# Slices", "# LUTs", "Utilization", "Bitstream [B]", "Rotation [us]"],
        [
            [n, s.slices, s.luts, f"{100 * s.utilization:.1f}%",
             s.bitstream_bytes, round(s.rotation_time_us(), 2)]
            for n, s in TABLE1_SPECS.items()
        ],
        title="Table 1: atom hardware",
    )


def _table2() -> str:
    from .apps.h264.sis import TABLE2
    from .reporting.tables import render_table

    kinds = ("Load", "QuadSub", "Pack", "Transform", "SATD", "Add", "Store")
    rows = []
    for si, molecules in TABLE2.items():
        for counts, cycles in molecules:
            rows.append([si, *counts, cycles])
    return render_table(
        ["SI", *kinds, "cycles"], rows, title="Table 2: molecule compositions"
    )


EXPERIMENTS = {
    "fig1": (_fig1, "extensible vs RISPP area (GE)"),
    "fig3": (_fig3, "AES BB graph + FC candidates"),
    "fig4": (_fig4, "the FDF surface"),
    "fig6": (_fig6, "the two-task run-time scenario"),
    "fig11": (_fig11, "SI cycles per resource configuration"),
    "fig12": (_fig12, "whole-encoder performance"),
    "fig13": (_fig13, "Pareto fronts"),
    "table1": (_table1, "atom hardware figures"),
    "table2": (_table2, "molecule compositions"),
}


#: Rule families each diagnostic tool reports on — the single map the
#: ``--help`` epilogs, the selector check and the sync test consume.  The
#: union over all tools must equal ``repro.analysis.rules.families()``:
#: a family declared in the catalogue but reachable from no CLI (or vice
#: versa) is a wiring bug, and tests/test_cli.py asserts it.
TOOL_FAMILIES: dict[str, tuple[str, ...]] = {
    "lint": ("library", "cfg", "forecast", "schedule"),
    "verify": ("trace", "feasibility"),
    "explore": ("explore",),
    "audit": ("audit",),
}


def _check_output(
    parser: argparse.ArgumentParser, path: str | None, *, overwrite: bool
) -> None:
    """Refuse an output path that cannot be written, before any work starts.

    A missing parent directory would only fail when the file is written,
    after the whole run, and surface as a traceback.  Without ``overwrite`` an existing file is refused too:
    silent overwrites destroy evidence (a baseline report, a previous
    campaign).  Either is a usage error (exit 2), like any other bad flag
    combination, and a refused command leaves nothing behind.
    """
    import os

    if not path:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        parser.error(f"cannot write {path}: directory {parent} does not exist")
    if not overwrite and os.path.exists(path):
        parser.error(
            f"refusing to overwrite existing file {path}; pass --force "
            "to replace it"
        )


def _run_rule_tool(
    tool: str,
    argv: list[str],
    description: str,
    add_args: "Callable[[argparse.ArgumentParser], None]",
    run: "Callable[..., Any]",
) -> int:
    """The one driver of the four rule CLIs (lint, verify, explore, audit).

    It owns the parser (the tool's rule catalogue is the ``--help``
    epilog), ``--format text|json``, ``--select``/``--ignore`` expanded
    over the tool's own families, the print and the exit code.  Each
    tool adds its own flags and supplies its run step, which receives
    the expanded selectors and returns what to print: an object with
    ``to_json()``, ``render_text(tool=)`` and ``exit_code()``.

    A selector matching none of the tool's rules (a typo, or another
    tool's ID such as ``lint --select TRC002``) is a usage error: it
    would otherwise select nothing and report a clean run.
    """
    from .analysis.rules import expand_selectors, render_rule_list

    families = TOOL_FAMILIES[tool]
    parser = argparse.ArgumentParser(
        prog=f"repro {tool}",
        description=description,
        epilog=(
            "rule IDs (--select/--ignore take comma-separated IDs or "
            "prefixes):\n" + render_rule_list(families)
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_args(parser)
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select", metavar="RULE[,RULE]", default=None,
        help="report only these rule IDs/prefixes (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="RULE[,RULE]", default=None,
        help="drop these rule IDs/prefixes (applied after --select)",
    )
    args = parser.parse_args(argv)
    try:
        select, ignore = [
            None if raw is None else expand_selectors(raw.split(","), families)
            for raw in (args.select, args.ignore)
        ]
    except ValueError as exc:
        parser.error(str(exc))
    output = run(parser, args, select, ignore)
    if args.format == "json":
        print(output.to_json())
    else:
        print(output.render_text(tool=f"rispp-{tool}"))
    return output.exit_code()


def _lint(argv: list[str]) -> int:
    from .analysis.lint import BUILTIN_SUBJECTS, lint_builtin

    def add_args(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--containers", type=int, default=None, metavar="N",
            help="also run Atom Container capacity rules against N containers",
        )
        parser.add_argument(
            "--subject", action="append", choices=BUILTIN_SUBJECTS, default=None,
            help="restrict to one case study (repeatable; default: all)",
        )

    def run(parser, args, select, ignore):
        if args.containers is not None and args.containers < 0:
            parser.error(
                f"--containers must be non-negative, got {args.containers}"
            )
        return lint_builtin(
            args.subject or BUILTIN_SUBJECTS, containers=args.containers
        ).filtered(select=select, ignore=ignore)

    return _run_rule_tool(
        "lint", argv,
        "Statically check the shipped RISPP artifacts (rispp-lint).",
        add_args, run,
    )


def _verify(argv: list[str]) -> int:
    from .analysis.verify import (
        golden_from_runtime,
        load_golden,
        run_verify_suite,
        verify_golden_result,
        write_golden,
    )
    from .scenario import SUITES

    def add_args(parser: argparse.ArgumentParser) -> None:
        source = parser.add_mutually_exclusive_group()
        source.add_argument(
            "--trace", metavar="PATH", default=None,
            help="verify a golden-trace JSON file instead of running a suite",
        )
        source.add_argument(
            "--suite", choices=sorted(SUITES), default="synthetic",
            help="run + verify one shipped scenario (default: synthetic)",
        )
        parser.add_argument(
            "--quick", action="store_true",
            help="reduced scenario sizes (CI mode)",
        )
        parser.add_argument(
            "--emit-golden", metavar="PATH", default=None,
            help="write the verified suite run as a golden-trace JSON file",
        )
        parser.add_argument(
            "--survivable-failures", type=int, metavar="K", default=None,
            help=(
                "also prove degraded-mode feasibility (FEA005): the fabric "
                "minus K failed containers must still hold every forecast "
                "SI's largest molecule"
            ),
        )

    def run(parser, args, select, ignore):
        if args.survivable_failures is not None and args.survivable_failures < 0:
            parser.error("--survivable-failures cannot be negative")
        if args.trace is not None:
            if args.emit_golden:
                parser.error("--emit-golden requires a --suite run")
            try:
                golden = load_golden(args.trace)
            except (OSError, ValueError, KeyError) as exc:
                parser.error(f"cannot load golden trace {args.trace!r}: {exc}")
            result = verify_golden_result(
                golden, survivable_failures=args.survivable_failures
            )
        else:
            _check_output(parser, args.emit_golden, overwrite=True)
            result = run_verify_suite(
                args.suite,
                quick=args.quick,
                survivable_failures=args.survivable_failures,
            )
        if args.emit_golden and result.runtime is not None:
            write_golden(
                golden_from_runtime(result.runtime, suite=result.suite),
                args.emit_golden,
            )
            print(f"golden trace written to {args.emit_golden}", file=sys.stderr)
        return result.report.merge(result.feasibility.report).filtered(
            select=select, ignore=ignore
        )

    return _run_rule_tool(
        "verify", argv,
        "Replay a simulation trace against the formal RISPP reference "
        "machine and statically prove worst-case rotation-latency "
        "bounds (rispp-verify).",
        add_args, run,
    )


def _explore(argv: list[str]) -> int:
    import json

    from .analysis.explore import EXPLORE_SCOPES, SelectionError, explore

    def add_args(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--scope", choices=sorted(EXPLORE_SCOPES), default="small",
            help="platform scope to exhaust (default: small)",
        )
        parser.add_argument(
            "--max-states", type=int, default=None, metavar="N",
            help="override the scope's state-count safety valve",
        )
        parser.add_argument(
            "--emit-counterexample", metavar="PATH", default=None,
            help=(
                "write the first counterexample as golden-trace JSON "
                "(replayable with 'repro verify --trace PATH')"
            ),
        )

    def run(parser, args, select, ignore):
        if args.max_states is not None and args.max_states < 1:
            parser.error(f"--max-states must be positive, got {args.max_states}")
        _check_output(parser, args.emit_counterexample, overwrite=True)
        try:
            result = explore(
                args.scope, select=select, ignore=ignore,
                max_states=args.max_states,
            )
        except SelectionError as exc:  # any other ValueError is a runtime fault
            parser.error(str(exc))
        if args.emit_counterexample:
            if not result.counterexamples:
                print(
                    "no counterexample to emit (no MC violation found)",
                    file=sys.stderr,
                )
            else:
                with open(args.emit_counterexample, "w", encoding="utf-8") as fh:
                    json.dump(
                        result.counterexamples[0].golden, fh,
                        indent=2, sort_keys=True,
                    )
                    fh.write("\n")
                print(
                    f"counterexample written to {args.emit_counterexample}",
                    file=sys.stderr,
                )
        return result

    return _run_rule_tool(
        "explore", argv,
        "Exhaustively model-check the rotation runtime over a small "
        "scope (rispp-explore): every interleaving of forecasts, SI "
        "executions, clock ticks and fault injections within the "
        "scope's budgets, with the MC invariants checked in every "
        "reachable state. Violations yield minimized counterexamples "
        "replayable with 'repro verify --trace'.",
        add_args, run,
    )


#: Metadata file a checkpointed chaos run writes into its store, so
#: ``--resume`` can rebuild the identical scenario without re-specifying
#: the campaign flags.
CHAOS_RUN_META = "run.json"
CHAOS_RUN_KIND = "rispp-chaos-run"


def _chaos(argv: list[str]) -> int:
    import json
    import os
    from dataclasses import fields
    from pathlib import Path

    from .recovery.journal import JOURNAL_NAME, RecoveryError
    from .recovery.runtime import RecoveryPlan, SimulatedCrash
    from .recovery.snapshot import latest_snapshot, load_snapshot
    from .scenario import SUITES, Scenario, ScenarioError

    # The scenario knobs besides --suite/--quick: (key, metavar, help).
    knobs = (
        ("seed", "N", "fault-schedule seed, positive"),
        ("fault_rate", "R", "expected faults per million cycles"),
        ("scrub_period", "CYCLES", "readback-scrubber pass period"),
        ("max_retries", "N", "bitstream write retries before giving up"),
        ("backoff_cycles", "CYCLES", "base retry backoff; doubles per attempt"),
    )

    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description=(
            "Run a seeded fault-injection campaign over one shipped suite: "
            "inject transient SEUs, mid-write bitstream errors and "
            "permanent defects, recover via scrubbing/quarantine/repair, "
            "verify the trace and report resilience metrics. Deterministic: "
            "same seed, byte-identical report. With --checkpoint-dir the "
            "campaign journals into a recovery store and can be resumed "
            "after a crash (--resume) to the byte-identical report."
        ),
    )
    parser.add_argument(
        "--suite", choices=sorted(SUITES), default=None,
        help=f"workload to fuzz (default: {Scenario.suite})",
    )
    for key, metavar, text in knobs:
        default = getattr(Scenario, key)
        parser.add_argument(
            "--" + key.replace("_", "-"), type=type(default),
            default=None, metavar=metavar,
            help=f"{text} (default: {default})",
        )
    parser.add_argument(
        "--quick", action="store_true", default=None,
        help="reduced scenario sizes (CI mode)",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="PATH", default=None,
        help=(
            "journal the campaign into this recovery store and snapshot "
            "periodically (see docs/recovery.md)"
        ),
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="journal commands between snapshots (default: 64)",
    )
    parser.add_argument(
        "--resume", metavar="PATH", default=None,
        help=(
            "resume an interrupted campaign from its recovery store; the "
            "scenario flags come from the store's run.json"
        ),
    )
    parser.add_argument(
        "--crash-at", type=int, default=None, metavar="CYCLE",
        help=(
            "seeded crash injection: simulate dying at the first journaled "
            "command at or past CYCLE (exit code 3)"
        ),
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report output format (default: text)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the report as JSON (e.g. CHAOS_synthetic.json)",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="overwrite an existing --json file instead of refusing",
    )
    args = parser.parse_args(argv)
    _check_output(parser, args.json, overwrite=args.force)

    resume = args.resume is not None
    if resume and args.checkpoint_dir is not None:
        parser.error("--resume and --checkpoint-dir are mutually exclusive")
    store = (
        Path(args.resume)
        if resume
        else Path(args.checkpoint_dir)
        if args.checkpoint_dir is not None
        else None
    )
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        parser.error(
            f"--checkpoint-every must be positive, got {args.checkpoint_every}"
        )
    if args.crash_at is not None and args.crash_at < 0:
        parser.error(f"--crash-at cannot be negative, got {args.crash_at}")
    if store is None:
        for flag, value in (
            ("--checkpoint-every", args.checkpoint_every),
            ("--crash-at", args.crash_at),
        ):
            if value is not None:
                parser.error(f"{flag} needs --checkpoint-dir or --resume")

    # The flags left unset take the scenario defaults.
    flags = {
        f.name: getattr(args, f.name)
        for f in fields(Scenario)
        if getattr(args, f.name) is not None
    }
    if resume:
        if flags:
            parser.error(
                "scenario flags conflict with --resume (the scenario comes "
                "from the store's run.json): "
                + ", ".join("--" + key.replace("_", "-") for key in flags)
            )
        assert store is not None
        if not store.is_dir():
            parser.error(f"--resume path {store} is not a directory")
        journal_path = store / JOURNAL_NAME
        if not journal_path.is_file() or not os.access(journal_path, os.R_OK):
            parser.error(
                f"--resume store has no readable journal at {journal_path}"
            )
        latest = latest_snapshot(store)
        if latest is not None:
            try:  # e.g. a snapshot of another schema version
                load_snapshot(latest[1])
            except RecoveryError as exc:
                parser.error(f"--resume store is unusable: {exc}")
        meta_path = store / CHAOS_RUN_META
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read run metadata {meta_path}: {exc}")
        if not isinstance(meta, dict) or meta.pop("kind", None) != CHAOS_RUN_KIND:
            parser.error(f"{meta_path} is not a chaos run-metadata file")
        meta.pop("schema_version", None)
        try:
            scenario = Scenario.from_payload(meta)
        except ScenarioError as exc:
            parser.error(f"run metadata {meta_path} is invalid: {exc}")
    else:
        try:
            scenario = Scenario.from_payload(flags)
        except ScenarioError as exc:
            # argparse has checked the types and the suite, so a range
            # check failed: its message starts with the field name.
            name, _, problem = str(exc).partition(" ")
            parser.error(f"--{name.replace('_', '-')} {problem}")

    recovery = None
    if store is not None:
        recovery = RecoveryPlan(
            store=store,
            checkpoint_every=(
                args.checkpoint_every
                if args.checkpoint_every is not None
                else 64
            ),
            crash_at=args.crash_at,
            resume=resume,
        )
        if not resume:
            store.mkdir(parents=True, exist_ok=True)
            meta = {"kind": CHAOS_RUN_KIND, "schema_version": 1, **scenario.to_payload()}
            (store / CHAOS_RUN_META).write_text(
                json.dumps(meta, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )

    from .faults import run_chaos_suite
    from .faults.chaos import chaos_ok, render_chaos_report

    knobs = scenario.to_payload()
    try:
        report = run_chaos_suite(knobs.pop("suite"), **knobs, recovery=recovery)
    except SimulatedCrash as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        print(
            f"resume with: python -m repro chaos --resume {exc.store}",
            file=sys.stderr,
        )
        return 3
    except RecoveryError as exc:
        if not resume:
            raise
        # Interior journal damage only shows once the run reads the
        # journal: the store is as unusable as the ones rejected above.
        print(f"chaos: --resume store is unusable: {exc}", file=sys.stderr)
        return 2
    rendered_json = json.dumps(report, indent=2, sort_keys=True)
    if args.format == "json":
        print(rendered_json)
    else:
        print(render_chaos_report(report))
    if args.json:
        Path(args.json).write_text(rendered_json + "\n", encoding="utf-8")
        print(f"report written to {args.json}", file=sys.stderr)
    return 0 if chaos_ok(report) else 1


def _metrics(argv: list[str]) -> int:
    from .obs.exporters import to_jsonl, to_prometheus
    from .obs.suites import run_metrics_suite
    from .scenario import SUITES

    parser = argparse.ArgumentParser(
        prog="repro metrics",
        description=(
            "Run one shipped workload with the repro.obs telemetry "
            "registry attached and print the collected metrics "
            "(catalogue: docs/observability.md)."
        ),
    )
    parser.add_argument(
        "--suite", choices=sorted(SUITES), default="synthetic",
        help="workload to instrument (default: synthetic)",
    )
    parser.add_argument(
        "--format", choices=("prom", "json"), default="prom",
        help=(
            "output format: Prometheus text exposition or JSONL snapshot "
            "(default: prom)"
        ),
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced scenario sizes (CI mode)",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="also write the export to a file",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="overwrite an existing --output file instead of refusing",
    )
    args = parser.parse_args(argv)
    _check_output(parser, args.output, overwrite=args.force)
    registry, _runtime = run_metrics_suite(args.suite, quick=args.quick)
    if args.format == "prom":
        # The scrape view: everything recorded, span timers included.
        text = to_prometheus(registry)
    else:
        # The machine-readable snapshot: deterministic series only, so
        # the same suite+flags produce byte-identical output.
        text = to_jsonl(registry)
    print(text, end="")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"metrics written to {args.output}", file=sys.stderr)
    return 0


def _audit(argv: list[str]) -> int:
    from .analysis.audit import run_audit

    def run(parser, args, select, ignore):
        result = run_audit()
        if args.format == "text":
            print(result.summary(), file=sys.stderr)
        return result.report.filtered(select=select, ignore=ignore)

    return _run_rule_tool(
        "audit", argv,
        "Statically check the repro source tree itself against its "
        "implementation contracts (rispp-audit): seeded determinism "
        "(no stray randomness, wall-clock or environment reads, no "
        "order-sensitive set iteration) and no dead catalogue entries "
        "(every declared metric instrumented, every registered rule "
        "referenced).",
        lambda parser: None, run,
    )


def _serve(argv: list[str]) -> int:
    from .serve.daemon import DEFAULT_HOST, DEFAULT_PORT, serve

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the long-lived scenario daemon: accept chaos scenario "
            "requests (suite, seed, fault-rate, fault-handling "
            "config) over a local HTTP/JSON API, shard them across a "
            "worker process pool and answer with byte-deterministic "
            "reports. Serves /healthz, /readyz and a Prometheus /metrics "
            "exposition; POST /shutdown stops it gracefully (exit 0). "
            "API schema and endpoint contracts: docs/serving.md."
        ),
    )
    parser.add_argument(
        "--host", default=DEFAULT_HOST, metavar="ADDR",
        help=f"address to bind (default: {DEFAULT_HOST})",
    )
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, metavar="N",
        help=(
            "TCP port to bind; 0 lets the kernel pick a free one, "
            f"announced on stdout (default: {DEFAULT_PORT})"
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="scenario worker processes (default: 1)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.port <= 65535:
        parser.error(f"--port must be in [0, 65535], got {args.port}")
    if args.workers < 1:
        parser.error(f"--workers must be positive, got {args.workers}")
    return serve(args.host, args.port, workers=args.workers)


#: Every flag-taking subcommand, dispatch-ready.  This is the canonical
#: CLI tool surface: the README's tool table is validated against it
#: (plus ``list``/``all``/``<experiment>``) by
#: :mod:`repro.analysis.docs_check`.
TOOL_COMMANDS: dict[str, "Callable[[list[str]], int]"] = {
    "lint": _lint,
    "verify": _verify,
    "explore": _explore,
    "audit": _audit,
    "chaos": _chaos,
    "metrics": _metrics,
    "serve": _serve,
}


def tool_help(command: str) -> str:
    """The captured ``--help`` text of one CLI tool (docs_check gate)."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            TOOL_COMMANDS[command](["--help"])
        except SystemExit:
            pass
    return buf.getvalue()


def _usage() -> str:
    names = " | ".join(EXPERIMENTS)
    tools = " | ".join(TOOL_COMMANDS)
    helps = ", ".join(f"'repro {name} --help'" for name in TOOL_COMMANDS)
    return (
        f"usage: repro {{list | all | {tools} | <experiment>}}\n"
        f"experiments: {names}\n"
        f"run 'repro list' for descriptions; {helps} for tool flags"
    )


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        print(_usage())
        return 0
    command, rest = args[0], args[1:]
    if command in TOOL_COMMANDS:
        return TOOL_COMMANDS[command](rest)
    if rest:
        print(f"repro {command}: unexpected arguments {rest}", file=sys.stderr)
        return 2
    if command == "list":
        for name, (_fn, desc) in EXPERIMENTS.items():
            print(f"{name:8s} {desc}")
        return 0
    if command == "all":
        for name, (fn, _desc) in EXPERIMENTS.items():
            print(f"==== {name} " + "=" * (60 - len(name)))
            print(fn())
            print()
        return 0
    if command in EXPERIMENTS:
        fn, _desc = EXPERIMENTS[command]
        print(fn())
        return 0
    hint = ""
    close = difflib.get_close_matches(
        command,
        [*EXPERIMENTS, "list", "all", *TOOL_COMMANDS],
        n=1,
    )
    if close:
        hint = f" (did you mean {close[0]!r}?)"
    print(
        f"repro: unknown experiment {command!r}{hint}\n{_usage()}",
        file=sys.stderr,
    )
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
