"""Command line: ``python3 -m perf {run,compare}``.

``run`` measures workloads and prints every metric by name with its
unit; its last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
(the default) the metrics are the end-to-end ones, with ``--trace`` /
``--trace 1`` the per-layer ones of a separate traced run.  With
``--repeat N`` every workload runs N times, interleaved, and the JSON
line holds each metric's median over the runs; ``--out`` keeps every
run, which is what ``compare`` judges.  Exit codes: 0 measured, 1 a
workload child failed, 2 bad arguments or the program is not there.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path
from typing import Any

from . import BENCHMARK_JSON, DECLARED_JSON, SRC
from .workloads import WORKLOADS


def _load(path: Path) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _print_run(result: dict[str, Any], lines: list[tuple[str, str]], values: dict[str, Any]) -> None:
    print(
        f"{result['workload']}: {result['rounds']} rounds, "
        f"{result['samples']} op latencies pooled, failed {result['failed']}/"
        f"{result['attempted']}, digest {result['digest'][:16]}"
        + ("" if result["digest_stable"] else " (UNSTABLE across rounds)")
    )
    for name, unit in lines:
        print(f"  {name:<40} {values[name]:>16.6g} {unit}")


def cmd_run(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    benchmark = _load(BENCHMARK_JSON)
    if args.seconds is not None and args.seconds != benchmark["run_seconds"]:
        print(
            "perf: a run measures a fixed amount of work, sized for "
            f"run_seconds={benchmark['run_seconds']} of BENCHMARK.json; "
            "--seconds may only repeat that value",
            file=sys.stderr,
        )
        return 2
    from .runner import TIMING, BenchmarkError, run_workload

    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    lines = [(m["name"], m["unit"]) for m in declared]
    if not args.trace:
        # Printed for people, not judged: see TIMING.
        lines += [(name, f"{unit} (informational)") for name, unit in TIMING.items()]
    key = "per_layer" if args.trace else "metrics"
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    # Interleaved, so each workload's runs spread over the whole set.
    for _ in range(args.repeat):
        for name in names:
            try:
                result = run_workload(name, args.seed, trace=bool(args.trace))
            except BenchmarkError as exc:
                print(f"perf: {exc}", file=sys.stderr)
                return 1
            runs[name].append(result)
            _print_run(result, lines, result[key])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "seed": args.seed,
                    "trace": bool(args.trace),
                    "python": platform.python_version(),
                    "platform": platform.platform(),
                    "workloads": runs,
                },
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")

    def metric(results: list[dict[str, Any]], entry: dict[str, Any]) -> dict[str, Any]:
        value = statistics.median(r[key][entry["name"]] for r in results)
        return {"value": value, "unit": entry["unit"]}

    if len(runs) == 1:
        (results,) = runs.values()
        metrics = {entry["name"]: metric(results, entry) for entry in declared}
    else:
        metrics = {
            f"{name}.{entry['name']}": metric(results, entry)
            for name, results in runs.items() for entry in declared
        }
    every = [r for results in runs.values() for r in results]
    print(json.dumps({
        "correct": all(r["correct"] for r in every),
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": metrics,
    }))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .compare import CompareError, compare, render

    try:
        rows, failing = compare(
            _load(args.before), _load(args.after), _load(BENCHMARK_JSON)
        )
    except CompareError as exc:
        print(f"perf compare: {exc}", file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if failing else 0


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def parser() -> argparse.ArgumentParser:
    seeds = _load(DECLARED_JSON)["seeds"]
    top = argparse.ArgumentParser(prog="python3 -m perf")
    commands = top.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure workloads")
    run.add_argument("--workload", choices=sorted(WORKLOADS),
                     help="one workload (default: all five)")
    run.add_argument("--seed", type=int, default=seeds["default"],
                     help=f"workload seed ({seeds['default']} is the default, "
                          f"{seeds['holdout']} the holdout)")
    run.add_argument("--seconds", type=float,
                     help="the declared run_seconds of BENCHMARK.json; the "
                          "work per run is fixed, so no other value is accepted")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="1: a traced run, per-layer metrics")
    run.add_argument("--repeat", type=_positive, default=1,
                     help="runs per workload; compare needs at least 3")
    run.add_argument("--out", help="write every run's measured values to this JSON file")
    run.set_defaults(fn=cmd_run)

    compare = commands.add_parser(
        "compare", help="judge result file AFTER against BEFORE"
    )
    compare.add_argument("before")
    compare.add_argument("after")
    compare.set_defaults(fn=cmd_compare)

    child = commands.add_parser("_child", help="internal: one workload child")
    child.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--trace", type=int, choices=(0, 1), required=True)
    child.add_argument("--setup-only", action="store_true")
    return top


def main(argv: list[str] | None = None) -> int:
    args = parser().parse_args(argv)
    if args.command == "_child":
        from .runner import child_main

        return child_main(args)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
