"""Running one workload: the parent process and the workload child.

The parent never imports the program.  For each workload it spawns
fresh children (``python3 -m perf _child``) with ``REPRO_BACKEND``
removed from the environment and ``PYTHONHASHSEED=0``.  A child builds
the workload, prints ``ready`` once set-up is done (the parent's clock
from spawn to that line is ``setup_s``), measures ``ROUNDS`` rounds of
the workload's fixed op list, and prints one JSON line of results.
Untraced runs spawn ``SETUP_SPAWNS`` children: all but the last only
set up, the last also measures; ``setup_s`` is the median over all of
them.  A traced run spawns one child, which measures the same untraced
rounds and then ``TRACED_ROUNDS`` traced ones.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from . import ROOT, SRC
from .stats import p90
from .trace import LAYERS, LayerTracer
from .workloads import COUNTERS, WORKLOADS, OpResult, Workload, sha256

#: End-to-end metrics with their units (``BENCHMARK.json`` holds bounds).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Host-time metrics of the warm work.  They do not repeat within a 10%
#: bound on a shared VM, so ``BENCHMARK.json`` lists them per-layer
#: (informational, no bound); every run still measures them untraced.
TIMING = {
    "sim_si_per_s": "SI/s",
    "op_s.p50": "s",
    "op_s.p90": "s",
}

#: Per-layer metrics that are not ``<layer>.{calls,self_s,share}``.
EXTRA_PER_LAYER = {
    **TIMING,
    "unattributed.share": "ratio",
    "trace.overhead": "ratio",
    "runtime.manager.replans": "count",
    "runtime.manager.replan_skip_ratio": "ratio",
    "runtime.manager.hw_fraction": "ratio",
    "hardware.reconfig.rotations": "count",
    "sim.trace.events": "count",
    "faults.injector.faults_injected": "count",
    "faults.injector.retries": "count",
    "faults.injector.mttr_cycles": "cycles",
    "recovery.journal.records": "count",
    "recovery.snapshot.count": "count",
    "recovery.snapshot.bytes": "bytes",
    "recovery.snapshot.replayed": "count",
    "serve.ready_s": "s",
    "serve.warmup_s": "s",
    "serve.overhead_s.p50": "s",
    "serve.overhead_s.p90": "s",
    "serve.non200": "count",
    "sim_cycles": "cycles",
    "fail_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update(EXTRA_PER_LAYER)
    return units


#: Untraced rounds of every run, and the traced rounds a traced run adds.
ROUNDS = 5
TRACED_ROUNDS = 1
#: Children an untraced run spawns; ``setup_s`` is their median.
SETUP_SPAWNS = 3
#: A child that has not finished by then is killed with its descendants.
CHILD_TIMEOUT_S = 170.0


class BenchmarkError(RuntimeError):
    """A workload child failed; no result may be printed."""


# -- the workload child ------------------------------------------------------------


@dataclass
class Round:
    traced: bool
    latencies: list[float]
    wall: float
    results: list[OpResult]
    calls: dict[str, int]
    self_s: dict[str, float]

    @property
    def si(self) -> int:
        return sum(r.si for r in self.results)


def _round(
    workload: Workload,
    ops: list[Any],
    *,
    tracer: LayerTracer | None,
    first: bool,
) -> Round:
    gc.collect()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    if tracer is None:
        latencies, wall, raws = workload.run_round(ops)
    else:
        tracer.reset()
        with tracer:
            latencies, wall, raws = workload.traced_round(ops)
        calls = dict(tracer.calls)
        self_s = dict(tracer.self_s)
    results = [
        workload.inspect(op, raw, first_round=first)
        for op, raw in zip(ops, raws)
    ]
    return Round(tracer is not None, latencies, wall, results, calls, self_s)


def measure(
    workload: Workload,
    seed: int,
    *,
    trace: bool,
    setup_only: bool,
    announce: Callable[[str], None],
) -> dict[str, Any] | None:
    """Set up, announce readiness, measure; the workload child's body."""
    ops = workload.ops(seed)
    work_dir = ROOT / ".perf_work" / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload.setup(work_dir)
        workload.warm_up(ops)
        announce("ready")
        if setup_only:
            return None
        workload.prepare(ops)
        rounds = [
            _round(workload, ops, tracer=None, first=i == 0)
            for i in range(ROUNDS)
        ]
        if trace:
            tracer = LayerTracer()
            rounds += [
                _round(workload, ops, tracer=tracer, first=False)
                for _ in range(TRACED_ROUNDS)
            ]
        return summarise(workload, rounds, trace=trace)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another child's directory is still there


def summarise(
    workload: Workload, rounds: list[Round], *, trace: bool
) -> dict[str, Any]:
    reference = rounds[0].results
    failed = 0
    for rnd in rounds:
        for ref, result in zip(reference, rnd.results):
            # An op fails on its own oracle or by diverging from round 1.
            failed += not result.ok or result.digest != ref.digest
    attempted = sum(len(r.results) for r in rounds)
    untraced = [r for r in rounds if not r.traced]
    pooled = [latency for r in untraced for latency in r.latencies]
    metrics = {
        "sim_si_per_s": statistics.median(r.si / r.wall for r in untraced),
        "op_s.p50": statistics.median(pooled),
        "op_s.p90": p90(pooled),
        "sim_cycles": sum(r.cycles for r in reference),
        "fail_ratio": failed / attempted,
    }
    out: dict[str, Any] = {
        "workload": workload.name,
        "attempted": attempted,
        "failed": failed,
        "digest": _digest(reference),
        "digest_stable": all(
            _digest(r.results) == _digest(reference) for r in rounds
        ),
        "rounds": len(untraced),
        "samples": len(pooled),
        "latencies": [r.latencies for r in untraced],
        "metrics": metrics,
    }
    if trace:
        out["per_layer"] = _per_layer(workload, rounds, metrics)
    return out


def _digest(results: list[OpResult]) -> str:
    return sha256("".join(r.digest for r in results))


def _per_layer(
    workload: Workload, rounds: list[Round], metrics: dict[str, float]
) -> dict[str, float]:
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = traced[0].calls[layer]
        values[f"{layer}.self_s"] = statistics.median(
            r.self_s[layer] for r in traced
        )
        values[f"{layer}.share"] = statistics.median(
            r.self_s[layer] / r.wall for r in traced
        )
    values["unattributed.share"] = statistics.median(
        (r.wall - sum(r.self_s.values())) / r.wall for r in traced
    )
    base = workload.reference_wall or statistics.median(r.wall for r in untraced)
    values["trace.overhead"] = statistics.median(r.wall for r in traced) / base - 1

    totals = {
        key: sum(r.counts.get(key, 0) for r in rounds[0].results)
        for key in COUNTERS
    }
    planned = totals["replans"] + totals["replans_skipped"]
    values.update({
        "runtime.manager.replans": totals["replans"],
        "runtime.manager.replan_skip_ratio": (
            totals["replans_skipped"] / planned if planned else 0.0
        ),
        "runtime.manager.hw_fraction": (
            totals["hw_executions"] / totals["si_executions"]
            if totals["si_executions"] else 0.0
        ),
        "hardware.reconfig.rotations": totals["rotations"],
        "sim.trace.events": totals["trace_events"],
        "faults.injector.faults_injected": totals["faults_injected"],
        "faults.injector.retries": totals["retries"],
        "faults.injector.mttr_cycles": (
            totals["mttr_cycles"] / totals["mttr_reports"]
            if totals["mttr_reports"] else 0.0
        ),
        "recovery.journal.records": totals["journal_records"],
        "recovery.snapshot.count": totals["snapshots"],
        "recovery.snapshot.bytes": totals["snapshot_bytes"],
        "recovery.snapshot.replayed": totals["replayed"],
    })
    for name in ("serve.ready_s", "serve.warmup_s", "serve.overhead_s.p50",
                 "serve.overhead_s.p90", "serve.non200"):
        values[name] = 0.0
    values.update(workload.layer_extras())
    for name in (*TIMING, "sim_cycles", "fail_ratio"):
        values[name] = metrics[name]
    return values


def child_main(args: Any) -> int:
    """``python3 -m perf _child``: one workload in this process.

    Protocol lines go to the real stdout; anything the program prints
    is sent to stderr so it cannot corrupt them.
    """
    protocol = sys.stdout
    sys.stdout = sys.stderr

    def announce(line: str) -> None:
        protocol.write(line + "\n")
        protocol.flush()

    result = measure(
        WORKLOADS[args.workload](), args.seed,
        trace=bool(args.trace), setup_only=args.setup_only, announce=announce,
    )
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    announce(json.dumps({"peak_rss_kb": peak_kb, "result": result}))
    return 0


# -- the parent --------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env["PYTHONHASHSEED"] = "0"
    paths = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _kill_group(proc: subprocess.Popen[str]) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(
    workload: str, seed: int, *, trace: bool, setup_only: bool
) -> tuple[float, dict[str, Any]]:
    """One workload child: ``(setup seconds, its final JSON line)``."""
    cmd = [
        sys.executable, "-m", "perf", "_child", "--workload", workload,
        "--seed", str(seed), "--trace", str(int(trace)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    # The child leads its own process group, so a stuck child and any
    # daemon it started go down together.
    watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, args=(proc,))
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        _kill_group(proc)
        if proc.stdout is not None:
            proc.stdout.close()
    lines = rest.strip().splitlines()
    if code != 0 or ready.strip() != "ready" or not lines:
        raise BenchmarkError(
            f"{workload} child exited with code {code} before reporting"
        )
    return setup_s, json.loads(lines[-1])


def run_workload(workload: str, seed: int, *, trace: bool) -> dict[str, Any]:
    """Every metric of one workload, as printed and written to ``--out``."""
    setups = []
    peaks = []
    if not trace:
        for _ in range(SETUP_SPAWNS - 1):
            setup_s, line = spawn(workload, seed, trace=False, setup_only=True)
            setups.append(setup_s)
            peaks.append(line["peak_rss_kb"])
    setup_s, line = spawn(workload, seed, trace=trace, setup_only=False)
    setups.append(setup_s)
    peaks.append(line["peak_rss_kb"])
    result = line["result"]
    result["setup_samples"] = setups
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["metrics"]["peak_rss_mb"] = max(peaks) / 1024.0
    result["correct"] = result["failed"] == 0 and result["digest_stable"]
    return result
