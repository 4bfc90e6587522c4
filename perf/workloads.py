"""The five benchmark workloads: seeded op lists, the timed calls, the oracles.

Each workload is a closed loop (callers wait for each result, as scripts
and CI jobs do) over a fixed list of ops drawn from the seed.  The list
is *stratified*: the seed picks the content of the ops, but not how
much work a round holds (the same macroblock counts, suite mix and
phase shapes every seed), so two seeds compare like for like.

The program is driven only through public entry points:
:class:`RisppRuntime`, :func:`repro.faults.run_chaos_suite`,
:class:`repro.recovery.RecoveryPlan` and ``python -m repro serve`` over
HTTP.  Calls that the layer tracer must see go through module
attributes (``faults.run_chaos_suite``), the binding the tracer patches.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import asdict, dataclass, field
from http.client import HTTPConnection
from pathlib import Path
from time import perf_counter, sleep
from typing import Any

from .stats import p90

#: Fig. 7 loop-head forecasts of the h264 encoder (expected executions).
H264_FORECASTS = (
    ("SATD_4x4", 256.0), ("DCT_4x4", 24.0), ("HT_4x4", 1.0), ("HT_2x2", 2.0),
)

#: Fault rate (faults per Mcycle) of every chaos-based workload: CI's rate.
FAULT_RATE = 50.0

#: The suite whose ops warm up the chaos-based workloads.
WARM_UP_SUITE = "synthetic"

#: Journal commands per snapshot in ``checkpoint-resume``.
CHECKPOINT_EVERY = 64

#: Per-SI base trip counts of one ``phase-shift`` inner round.
PHASE_BASE = {
    "h264": {"DCT_4x4": 6, "HT_2x2": 2, "HT_4x4": 1, "SATD_4x4": 16},
    "synthetic": {"SI0": 16, "SI1": 8, "SI2": 4, "SI3": 2},
}
PHASE_CONTAINERS = {"h264": 6, "synthetic": 5}
#: Phases per fresh runtime, inner rounds per phase, and the factors a
#: re-fired forecast mis-estimates the executions by.
PHASES_PER_RUNTIME = 8
PHASE_INNER_ROUNDS = 4
PHASE_MISESTIMATE = (0.25, 1.0, 4.0)


def render_report(report: dict[str, Any]) -> str:
    """A chaos report as ``repro chaos --format json`` prints it."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}")


def _phase_hot_sets(names: list[str], rng: random.Random) -> list[tuple[str, ...]]:
    """The hot SIs of one runtime's 8 phases, in seeded order.

    Every runtime gets the same mix, so seeds differ in arrangement, not
    in work: each 3-SI subset once and all four SIs four times, so each
    SI is hot in exactly 7 phases.  (Half the h264 phases hot on all four
    SIs also puts the latency p90 inside that cluster, not at its edge.)
    """
    sets = [tuple(n for n in names if n != out) for out in names]
    sets += [tuple(names)] * 4
    rng.shuffle(sets)
    return sets


def _balanced(items: tuple[str, ...], count: int, rng: random.Random) -> list[str]:
    """``count`` picks cycling through ``items``, in seeded order."""
    picks = [items[i % len(items)] for i in range(count)]
    rng.shuffle(picks)
    return picks


@dataclass
class OpResult:
    """What the oracles made of one op (computed outside the timed region)."""

    ok: bool
    #: sha256 of the op's trace signature or rendered report.
    digest: str
    #: Simulated SI executions delivered and their simulated cycles.
    si: int
    cycles: int
    #: Additive counters read from public state (see ``COUNTERS``).
    counts: dict[str, float] = field(default_factory=dict)


#: Counters an op may report; sums over a round feed the per-layer counts.
COUNTERS = (
    "replans", "replans_skipped", "si_executions", "hw_executions",
    "rotations", "trace_events", "faults_injected", "retries",
    "mttr_cycles", "mttr_reports", "journal_records", "snapshots",
    "snapshot_bytes", "replayed",
)


def _stats_counts(stats: dict[str, Any], trace_events: int) -> dict[str, float]:
    return {
        "replans": stats["replans"],
        "replans_skipped": stats["replans_skipped"],
        "si_executions": stats["si_executions"],
        "hw_executions": stats["hw_executions"],
        "rotations": stats["rotations_requested"],
        "trace_events": trace_events,
    }


def _report_counts(report: dict[str, Any]) -> dict[str, float]:
    counts = _stats_counts(report["totals"], report["trace"]["events"])
    resilience = report["resilience"]
    counts["faults_injected"] = resilience["faults_injected"]
    counts["retries"] = resilience["rotation_retries"]
    counts["mttr_cycles"] = resilience["mttr_cycles"]
    counts["mttr_reports"] = 1
    return counts


def _report_si(report: dict[str, Any]) -> int:
    """SI executions a chaos scenario simulated: fault-free baseline + chaos."""
    functional = report["functional"]
    return functional["si_executions"] + functional["baseline_si_executions"]


def _trace_digest(events: Any) -> str:
    from repro.bench.harness import trace_signature

    return sha256(repr(trace_signature(events)))


class Workload:
    """One workload: ``ops`` is pure; the rest runs in the workload child.

    The child calls :meth:`setup` and :meth:`warm_up` (that is set-up
    time), then :meth:`prepare` (oracle references, untimed), then
    rounds of :meth:`run_round` / :meth:`traced_round`, each followed by
    :meth:`inspect` per op outside the timed region, and :meth:`close`.
    """

    name = ""
    why = ""
    #: Ops per round.  Five rounds pool at least 100 latency samples, so
    #: at least ten lie beyond the p90.
    round_ops = 20
    #: Untraced wall of the work :meth:`traced_round` does, when that is
    #: not the work :meth:`run_round` does (the tracing-overhead base).
    reference_wall: float | None = None

    def __init__(self, ops_per_round: int | None = None):
        # Smaller op lists are for tests; the benchmark uses ``round_ops``.
        self.ops_per_round = ops_per_round or self.round_ops

    def ops(self, seed: int) -> list[Any]:
        raise NotImplementedError

    def setup(self, work_dir: Path) -> None:
        self.work_dir = work_dir

    def warm_up(self, ops: list[Any]) -> None:
        """One untimed op whose cost does not depend on the seed."""
        raise NotImplementedError

    def prepare(self, ops: list[Any]) -> None:
        """Untimed oracle references, computed after set-up."""

    def execute(self, op: Any) -> Any:
        raise NotImplementedError

    def run_round(self, ops: list[Any]) -> tuple[list[float], float, list[Any]]:
        """Run every op once: per-op latencies, round wall, raw outputs."""
        latencies = []
        raws = []
        for op in ops:
            start = perf_counter()
            raw = self.execute(op)
            latencies.append(perf_counter() - start)
            raws.append(raw)
        return latencies, sum(latencies), raws

    def traced_round(self, ops: list[Any]) -> tuple[list[float], float, list[Any]]:
        """The round the layer tracer wraps; the same work by default."""
        return self.run_round(ops)

    def inspect(self, op: Any, raw: Any, *, first_round: bool) -> OpResult:
        raise NotImplementedError

    def layer_extras(self) -> dict[str, float]:
        """Per-layer metrics only this workload measures."""
        return {}

    def close(self) -> None:
        pass


# -- runtime-driving workloads ---------------------------------------------------


class _RuntimeWorkload(Workload):
    """Ops that drive a :class:`RisppRuntime` directly, several per runtime.

    An op that :meth:`_fresh` marks starts a new runtime; later ops keep
    driving it.  Each op's digest covers the trace events it recorded,
    and the first round verifies every runtime when its last op is done.
    """

    def warm_up(self, ops: list[Any]) -> None:
        self.run_round(ops[:1])

    def _fresh(self, position: int, op: Any) -> bool:
        raise NotImplementedError

    def _new_runtime(self, op: Any) -> tuple[Any, int]:
        """A fresh runtime for ``op`` and the cycle its stream starts at."""
        raise NotImplementedError

    def _step(self, runtime: Any, op: Any, now: int) -> int:
        """Drive ``op`` on ``runtime`` from cycle ``now``; the end cycle."""
        raise NotImplementedError

    def run_round(self, ops: list[Any]) -> tuple[list[float], float, list[Any]]:
        latencies = []
        raws = []
        runtime: Any = None
        now = 0
        for position, op in enumerate(ops):
            fresh = self._fresh(position, op)
            before = None if fresh else (len(runtime.trace), asdict(runtime.stats))
            start = perf_counter()
            if fresh:
                runtime, now = self._new_runtime(op)
            now = self._step(runtime, op, now)
            latencies.append(perf_counter() - start)
            last = position + 1 == len(ops) or self._fresh(
                position + 1, ops[position + 1]
            )
            raws.append(
                (runtime, before, (len(runtime.trace), asdict(runtime.stats)), last)
            )
        return latencies, sum(latencies), raws

    def inspect(self, op: Any, raw: Any, *, first_round: bool) -> OpResult:
        runtime, before, (end, after), last = raw
        start, before = before or (0, dict.fromkeys(after, 0))
        ok = True
        if first_round and last:
            from repro.analysis.verify import verify_runtime

            ok = verify_runtime(runtime, subject=self.name).ok()
        delta = {key: after[key] - before[key] for key in after}
        return OpResult(
            ok=ok,
            digest=_trace_digest(runtime.trace.events[start:end]),
            si=delta["si_executions"],
            cycles=delta["si_cycles"],
            counts=_stats_counts(delta, end - start),
        )


# -- h264-stream ---------------------------------------------------------------


@dataclass(frozen=True)
class StreamOp:
    """One slice of macroblocks of the Fig. 7 encoder stream."""

    macroblocks: int
    inter_block_cycles: int


class H264Stream(_RuntimeWorkload):
    name = "h264-stream"
    why = (
        "the paper's Fig. 7 macroblock SI stream with telemetry on; time "
        "goes to execute_si, event dispatch, trace and metrics"
    )

    def ops(self, seed: int) -> list[StreamOp]:
        rng = _rng(self.name, seed)
        n = self.ops_per_round
        # Stratified over 16..32 macroblocks, in one fixed shuffled order
        # for every seed: garbage-collector passes land at fixed
        # allocation counts, so they then hit the same slices every seed.
        # The seed picks each slice's idle gap between macroblocks, which
        # moves when rotations land.
        sizes = [16 + (i * 17) // n for i in range(n)]
        random.Random(f"{self.name}:order").shuffle(sizes)
        return [
            StreamOp(mb, rng.randrange(2_000, 20_001, 500)) for mb in sizes
        ]

    def setup(self, work_dir: Path) -> None:
        super().setup(work_dir)
        from repro.apps.h264 import build_h264_library
        from repro.bench.suites import H264_MACROBLOCK_CALLS

        self.library = build_h264_library()
        self.blocks = list(H264_MACROBLOCK_CALLS)

    def _fresh(self, position: int, op: StreamOp) -> bool:
        # One encoder runtime per round: an encoder keeps its runtime
        # across slices, so the stream's few real replans stay a small
        # share (a fresh runtime per slice would spend ~13% selecting).
        return position == 0

    def _new_runtime(self, op: StreamOp) -> tuple[Any, int]:
        from repro.obs import MetricRegistry
        from repro.runtime.manager import RisppRuntime

        runtime = RisppRuntime(
            self.library, 6, core_mhz=100.0, metrics=MetricRegistry()
        )
        return runtime, 700_000

    def _step(self, runtime: Any, op: StreamOp, now: int) -> int:
        # The loop of repro.bench.suites.run_si_stream: the loop-head
        # forecasts re-fire on every macroblock.
        for _ in range(op.macroblocks):
            for si, expected in H264_FORECASTS:
                runtime.forecast(si, now, expected=expected)
            for si, calls in self.blocks:
                for _ in range(calls):
                    now += runtime.execute_si(si, now)
            now += op.inter_block_cycles
        return now


# -- phase-shift ---------------------------------------------------------------


@dataclass(frozen=True)
class PhaseOp:
    """One phase of a drifting forecast on a runtime shared by 8 phases."""

    library: str
    #: Position in the runtime's phase sequence; 0 builds a fresh runtime.
    index: int
    hot: tuple[str, ...]
    #: SIs hot in the previous phase and not in this one (forecast_end).
    dropped: tuple[str, ...]
    #: Per inner round: ``(si, forecast expectation, executions)``.
    rounds: tuple[tuple[tuple[str, float, int], ...], ...]
    #: Idle cycles after each inner round (lets rotations land).
    gaps: tuple[int, ...]


class PhaseShift(_RuntimeWorkload):
    name = "phase-shift"
    why = (
        "a seeded drifting forecast whose replans are almost never skipped, "
        "so selection, rotation planning and the port do the work"
    )
    #: Two synthetic runtimes per h264 one, so the median phase lies
    #: inside the cheap synthetic cluster and the p90 inside the h264
    #: all-four-SIs cluster, never in the gap between clusters.
    library_mix = ("h264", "synthetic", "synthetic")
    round_ops = 2 * len(library_mix) * PHASES_PER_RUNTIME

    def ops(self, seed: int) -> list[PhaseOp]:
        rng = _rng(self.name, seed)
        ops: list[PhaseOp] = []
        for runtime in range(self.ops_per_round // PHASES_PER_RUNTIME):
            library = self.library_mix[runtime % len(self.library_mix)]
            base = PHASE_BASE[library]
            hot_sets = _phase_hot_sets(sorted(base), rng)
            # Every SI is hot in 7 phases x 4 inner rounds; its trip-count
            # multipliers and mis-estimates are stratified over those slots.
            slots = 7 * PHASE_INNER_ROUNDS
            trips = {}
            expected = {}
            for si in base:
                trips[si] = [0.5 + (j + 0.5) / slots for j in range(slots)]
                expected[si] = [
                    PHASE_MISESTIMATE[j % len(PHASE_MISESTIMATE)]
                    for j in range(slots)
                ]
                rng.shuffle(trips[si])
                rng.shuffle(expected[si])
            gaps = [
                10_000 + 1_000 * ((90 * j) // (len(hot_sets) * PHASE_INNER_ROUNDS - 1))
                for j in range(len(hot_sets) * PHASE_INNER_ROUNDS)
            ]
            rng.shuffle(gaps)
            previous: tuple[str, ...] = ()
            for index, hot in enumerate(hot_sets):
                rounds = tuple(
                    tuple(
                        (
                            si,
                            base[si] * expected[si].pop(),
                            max(1, round(base[si] * trips[si].pop())),
                        )
                        for si in hot
                    )
                    for _ in range(PHASE_INNER_ROUNDS)
                )
                dropped = tuple(si for si in previous if si not in hot)
                ops.append(PhaseOp(
                    library, index, hot, dropped, rounds,
                    tuple(gaps.pop() for _ in range(PHASE_INNER_ROUNDS)),
                ))
                previous = hot
        return ops

    def setup(self, work_dir: Path) -> None:
        super().setup(work_dir)
        from repro.apps.h264 import build_h264_library
        from repro.bench.suites import build_synthetic_library

        self.libraries = {
            "h264": build_h264_library(),
            "synthetic": build_synthetic_library(),
        }

    def _fresh(self, position: int, op: PhaseOp) -> bool:
        return op.index == 0

    def _new_runtime(self, op: PhaseOp) -> tuple[Any, int]:
        from repro.runtime.manager import RisppRuntime

        runtime = RisppRuntime(
            self.libraries[op.library], PHASE_CONTAINERS[op.library],
            core_mhz=100.0,
        )
        return runtime, 1_000

    def _step(self, runtime: Any, op: PhaseOp, now: int) -> int:
        for si in op.dropped:
            runtime.forecast_end(si, now)
        for inner, gap in zip(op.rounds, op.gaps):
            for si, expected, _ in inner:
                runtime.forecast(si, now, expected=expected)
            for si, _, trips in inner:
                for _ in range(trips):
                    now += runtime.execute_si(si, now)
            now += gap
        return now


# -- chaos-verify --------------------------------------------------------------


@dataclass(frozen=True)
class ChaosOp:
    suite: str
    seed: int


class ChaosVerify(Workload):
    name = "chaos-verify"
    why = (
        "full-size repro chaos at CI's fault rate: fault injection, repair "
        "replans, trace verification, feasibility proof and the AES flow"
    )
    suites = ("aes", "h264", "synthetic")

    def ops(self, seed: int) -> list[ChaosOp]:
        rng = _rng(self.name, seed)
        return [
            ChaosOp(suite, rng.randrange(1, 1_000_000))
            for suite in _balanced(self.suites, self.ops_per_round, rng)
        ]

    def warm_up(self, ops: list[ChaosOp]) -> None:
        # A fixed suite, so set-up time does not depend on the seed.
        self.execute(next(op for op in ops if op.suite == WARM_UP_SUITE))

    def execute(self, op: ChaosOp) -> Any:
        import repro.faults as faults

        return faults.run_chaos_suite(
            op.suite, seed=op.seed, fault_rate=FAULT_RATE, quick=False
        )

    def inspect(self, op: ChaosOp, raw: Any, *, first_round: bool) -> OpResult:
        from repro.faults import chaos_ok

        return OpResult(
            ok=chaos_ok(raw),
            digest=sha256(render_report(raw)),
            si=_report_si(raw),
            cycles=raw["totals"]["si_cycles"],
            counts=_report_counts(raw),
        )


# -- checkpoint-resume ---------------------------------------------------------


@dataclass(frozen=True)
class ResumeOp:
    suite: str
    seed: int
    #: Where the crash lands, as a fraction of the journaled commands.
    crash_at: float


class CheckpointResume(Workload):
    name = "checkpoint-resume"
    why = (
        "quick chaos under a checkpointing RecoveryPlan, crashed mid-run and "
        "resumed: adds journal and snapshot writes and restore reads"
    )
    #: Three synthetic runs per h264 run: the median op then lies inside
    #: the synthetic cluster of latencies and the p90 inside the h264
    #: one, not in the gap between two.
    suites = ("h264", "synthetic", "synthetic", "synthetic")

    def ops(self, seed: int) -> list[ResumeOp]:
        rng = _rng(self.name, seed)
        return [
            ResumeOp(suite, rng.randrange(1, 1_000_000), rng.uniform(0.25, 0.75))
            for suite in _balanced(self.suites, self.ops_per_round, rng)
        ]

    def _plan(self, store: Path, **kwargs: Any) -> Any:
        from repro.recovery import RecoveryPlan

        return RecoveryPlan(store, checkpoint_every=CHECKPOINT_EVERY, **kwargs)

    def _chaos(self, op: ResumeOp, recovery: Any = None) -> Any:
        import repro.faults as faults

        return faults.run_chaos_suite(
            op.suite, seed=op.seed, fault_rate=FAULT_RATE, quick=True,
            recovery=recovery,
        )

    def warm_up(self, ops: list[ResumeOp]) -> None:
        """One uninterrupted journaled run per suite.

        Its journal gives the command cycles the crash fractions map to:
        the middle half of the *commands*, not of the cycle horizon (the
        stream suites idle for their first 700k cycles).
        """
        from repro.recovery.journal import JOURNAL_NAME, read_journal

        self.command_cycles = {}
        for suite in dict.fromkeys(self.suites):
            store = self.work_dir / f"probe-{suite}"
            self._chaos(ResumeOp(suite, 1, 0.5), self._plan(store))
            records = read_journal(store / JOURNAL_NAME).records
            self.command_cycles[suite] = [r.cycle for r in records]
            shutil.rmtree(store)

    def prepare(self, ops: list[ResumeOp]) -> None:
        self.references = {op: render_report(self._chaos(op)) for op in ops}

    def crash_cycle(self, op: ResumeOp) -> int:
        cycles = self.command_cycles[op.suite]
        return cycles[int(op.crash_at * (len(cycles) - 1))]

    def run_round(self, ops: list[ResumeOp]) -> tuple[list[float], float, list[Any]]:
        from repro.recovery import SimulatedCrash
        from repro.recovery.journal import JOURNAL_NAME, read_journal
        from repro.recovery.snapshot import latest_snapshot

        latencies = []
        raws = []
        for i, op in enumerate(ops):
            store = self.work_dir / f"op-{i}"
            if store.exists():
                shutil.rmtree(store)
            crash = self._plan(store, crash_at=self.crash_cycle(op))
            start = perf_counter()
            try:
                self._chaos(op, crash)
                crashed = False
            except SimulatedCrash:
                crashed = True
            crash_s = perf_counter() - start
            # Untimed: how much journal the resume will have to replay.
            journaled = len(read_journal(store / JOURNAL_NAME).records)
            latest = latest_snapshot(store)
            replayed = journaled - (latest[0] if latest is not None else 0)
            start = perf_counter()
            report = self._chaos(op, self._plan(store, resume=True))
            latencies.append(crash_s + perf_counter() - start)
            raws.append((crashed, replayed, report, store))
        return latencies, sum(latencies), raws

    def inspect(self, op: ResumeOp, raw: Any, *, first_round: bool) -> OpResult:
        from repro.faults import chaos_ok
        from repro.recovery.journal import JOURNAL_NAME, read_journal
        from repro.recovery.snapshot import list_snapshots

        crashed, replayed, report, store = raw
        rendered = render_report(report)
        snapshots = list_snapshots(store)
        counts = _report_counts(report)
        counts["journal_records"] = len(
            read_journal(store / JOURNAL_NAME).records
        )
        counts["snapshots"] = len(snapshots)
        counts["snapshot_bytes"] = sum(p.stat().st_size for _, p in snapshots)
        counts["replayed"] = replayed
        shutil.rmtree(store)
        return OpResult(
            ok=(
                crashed
                and rendered == self.references[op]
                and chaos_ok(report)
            ),
            digest=sha256(rendered),
            si=_report_si(report),
            cycles=report["totals"]["si_cycles"],
            counts=counts,
        )


# -- serve ---------------------------------------------------------------------


def _key(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True)


class Serve(Workload):
    name = "serve"
    why = (
        "python -m repro serve with 2 workers and 2 keep-alive clients; pool "
        "start-up is set-up time, so warm-pool latency is measured alone"
    )
    suites = ("aes", "h264", "synthetic")
    round_ops = 21
    workers = 2

    def __init__(self, ops_per_round: int | None = None):
        super().__init__(ops_per_round)
        self._proc: subprocess.Popen[str] | None = None
        self.address: tuple[str, int] | None = None
        self._conns: list[HTTPConnection] = []
        self.non200 = 0
        #: Client-side latency minus in-process render time, per request.
        self.overheads: list[float] = []

    def ops(self, seed: int) -> list[dict[str, Any]]:
        rng = _rng(self.name, seed)
        return [
            {
                "suite": suite,
                "seed": rng.randrange(1, 1_000_000),
                "fault_rate": FAULT_RATE,
                "quick": True,
            }
            for suite in _balanced(self.suites, self.ops_per_round, rng)
        ]

    def setup(self, work_dir: Path) -> None:
        super().setup(work_dir)
        start = perf_counter()
        self._proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--workers", str(self.workers),
            ],
            stdout=subprocess.PIPE, text=True,
        )
        line = self._proc.stdout.readline() if self._proc.stdout else ""
        if not line.startswith("serving on http://"):
            raise RuntimeError(f"serve daemon did not start: {line!r}")
        host, _, port = line.split("http://", 1)[1].strip().partition(":")
        self.address = (host, int(port))
        while True:
            status = self._probe("/readyz")
            if status == 200:
                break
            if self._proc.poll() is not None:
                raise RuntimeError("serve daemon exited before it was ready")
            sleep(0.005)
        self.ready_s = perf_counter() - start
        self._conns = [
            HTTPConnection(*self.address, timeout=120)
            for _ in range(self.workers)
        ]

    def _probe(self, path: str) -> int:
        conn = HTTPConnection(*self.address, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            response.read()
            return response.status
        except ConnectionError:
            return 0
        finally:
            conn.close()

    def warm_up(self, ops: list[dict[str, Any]]) -> None:
        """One scenario per worker, sent concurrently, all of one suite
        so that set-up time does not depend on the seed."""
        start = perf_counter()
        self._send_all(
            [op for op in ops if op["suite"] == WARM_UP_SUITE][: self.workers]
        )
        self.warmup_s = perf_counter() - start

    def prepare(self, ops: list[dict[str, Any]]) -> None:
        """The in-process render of every request: the byte-equality
        reference, and the work time that request overhead is measured
        against."""
        # One render per suite first: imports and caches, not work.
        self._render_all(list({op["suite"]: op for op in ops}.values()))
        latencies, self.reference_wall, raws = self._render_all(ops)
        self.references = {
            _key(payload): (latency, body)
            for payload, latency, (_, body) in zip(ops, latencies, raws)
        }

    def _render_all(self, ops: list[dict[str, Any]]) -> tuple[list[float], float, list[Any]]:
        from repro.serve import ScenarioRequest, render_scenario

        latencies = []
        raws = []
        for payload in ops:
            start = perf_counter()
            body = render_scenario(ScenarioRequest.from_payload(payload))
            latencies.append(perf_counter() - start)
            raws.append((200, body))
        return latencies, sum(latencies), raws

    def _post(self, slot: int, payload: dict[str, Any]) -> tuple[int, str]:
        body = json.dumps(payload)
        try:
            conn = self._conns[slot]
            conn.request(
                "POST", "/scenario", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, response.read().decode("utf-8")
        except (OSError, ValueError) as exc:
            self._conns[slot].close()
            self._conns[slot] = HTTPConnection(*self.address, timeout=120)
            return 0, f"{type(exc).__name__}: {exc}"

    def _send_all(self, ops: list[dict[str, Any]]) -> tuple[list[float], list[Any]]:
        """Each connection's thread takes the next request when its last
        one returned (a closed loop with ``workers`` clients)."""
        latencies = [0.0] * len(ops)
        raws: list[Any] = [None] * len(ops)
        lock = threading.Lock()
        cursor = [0]

        def client(slot: int) -> None:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(ops):
                    return
                start = perf_counter()
                raws[i] = self._post(slot, ops[i])
                latencies[i] = perf_counter() - start

        threads = [
            threading.Thread(target=client, args=(slot,))
            for slot in range(len(self._conns))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return latencies, raws

    def run_round(self, ops: list[dict[str, Any]]) -> tuple[list[float], float, list[Any]]:
        start = perf_counter()
        latencies, raws = self._send_all(ops)
        wall = perf_counter() - start
        for payload, (status, _), latency in zip(ops, raws, latencies):
            self.non200 += status != 200
            self.overheads.append(latency - self.references[_key(payload)][0])
        return latencies, wall, raws

    def traced_round(self, ops: list[dict[str, Any]]) -> tuple[list[float], float, list[Any]]:
        """The workers' work, rendered in this process where the tracer
        can see it (the daemon's worker processes are out of its reach)."""
        return self._render_all(ops)

    def layer_extras(self) -> dict[str, float]:
        overheads = self.overheads or [0.0]
        return {
            "serve.ready_s": self.ready_s,
            "serve.warmup_s": self.warmup_s,
            "serve.overhead_s.p50": statistics.median(overheads),
            "serve.overhead_s.p90": p90(overheads),
            "serve.non200": self.non200,
        }

    def inspect(self, op: dict[str, Any], raw: Any, *, first_round: bool) -> OpResult:
        from repro.faults import chaos_ok

        status, body = raw
        if status != 200:
            return OpResult(ok=False, digest=sha256(body), si=0, cycles=0)
        report = json.loads(body)
        return OpResult(
            ok=body == self.references[_key(op)][1] and chaos_ok(report),
            digest=sha256(body),
            si=_report_si(report),
            cycles=report["totals"]["si_cycles"],
            counts=_report_counts(report),
        )

    def close(self) -> None:
        for conn in self._conns:
            conn.close()
        proc = self._proc
        if proc is None:
            return
        if proc.poll() is None:
            if self.address is None:
                proc.kill()
            else:
                conn = HTTPConnection(*self.address, timeout=10)
                try:
                    conn.request("POST", "/shutdown", body="")
                    conn.getresponse().read()
                except OSError:
                    proc.kill()
                finally:
                    conn.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (H264Stream, PhaseShift, ChaosVerify, CheckpointResume, Serve)
}
