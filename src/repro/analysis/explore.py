"""rispp-explore: bounded exhaustive model checking of the rotation runtime.

rispp-verify replays *one* recorded trace; rispp-explore instead drives
the real runtime — :class:`~repro.runtime.manager.RisppRuntime`, its
:class:`~repro.hardware.reconfig.ReconfigurationPort` and an attached
:class:`~repro.faults.injector.FaultInjector` — through **every** enabled
action interleaving of a small-scope configuration (2–4 Atom Containers,
3–6 atom kinds, 2–3 SIs, bounded action budgets), with memoized state
hashing on a frontier/visited BFS core.  Every reachable state is judged
against the MC rule family declared in :mod:`.rules`:

* MC001/MC002/MC003 — port serialization, reservation/queue coherence and
  container lifecycle coherence (TRC002/TRC004 over all states);
* MC004 — quarantine safety (TRC015 over all states, plus the repair
  flag actually reaching the trace);
* MC005/MC006 — deadlock/livelock freedom, replan convergence and
  replan-skip soundness, probed by forking the state and draining /
  re-replanning it;
* MC007/MC008 — rotation latency ≤ the FEA004-style static bound and
  repair latency ≤ the ``static_repair_bound`` formula (FEA005
  cross-validation), both rate-aware via
  :func:`~repro.analysis.feasibility.rotation_cycle_table`;
* MC009 — terminal-state traces replay cleanly through the rispp-verify
  reference machine;
* MC010 — SI dispatch matches the best available molecule (TRC013).

A violated rule yields a **minimized counterexample**: the action path is
greedily shrunk (ddmin-style single drops), replayed on a fresh world
and serialised as a golden-trace JSON v1 payload that ``rispp-verify``
independently replays — the checker and the verifier cross-validate each
other, and the expected TRC rule of the verifier run is recorded on the
counterexample.

Exploration is deterministic: action order is fixed, worlds carry no
wall-clock or randomness, and the state key includes the remaining
action budgets so merging two states never loses a distinct suffix.
"""

from __future__ import annotations

import copy
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any

from ..core.atom import AtomCatalogue, AtomKind
from ..core.library import SILibrary
from ..core.si import MoleculeImpl, SpecialInstruction
from ..faults.injector import FaultInjector
from ..faults.model import FaultEvent, FaultKind, FaultSchedule
from ..runtime.manager import RisppRuntime
from ..sim.trace import EventKind
from .diagnostics import DiagnosticReport
from .feasibility import rotation_cycle_table
from .rules import diag, expand_selectors, rules_of_family
from .verify import golden_from_dict, golden_from_runtime, verify_golden, verify_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..hardware.reconfig import RotationJob
    from ..obs import MetricRegistry

#: An action of the explored transition system, as a plain tuple:
#: ``("forecast", si)`` / ``("forecast_end", si)`` / ``("exec", si)`` /
#: ``("tick",)`` / ``("fault", kind_value, container)``.
Action = tuple[str | int, ...]

#: Memoization key for a machine state (nested value tuples, hash-stable).
StateKey = tuple[object, ...]

Mutator = Callable[[RisppRuntime], None]

_FAR = 10**9


# ---------------------------------------------------------------------------
# Scopes: the bounded configurations the checker can exhaust
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExploreScope:
    """One bounded configuration: platform shape plus action budgets.

    The budgets bound the *path language*, not the state count directly:
    each path may fire every forecast/exec/fault at most its budget many
    times, and ``tick`` (advance to the next scheduled hardware or fault
    event) at most ``tick_budget`` times — so the reachable state space
    is finite and the BFS terminates without a horizon heuristic.
    """

    name: str
    library_name: str
    containers: int
    core_mhz: float = 1.0
    bytes_per_us: float = 10.0
    scrub_period: int = 8
    max_retries: int = 1
    backoff_cycles: int = 2
    #: Per-SI budgets (every SI, unless overridden in ``si_budgets``).
    forecast_budget: int = 1
    forecast_end_budget: int = 1
    exec_budget: int = 1
    #: Per-SI overrides: (si, forecast, forecast_end, exec).  Asymmetric
    #: budgets keep richer scopes tractable — one SI exercises the full
    #: forecast/end/exec alphabet while the others only add demand.
    si_budgets: tuple[tuple[str, int, int, int], ...] = ()
    #: Global budgets.
    tick_budget: int = 6
    fault_budget: int = 1
    #: The fault actions available (kind value, container id).
    fault_actions: tuple[tuple[str, int], ...] = ()
    #: Forecast expectations per SI (selection weights); SIs not listed
    #: default to 2.0.
    expected: tuple[tuple[str, float], ...] = ()
    #: Safety valve only — the budgets already make the space finite.
    max_states: int = 200_000

    def expected_of(self, si_name: str) -> float:
        for name, value in self.expected:
            if name == si_name:
                return value
        return 2.0

    def budgets_of(self, si_name: str) -> tuple[int, int, int]:
        """(forecast, forecast_end, exec) budget for one SI."""
        for name, forecast, end, execute in self.si_budgets:
            if name == si_name:
                return (forecast, end, execute)
        return (self.forecast_budget, self.forecast_end_budget, self.exec_budget)


def _tiny_library() -> SILibrary:
    catalogue = AtomCatalogue.of(
        [
            AtomKind("XA", bitstream_bytes=30, slices=8, latency_cycles=1),
            AtomKind("XB", bitstream_bytes=40, slices=8, latency_cycles=1),
            AtomKind("XC", bitstream_bytes=50, slices=8, latency_cycles=1),
        ]
    )
    space = catalogue.space
    sis = [
        SpecialInstruction(
            "SI_A", space, 9,
            [MoleculeImpl(space.molecule({"XA": 1}), 3, "A1")],
        ),
        SpecialInstruction(
            "SI_B", space, 12,
            [
                MoleculeImpl(space.molecule({"XB": 1}), 5, "B1"),
                MoleculeImpl(space.molecule({"XB": 1, "XC": 1}), 2, "B2"),
            ],
        ),
    ]
    return SILibrary(catalogue, sis)


def _small_library() -> SILibrary:
    catalogue = AtomCatalogue.of(
        [
            AtomKind("XA", bitstream_bytes=30, slices=8, latency_cycles=1),
            AtomKind("XB", bitstream_bytes=40, slices=8, latency_cycles=1),
            AtomKind("XC", bitstream_bytes=50, slices=8, latency_cycles=1),
            AtomKind("XD", bitstream_bytes=60, slices=8, latency_cycles=1),
        ]
    )
    space = catalogue.space
    sis = [
        SpecialInstruction(
            "SI_A", space, 9,
            [
                MoleculeImpl(space.molecule({"XA": 1}), 4, "A1"),
                MoleculeImpl(space.molecule({"XA": 1, "XD": 1}), 2, "A2"),
            ],
        ),
        SpecialInstruction(
            "SI_B", space, 12,
            [
                MoleculeImpl(space.molecule({"XB": 1}), 5, "B1"),
                MoleculeImpl(space.molecule({"XB": 1, "XC": 1}), 2, "B2"),
            ],
        ),
        SpecialInstruction(
            "SI_C", space, 10,
            [MoleculeImpl(space.molecule({"XC": 1}), 4, "C1")],
        ),
    ]
    return SILibrary(catalogue, sis)


def build_explore_library(name: str) -> SILibrary:
    """The mini-library behind one explore scope (also a golden library)."""
    if name == "explore-tiny":
        return _tiny_library()
    if name == "explore-small":
        return _small_library()
    raise ValueError(
        f"unknown explore library {name!r}; "
        "choose from ['explore-small', 'explore-tiny']"
    )


SCOPES: dict[str, ExploreScope] = {
    "tiny": ExploreScope(
        name="tiny",
        library_name="explore-tiny",
        containers=2,
        forecast_budget=1,
        forecast_end_budget=1,
        exec_budget=1,
        tick_budget=5,
        fault_budget=1,
        fault_actions=(
            (FaultKind.TRANSIENT.value, 0),
            (FaultKind.WRITE_ERROR.value, 0),
        ),
        expected=(("SI_A", 4.0), ("SI_B", 3.0)),
    ),
    # The richness of "small" is the platform shape (3 containers, 4
    # atoms, 3 SIs with competing molecules), not the event budgets:
    # asymmetric per-SI budgets keep the interleaving space tractable
    # while SI_A still exercises the full forecast/end/exec alphabet.
    "small": ExploreScope(
        name="small",
        library_name="explore-small",
        containers=3,
        si_budgets=(
            ("SI_A", 1, 1, 1),
            ("SI_B", 1, 0, 1),
            ("SI_C", 1, 0, 0),
        ),
        tick_budget=3,
        fault_budget=1,
        fault_actions=(
            (FaultKind.TRANSIENT.value, 0),
            (FaultKind.WRITE_ERROR.value, 0),
            (FaultKind.PERMANENT.value, 2),
        ),
        expected=(("SI_A", 4.0), ("SI_B", 3.0), ("SI_C", 2.0)),
    ),
}

#: Package-level alias (``repro.analysis.EXPLORE_SCOPES``) — the bare
#: name ``SCOPES`` is too generic outside this module.
EXPLORE_SCOPES = SCOPES


# ---------------------------------------------------------------------------
# Worlds: building, copying, replaying
# ---------------------------------------------------------------------------


@dataclass
class _World:
    """One explored state: the live runtime and its current cycle."""

    runtime: RisppRuntime
    now: int = 0


def _build_world(scope: ExploreScope, mutator: Mutator | None) -> _World:
    injector = FaultInjector(
        FaultSchedule([]),
        scrub_period=scope.scrub_period,
        max_retries=scope.max_retries,
        backoff_cycles=scope.backoff_cycles,
    )
    runtime = RisppRuntime(
        build_explore_library(scope.library_name),
        scope.containers,
        core_mhz=scope.core_mhz,
        bytes_per_us=scope.bytes_per_us,
        faults=injector,
    )
    if mutator is not None:
        mutator(runtime)
    return _World(runtime=runtime, now=0)


def _shallow(obj: object, **overrides: object) -> Any:
    """Same-class instance with a shallow-copied ``__dict__`` + overrides."""
    clone = object.__new__(type(obj))
    clone.__dict__.update(vars(obj))
    clone.__dict__.update(overrides)
    return clone


def _copy_world(world: _World) -> _World:
    """Structural clone of a world — the successor generator's hot path.

    A generic ``copy.deepcopy`` spends milliseconds dispatching over the
    object graph; this clone knows exactly which parts are mutable
    machine state and copies only those.  Shared untouched: the library
    and catalogue, policy/selection/telemetry handles, recorded trace
    events (append-only), retired port jobs (nothing mutates a job once
    it left the pending queue) and immutable value objects (molecules,
    fault events).
    """
    rt = world.runtime
    port = rt.port
    # Pending jobs mutate (start/complete/abort flags), so they are the
    # one place needing identity-preserving copies: the injector's
    # ``_repair_of`` must reference the *same* clone the pending queue
    # holds — repair release compares by identity.
    job_map = {id(j): copy.copy(j) for j in port._pending}
    new_port = _shallow(
        port,
        jobs=[job_map.get(id(j), j) for j in port.jobs],
        _pending=[job_map[id(j)] for j in port._pending],
        _reserved=set(port._reserved),
    )
    new_fabric = _shallow(
        rt.fabric,
        containers=[copy.copy(c) for c in rt.fabric.containers],
    )
    new_monitor = _shallow(
        rt.monitor,
        _stats={k: copy.copy(s) for k, s in rt.monitor._stats.items()},
        _open={k: copy.copy(w) for k, w in rt.monitor._open.items()},
    )
    new_trace = _shallow(rt.trace, events=list(rt.trace.events))
    inj = rt._faults
    new_inj = None
    if inj is not None:
        new_inj = _shallow(
            inj,
            stats=copy.copy(inj.stats),
            _events=list(inj._events),
            _corrupted={k: copy.copy(e) for k, e in inj._corrupted.items()},
            _quarantined={k: copy.copy(e) for k, e in inj._quarantined.items()},
            _retries=[copy.copy(r) for r in inj._retries],
            _attempts=dict(inj._attempts),
            _repair_of={
                k: job_map.get(id(j), j) for k, j in inj._repair_of.items()
            },
        )
    new_rt = _shallow(
        rt,
        fabric=new_fabric,
        port=new_port,
        monitor=new_monitor,
        trace=new_trace,
        stats=copy.copy(rt.stats),
        task_stats={k: copy.copy(s) for k, s in rt.task_stats.items()},
        _active={k: copy.copy(f) for k, f in rt._active.items()},
        _last_mode=dict(rt._last_mode),
        _impl_cache=dict(rt._impl_cache),
        _faults=new_inj,
    )
    if new_inj is not None:
        new_inj._runtime = new_rt
    # The cloned port must publish into the cloned runtime (the handler
    # table is static, so dispatch carries no per-runtime state).
    new_port._runtime = new_rt
    return _World(runtime=new_rt, now=world.now)


def _replay(scope: ExploreScope, mutator: Mutator | None, actions: Iterable[Action]) -> _World:
    """A fresh world with ``actions`` applied (assumes they are enabled)."""
    world = _build_world(scope, mutator)
    for action in actions:
        _apply(world, action, scope)
    return world


def _fork(
    scope: ExploreScope,
    mutator: Mutator | None,
    world: _World,
    path: tuple[Action, ...],
) -> _World:
    """A disposable clone for destructive probes (drain, re-replan).

    Without a mutator the world deepcopies; with one it is rebuilt and
    replayed instead — instance-level monkeypatches close over the
    original objects and would not survive a deepcopy.
    """
    if mutator is None:
        return _copy_world(world)
    return _replay(scope, mutator, path)


# ---------------------------------------------------------------------------
# The transition system
# ---------------------------------------------------------------------------


def _next_interesting(world: _World) -> int | None:
    """The next cycle at which scheduled state changes: the earliest
    pending rotation start/completion or fault/scrub/retry event."""
    rt = world.runtime
    best = rt.port.next_event()
    if rt._faults is not None:
        due = rt._faults.next_cycle(_FAR)
        if due is not None and (best is None or due < best):
            best = due
    if best is not None and best <= world.now:  # pragma: no cover - defensive
        return None
    return best


def _enabled_actions(
    world: _World, scope: ExploreScope, counts: dict[Action, int]
) -> list[Action]:
    rt = world.runtime
    actions: list[Action] = []
    for si_name in rt.library.names():
        forecasts, ends, execs = scope.budgets_of(si_name)
        active = ("main", si_name) in rt._active
        if not active and counts.get(("forecast", si_name), 0) < forecasts:
            actions.append(("forecast", si_name))
        if active and counts.get(("forecast_end", si_name), 0) < ends:
            actions.append(("forecast_end", si_name))
        if counts.get(("exec", si_name), 0) < execs:
            actions.append(("exec", si_name))
    if counts.get(("tick",), 0) < scope.tick_budget and _next_interesting(world) is not None:
        actions.append(("tick",))
    faults_used = sum(n for a, n in counts.items() if a[0] == "fault")
    if faults_used < scope.fault_budget:
        for kind_value, container in scope.fault_actions:
            actions.append(("fault", kind_value, container))
    return actions


def _apply(world: _World, action: Action, scope: ExploreScope) -> None:
    """Fire one action; the world ends fully advanced to its new cycle."""
    rt = world.runtime
    kind = action[0]
    if kind == "forecast":
        rt.forecast(action[1], world.now, expected=scope.expected_of(action[1]))
    elif kind == "forecast_end":
        rt.forecast_end(action[1], world.now)
    elif kind == "exec":
        world.now += rt.execute_si(action[1], world.now)
    elif kind == "tick":
        target = _next_interesting(world)
        if target is None:  # pragma: no cover - guarded by _enabled_actions
            return
        world.now = target
    elif kind == "fault":
        assert rt._faults is not None
        rt._faults.schedule_fault(
            FaultEvent(world.now, FaultKind(action[1]), action[2])
        )
    else:  # pragma: no cover - authoring error
        raise ValueError(f"unknown action {action!r}")
    # Normalise: rotations *starting* at the current cycle are processed
    # (``forecast`` replans after its internal advance, so a job issued
    # "now" would otherwise sit unstarted and every observer — the state
    # key, the MC checks, ``next_event`` — would see a half-advanced
    # world).
    rt.advance(world.now)


def _count(counts: dict[Action, int], action: Action) -> dict[Action, int]:
    # Faults share one budget regardless of kind/target.
    key: Action = ("fault", action[1], action[2]) if action[0] == "fault" else action
    bumped = dict(counts)
    bumped[key] = bumped.get(key, 0) + 1
    return bumped


def _state_key(world: _World, counts: dict[Action, int]) -> StateKey:
    """Canonical hashable fingerprint of everything behavior-relevant.

    The remaining budgets (via ``counts``) are part of the key: two
    worlds with identical machine state but different budgets left admit
    different suffixes, and merging them would silently prune paths.
    """
    rt = world.runtime
    port = rt.port
    inj = rt._faults
    containers = tuple(
        (c.state.value, c.atom, c.owner, c.ready_at, c.last_used,
         c.failed, c.corrupted, c.quarantined)
        for c in rt.fabric.containers
    )
    pending = tuple(
        (j.atom, j.container_id, j.requested_at, j.started_at, j.finish_at,
         j.started, j.repair, j.owner)
        for j in port.pending_jobs()
    )
    active = tuple(sorted(
        (key, f.weight, f.priority) for key, f in rt._active.items()
    ))
    modes = tuple(sorted(rt._last_mode.items()))
    monitor = rt.monitor
    tuned = tuple(sorted(
        (key, s.expectation, s.windows, s.total_predicted,
         s.total_observed, s.hit_windows)
        for key, s in monitor._stats.items()
    ))
    windows = tuple(sorted(
        (key, w.opened_at, w.predicted, w.observed)
        for key, w in monitor._open.items()
    ))
    fault_key: StateKey = ()
    if inj is not None:
        fault_key = (
            tuple(sorted(
                (cid, e.atom, e.injected_at) for cid, e in inj._corrupted.items()
            )),
            tuple(sorted(
                (cid, e.atom, e.injected_at, e.detected_at)
                for cid, e in inj._quarantined.items()
            )),
            tuple(sorted(
                (r.due, r.container, r.atom, r.owner or "", r.repair)
                for r in inj._retries
            )),
            tuple(sorted(inj._attempts.items())),
            tuple(sorted(
                (cid, j.atom, j.finish_at) for cid, j in inj._repair_of.items()
            )),
        )
    return (
        world.now,
        containers,
        port.busy_until,
        pending,
        active,
        modes,
        tuned,
        windows,
        fault_key,
        rt._unplaced_for,
        tuple(sorted(counts.items())),
    )


# ---------------------------------------------------------------------------
# The MC rule checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Bounds:
    """Rate-aware static bounds the MC007/MC008/MC005 checks prove."""

    rotation_cycles: dict[str, int]
    max_rotation: int
    #: FEA004-style request-to-finish bound: own write + a full queue.
    queue_bound: int
    #: ``static_repair_bound`` formula at the scope's port rate.
    repair_bound: int
    #: Cycles a fork may advance before it must have gone quiescent.
    drain_bound: int


def _bounds_of(scope: ExploreScope, library: SILibrary) -> _Bounds:
    table = rotation_cycle_table(
        library, core_mhz=scope.core_mhz, bytes_per_us=scope.bytes_per_us
    )
    max_rotation = max(table.values(), default=1)
    queue_bound = scope.containers * max_rotation
    backoff_total = sum(
        scope.backoff_cycles * 2**i for i in range(scope.max_retries)
    )
    repair_bound = (
        scope.scrub_period + (1 + scope.max_retries) * queue_bound + backoff_total
    )
    return _Bounds(
        rotation_cycles=table,
        max_rotation=max_rotation,
        queue_bound=queue_bound,
        repair_bound=repair_bound,
        drain_bound=scope.scrub_period + repair_bound + queue_bound + 4,
    )


def _serialized_jobs(rt: RisppRuntime) -> "list[RotationJob]":
    """Jobs whose write windows are (or will be) real: completed ones and
    the pending queue.  Aborted and dropped-unstarted jobs carry stale
    ``finish_at`` values and never (fully) wrote, so they are excluded."""
    jobs = [j for j in rt.port.jobs if j.completed and not j.aborted]
    jobs.extend(j for j in rt.port.pending_jobs() if not j.completed)
    return jobs


def _check_mc001(world: _World) -> list[str]:
    windows = sorted(
        (j.started_at, j.finish_at, j.container_id, j.atom)
        for j in _serialized_jobs(world.runtime)
    )
    problems = []
    for prev, cur in zip(windows, windows[1:]):
        if cur[0] < prev[1]:
            problems.append(
                f"write of {cur[3]!r} into AC{cur[2]} at [{cur[0]}, {cur[1]}) "
                f"overlaps write of {prev[3]!r} into AC{prev[2]} "
                f"at [{prev[0]}, {prev[1]})"
            )
    return problems


def _check_mc002(world: _World) -> list[str]:
    rt = world.runtime
    reserved = set(rt.port._reserved)
    pending = {j.container_id for j in rt.port.pending_jobs()}
    problems = []
    if reserved != pending:
        problems.append(
            f"reservations {sorted(reserved)} != pending queue targets "
            f"{sorted(pending)} (phantom or leaked reservation)"
        )
    for cid in sorted(reserved):
        if rt.fabric.container(cid).failed:
            problems.append(f"failed AC{cid} still reserved on the port")
    return problems


def _check_mc003(world: _World) -> list[str]:
    rt = world.runtime
    started = {
        j.container_id: j for j in rt.port.pending_jobs() if j.started
    }
    problems = []
    for c in rt.fabric.containers:
        where = f"AC{c.container_id}"
        if c.failed:
            if c.atom is not None or c.quarantined or c.corrupted or c.ready_at is not None:
                problems.append(f"{where} failed but still carries state")
            continue
        if c.state.value == "loaded":
            if c.atom is None or c.ready_at is not None:
                problems.append(f"{where} LOADED without an atom (or still pending)")
        elif c.state.value == "empty":
            if c.atom is not None or c.ready_at is not None:
                problems.append(f"{where} EMPTY but carries an atom or ready_at")
        elif c.state.value == "loading":
            job = started.get(c.container_id)
            if c.atom is None or c.ready_at is None:
                problems.append(f"{where} LOADING without atom/ready_at")
            elif job is None:
                problems.append(f"{where} LOADING with no started port job")
            elif job.finish_at != c.ready_at or job.atom != c.atom:
                problems.append(
                    f"{where} LOADING ({c.atom} ready at {c.ready_at}) does not "
                    f"match its port job ({job.atom} finishing {job.finish_at})"
                )
        if c.corrupted and c.state.value != "loaded":
            problems.append(f"{where} corrupted but not LOADED (silent-fault model)")
    return problems


def _check_mc004(world: _World) -> list[str]:
    rt = world.runtime
    inj = rt._faults
    problems = []
    episodes = dict(inj._quarantined) if inj is not None else {}
    for c in rt.fabric.containers:
        if c.quarantined and c.container_id not in episodes:
            problems.append(
                f"AC{c.container_id} quarantined with no injector episode"
            )
    for cid in sorted(episodes):
        container = rt.fabric.container(cid)
        if container.is_available():
            problems.append(f"quarantined AC{cid} still serves work")
        for job in rt.port.pending_jobs():
            if job.container_id == cid and not job.repair:
                problems.append(
                    f"non-repair rotation of {job.atom!r} targets quarantined AC{cid}"
                )
    # The repair flag must also reach the *trace* — rispp-verify judges the
    # recorded run, so a repair that is only flagged in memory is a bug.
    for job in rt.port.pending_jobs():
        if not job.repair:
            continue
        episode = episodes.get(job.container_id)
        detected = episode.detected_at if episode is not None else None
        if detected is None or job.requested_at < detected:
            continue  # adopted planner job: recorded before the quarantine
        recorded = any(
            e.kind is EventKind.ROTATION_REQUESTED
            and e.cycle >= detected
            and e.detail.get("container") == job.container_id
            and e.detail.get("repair")
            for e in rt.trace.events
        )
        if not recorded:
            problems.append(
                f"repair rotation into AC{job.container_id} has no "
                "repair-flagged ROTATION_REQUESTED trace event"
            )
    return problems


def _quiescent(world: _World) -> bool:
    rt = world.runtime
    if not rt.port.is_idle():
        return False
    inj = rt._faults
    if inj is None:
        return True
    return inj.open_episodes() == 0 and inj.next_cycle(_FAR) is None


def _check_mc005(world: _World, bounds: _Bounds) -> list[str]:
    """Drain a fork of the state: every state must reach quiescence by
    only letting scheduled work finish (no new actions), within the
    static drain bound."""
    deadline = world.now + bounds.drain_bound
    steps = 0
    while not _quiescent(world):
        nxt = _next_interesting(world)
        if nxt is None:
            return [
                "state is not quiescent but schedules no further event (deadlock)"
            ]
        if nxt > deadline or steps > 10_000:
            return [
                f"state does not drain within {bounds.drain_bound} cycles (livelock)"
            ]
        world.now = nxt
        world.runtime.advance(nxt)
        steps += 1
    return []


def _drain_witness(world: _World, bounds: _Bounds) -> None:
    """Advance an MC005 counterexample witness through its scheduled
    events so the recorded trace *shows* the stuck state the drain probe
    detected (e.g. a quarantine left open forever) instead of ending just
    before it — rispp-verify judges the trace, not the probe."""
    deadline = world.now + bounds.drain_bound
    steps = 0
    while not _quiescent(world):
        nxt = _next_interesting(world)
        if nxt is None or nxt > deadline or steps > 10_000:
            return
        world.now = nxt
        world.runtime.advance(nxt)
        steps += 1


def _check_mc006(world: _World) -> list[str]:
    """Replanning on a fork must be convergent and the replan skip sound.

    The runtime's own round runs first; when its skip key fires, an
    unskipped round on the same inputs must issue nothing.  The key is
    then cleared again, so the convergence check — a second identical
    round may not issue new rotations — never rests on the skip itself.
    """
    rt = world.runtime
    if not rt._active:
        return []
    before = rt.port.total_rotations()
    skipped = rt.stats.replans_skipped
    rt._request_replan(world.now)
    if rt.stats.replans_skipped > skipped:
        rt._plan_key = None
        rt._request_replan(world.now)
        elided = rt.port.total_rotations() - before
        if elided:
            return [
                f"the replan skip elided a round that issues {elided} "
                "rotation(s)"
            ]
    settled = rt.port.total_rotations()
    rt._plan_key = None
    rt._request_replan(world.now)
    again = rt.port.total_rotations()
    if again > settled:
        return [
            f"re-replanning with unchanged demand issued {again - settled} "
            "new rotation(s)"
        ]
    return []


def _check_mc007(world: _World, bounds: _Bounds) -> list[str]:
    problems = []
    for j in _serialized_jobs(world.runtime):
        own = bounds.rotation_cycles.get(j.atom, bounds.max_rotation)
        bound = own + bounds.queue_bound
        latency = j.finish_at - j.requested_at
        if latency > bound:
            problems.append(
                f"rotation of {j.atom!r} into AC{j.container_id} takes "
                f"{latency} cycles (requested {j.requested_at}, finishes "
                f"{j.finish_at}) > static bound {bound}"
            )
    return problems


def _check_mc008(world: _World, bounds: _Bounds) -> list[str]:
    inj = world.runtime._faults
    if inj is None:
        return []
    problems = []
    for cid in sorted(inj._quarantined):
        episode = inj._quarantined[cid]
        job = inj._repair_of.get(cid)
        if job is None or job.aborted:
            continue  # between retries; MC005 proves it still drains
        mttr = job.finish_at - episode.injected_at
        if mttr > bounds.repair_bound:
            problems.append(
                f"repair of AC{cid} completes {mttr} cycles after injection "
                f"> static repair bound {bounds.repair_bound}"
            )
    if inj.stats.mttr_cycles_max > bounds.repair_bound:
        problems.append(
            f"observed MTTR {inj.stats.mttr_cycles_max} cycles "
            f"> static repair bound {bounds.repair_bound}"
        )
    return problems


def _check_mc009(world: _World) -> list[str]:
    """Terminal states with no open fault episode must replay cleanly
    through the rispp-verify reference machine (golden traces describe
    finished runs, so states mid-quarantine are out of its contract)."""
    rt = world.runtime
    if rt._faults is not None and rt._faults.open_episodes():
        return []
    report = verify_trace(
        rt.trace.events,
        rt.library,
        containers=len(rt.fabric),
        core_mhz=rt.port.core_mhz,
        bytes_per_us=rt.port.bytes_per_us,
        static_multiplicity=rt.fabric.static_multiplicity,
        totals=asdict(rt.stats),
        subject="explore-terminal",
    )
    errors = report.errors()
    if errors:
        first = errors[0]
        return [
            f"reference machine flags {len(errors)} error(s), first: "
            f"{first.rule_id}: {first.message}"
        ]
    return []


def _check_mc010(world: _World) -> list[str]:
    rt = world.runtime
    available = rt.fabric.available_atoms()
    problems = []
    for si in rt.library:
        expected = si.cycles_with(available)
        actual = rt.si_cycles(si.name, world.now)
        if actual != expected:
            problems.append(
                f"{si.name} dispatches at {actual} cycles; best available "
                f"molecule costs {expected}"
            )
    return problems


def _record_bad_dispatch(world: _World) -> None:
    """Execute the first SI whose dispatch deviates from best-available,
    so an MC010 counterexample's trace *records* the wrong-mode execution
    (TRC013 material) instead of only holding it latently in the
    dispatch function."""
    rt = world.runtime
    available = rt.fabric.available_atoms()
    for si in rt.library:
        if rt.si_cycles(si.name, world.now) != si.cycles_with(available):
            rt.execute_si(si.name, world.now)
            return


def _check_state(
    world: _World,
    path: tuple[Action, ...],
    scope: ExploreScope,
    mutator: Mutator | None,
    bounds: _Bounds,
    checked: set[str],
    *,
    terminal: bool,
    machine_key: StateKey | None = None,
    probe_memo: dict[StateKey, list[str]] | None = None,
) -> list[tuple[str, str]]:
    """All selected MC findings for one state, as (rule_id, message).

    The fork probes (MC005 drain, MC006 re-replan) depend only on the
    machine state, not on the remaining action budgets, so their results
    are memoized under ``machine_key`` across the whole run.
    """
    findings: list[tuple[str, str]] = []

    def run(rule_id: str, problems: list[str]) -> None:
        findings.extend((rule_id, message) for message in problems)

    def probe(rule_id: str, fn: Callable[[_World], list[str]]) -> list[str]:
        if probe_memo is None or machine_key is None:
            return fn(_fork(scope, mutator, world, path))
        memo_key = (rule_id, machine_key)
        cached = probe_memo.get(memo_key)
        if cached is None:
            cached = fn(_fork(scope, mutator, world, path))
            probe_memo[memo_key] = cached
        return cached

    if "MC001" in checked:
        run("MC001", _check_mc001(world))
    if "MC002" in checked:
        run("MC002", _check_mc002(world))
    if "MC003" in checked:
        run("MC003", _check_mc003(world))
    if "MC004" in checked:
        run("MC004", _check_mc004(world))
    if "MC005" in checked and not _quiescent(world):
        run("MC005", probe("MC005", lambda w: _check_mc005(w, bounds)))
    if "MC006" in checked and world.runtime._active:
        run("MC006", probe("MC006", _check_mc006))
    if "MC007" in checked:
        run("MC007", _check_mc007(world, bounds))
    if "MC008" in checked:
        run("MC008", _check_mc008(world, bounds))
    if "MC009" in checked and terminal:
        run("MC009", _check_mc009(world))
    if "MC010" in checked:
        run("MC010", _check_mc010(world))
    return findings


# ---------------------------------------------------------------------------
# Counterexamples: minimization and golden emission
# ---------------------------------------------------------------------------


def _violating_prefix(
    scope: ExploreScope,
    mutator: Mutator | None,
    actions: tuple[Action, ...],
    rule_id: str,
    bounds: _Bounds,
) -> tuple[Action, ...] | None:
    """Replay ``actions`` on a fresh world; return the shortest prefix at
    which ``rule_id`` is violated, or ``None`` (also when an action of
    the candidate path is no longer enabled)."""
    world = _build_world(scope, mutator)
    counts: dict[Action, int] = {}
    done: list[Action] = []

    def violated() -> bool:
        enabled = _enabled_actions(world, scope, counts)
        return bool(
            _check_state(
                world, tuple(done), scope, mutator, bounds, {rule_id},
                terminal=not enabled,
            )
        )

    if violated():
        return ()
    for action in actions:
        if action not in _enabled_actions(world, scope, counts):
            return None
        _apply(world, action, scope)
        counts = _count(counts, action)
        done.append(action)
        if violated():
            return tuple(done)
    return None


def _minimize_path(
    scope: ExploreScope,
    mutator: Mutator | None,
    actions: tuple[Action, ...],
    rule_id: str,
    bounds: _Bounds,
) -> tuple[Action, ...]:
    """Greedy ddmin-lite: drop one action at a time while the rule still
    fires, truncating to the earliest violating prefix each round."""
    current = _violating_prefix(scope, mutator, actions, rule_id, bounds)
    if current is None:  # pragma: no cover - the BFS just saw it fire
        return actions
    improved = True
    while improved:
        improved = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1:]
            shorter = _violating_prefix(scope, mutator, candidate, rule_id, bounds)
            if shorter is not None:
                current = shorter
                improved = True
                break
    return current


@dataclass
class Counterexample:
    """One minimized invariant violation, replayable by rispp-verify."""

    rule_id: str
    message: str
    actions: tuple[Action, ...]
    #: Golden-trace JSON v1 payload of the minimized run (plus an
    #: ``explore`` metadata key the verifier tolerates).
    golden: dict[str, Any]
    #: Rules rispp-verify flags when independently replaying the golden.
    verified_rule_ids: tuple[str, ...] = ()


@dataclass
class ExploreResult:
    """The outcome of exhausting one scope."""

    scope: str
    states_explored: int
    transitions: int
    deduplicated: int
    terminal_states: int
    #: False when the ``max_states`` safety valve stopped the search (the
    #: proof claim then does not hold and ``rules_proven`` stays empty).
    complete: bool
    rules_checked: tuple[str, ...]
    rules_proven: tuple[str, ...]
    report: DiagnosticReport = field(default_factory=DiagnosticReport)
    counterexamples: list[Counterexample] = field(default_factory=list)

    def dedupe_ratio(self) -> float:
        if not self.transitions:
            return 0.0
        return self.deduplicated / self.transitions

    def exit_code(self) -> int:
        return self.report.exit_code()

    def to_dict(self) -> dict[str, Any]:
        return {
            "scope": self.scope,
            "states_explored": self.states_explored,
            "transitions": self.transitions,
            "deduplicated": self.deduplicated,
            "dedupe_ratio": round(self.dedupe_ratio(), 4),
            "terminal_states": self.terminal_states,
            "complete": self.complete,
            "rules_checked": list(self.rules_checked),
            "rules_proven": list(self.rules_proven),
            "violations": [d.to_dict() for d in self.report],
            "counterexamples": [
                {
                    "rule": cx.rule_id,
                    "message": cx.message,
                    "actions": [list(a) for a in cx.actions],
                    "verified_rule_ids": list(cx.verified_rule_ids),
                }
                for cx in self.counterexamples
            ],
        }


# ---------------------------------------------------------------------------
# The explorer
# ---------------------------------------------------------------------------


def explore(
    scope: str | ExploreScope = "tiny",
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    metrics: "MetricRegistry | None" = None,
    mutator: Mutator | None = None,
    max_states: int | None = None,
    minimize: bool = True,
    cross_verify: bool = True,
    stop_on_violation: bool | None = None,
) -> ExploreResult:
    """Exhaustively model-check one scope; returns states, proofs, findings.

    ``select``/``ignore`` take rule-ID prefixes (``MC``, ``mc005`` ...)
    and must leave at least one MC rule to check.  ``mutator`` patches
    each freshly built runtime before exploration — the test fixtures
    break invariants this way and assert the minimized counterexample;
    with a mutator the search stops at the first violation by default.
    ``cross_verify`` replays every counterexample's golden trace through
    rispp-verify and records the rules it flags.
    """
    sc = SCOPES[scope] if isinstance(scope, str) else scope
    checked = {r.rule_id for r in rules_of_family("explore")}
    if select is not None:
        checked = expand_selectors(select, ("explore",))
    if ignore is not None:
        checked -= expand_selectors(ignore, ("explore",))
    if not checked:
        raise ValueError("rule selection leaves no MC rule to check")
    if stop_on_violation is None:
        stop_on_violation = mutator is not None
    cap = max_states if max_states is not None else sc.max_states

    from ..obs import DISABLED

    obs = metrics if metrics is not None else DISABLED
    states_counter = obs.counter("explore_states_total")
    m_visited = states_counter.labels(outcome="visited")
    m_dedup = states_counter.labels(outcome="deduplicated")
    m_violations = obs.counter("explore_violations_total")

    bounds = _bounds_of(sc, build_explore_library(sc.library_name))
    root = _build_world(sc, mutator)
    root_counts: dict[Action, int] = {}
    root_key = _state_key(root, root_counts)
    visited = {root_key}
    frontier: deque[
        tuple[_World, tuple[Action, ...], dict[Action, int], StateKey]
    ] = deque([(root, (), root_counts, root_key)])
    m_visited.inc()

    transitions = 0
    deduplicated = 0
    terminal_states = 0
    complete = True
    #: First finding per rule: (message, path to the violating state).
    violations: dict[str, tuple[str, tuple[Action, ...]]] = {}
    probe_memo: dict[StateKey, list[str]] = {}

    while frontier:
        world, path, counts, key = frontier.popleft()
        actions = _enabled_actions(world, sc, counts)
        findings = _check_state(
            world, path, sc, mutator, bounds, checked,
            terminal=not actions,
            machine_key=key[:-1],  # drop the budget component
            probe_memo=probe_memo,
        )
        fresh = False
        for rule_id, message in findings:
            if rule_id not in violations:
                violations[rule_id] = (message, path)
                m_violations.inc()
                fresh = True
        if fresh and stop_on_violation:
            break
        if not actions:
            terminal_states += 1
            continue
        for index, action in enumerate(actions):
            transitions += 1
            if mutator is not None:
                child = _replay(sc, mutator, path)
            elif index == len(actions) - 1:
                child = world  # the popped world is free to mutate now
            else:
                child = _copy_world(world)
            _apply(child, action, sc)
            child_counts = _count(counts, action)
            child_key = _state_key(child, child_counts)
            if child_key in visited:
                deduplicated += 1
                m_dedup.inc()
                continue
            if len(visited) >= cap:
                complete = False
                continue
            visited.add(child_key)
            m_visited.inc()
            frontier.append((child, path + (action,), child_counts, child_key))

    report = DiagnosticReport()
    counterexamples: list[Counterexample] = []
    for rule_id in sorted(violations):
        message, path = violations[rule_id]
        actions = (
            _minimize_path(sc, mutator, path, rule_id, bounds)
            if minimize
            else path
        )
        witness = _replay(sc, mutator, actions)
        if rule_id == "MC005":
            _drain_witness(witness, bounds)
        elif rule_id == "MC010":
            _record_bad_dispatch(witness)
        golden = golden_from_runtime(
            witness.runtime,
            suite=f"explore-{sc.name}",
            library_name=sc.library_name,
        )
        golden["explore"] = {
            "scope": sc.name,
            "rule": rule_id,
            "actions": [list(a) for a in actions],
        }
        verified: tuple[str, ...] = ()
        if cross_verify:
            verified = tuple(verify_golden(golden_from_dict(golden)).rule_ids())
        counterexamples.append(
            Counterexample(
                rule_id=rule_id,
                message=message,
                actions=actions,
                golden=golden,
                verified_rule_ids=verified,
            )
        )
        report.append(
            diag(
                rule_id,
                message,
                subject=f"explore-{sc.name}",
                location=f"after {len(actions)} action(s)",
                actions=[list(a) for a in actions],
                verified_rule_ids=list(verified),
            )
        )

    proven = (
        tuple(sorted(checked - set(violations))) if complete else ()
    )
    return ExploreResult(
        scope=sc.name,
        states_explored=len(visited),
        transitions=transitions,
        deduplicated=deduplicated,
        terminal_states=terminal_states,
        complete=complete,
        rules_checked=tuple(sorted(checked)),
        rules_proven=proven,
        report=report,
        counterexamples=counterexamples,
    )
