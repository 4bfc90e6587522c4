"""The RISPP run-time manager (paper §5).

:class:`RisppRuntime` owns the fabric, the reconfiguration port, the
forecast monitor and the replacement policy, and performs the three §5
tasks:

a) **Monitoring** — every forecast and SI execution feeds the
   :class:`~repro.runtime.monitor.ForecastMonitor`, which fine-tunes the
   compile-time expectations;
b) **Selecting** — on every forecast change the manager re-runs molecule
   selection over all active forecasts (weighted by fine-tuned expected
   executions x priority) under the container budget;
c) **Scheduling** — the selected demand is handed to the rotation
   planner, which issues serialised rotations and reallocates containers
   across tasks.

SI execution is *gradual*: whatever Atoms happen to be loaded at call
time determine the molecule (or the software fallback) — the paper's
"Rotation in Advance" upgrade behaviour falls out of re-evaluating
``best_available`` on every execution.

With ``forecasting=False`` the manager degrades to rotate-on-demand
(rotations start only when an SI is first executed) — the baseline for
the forecast ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.library import SILibrary
from ..core.molecule import Molecule
from ..core.selection import ForecastedSI, select_greedy
from ..core.si import MoleculeImpl
from ..hardware.fabric import Fabric
from ..hardware.reconfig import ReconfigurationPort, RotationJob
from ..sim.trace import Trace
from . import events
from .events import BUS
from .monitor import ForecastMonitor
from .replacement import LRUPolicy, ReplacementPolicy
from .rotation import future_population, plan_rotations

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.injector import FaultInjector
    from ..obs import MetricRegistry


@dataclass
class RuntimeStats:
    """Aggregate counters of one run."""

    si_executions: int = 0
    sw_executions: int = 0
    hw_executions: int = 0
    si_cycles: int = 0
    rotations_requested: int = 0
    replans: int = 0
    #: Replans proven redundant (same weights, same future population)
    #: and skipped by the plan cache — see :meth:`RisppRuntime._replan`.
    replans_skipped: int = 0
    mode_switches: int = 0
    #: Accumulated only when the runtime carries an EnergyModel.
    rotation_energy_nj: float = 0.0
    execution_energy_nj: float = 0.0

    def hw_fraction(self) -> float:
        if not self.si_executions:
            return 0.0
        return self.hw_executions / self.si_executions

    def total_energy_nj(self) -> float:
        return self.rotation_energy_nj + self.execution_energy_nj


@dataclass
class _ActiveForecast:
    task: str
    si_name: str
    weight: float
    priority: float


class RisppRuntime:
    """The run-time phase: rotate instructions per forecasts and demand."""

    def __init__(
        self,
        library: SILibrary,
        num_containers: int,
        *,
        core_mhz: float = 100.0,
        bytes_per_us: float | None = None,
        policy: ReplacementPolicy | None = None,
        trace: Trace | None = None,
        monitor: ForecastMonitor | None = None,
        static_multiplicity: int = 16,
        forecasting: bool = True,
        selection=select_greedy,
        energy_model=None,
        optimize: bool = True,
        faults: "FaultInjector | None" = None,
        metrics: "MetricRegistry | None" = None,
        backend: "str | object | None" = None,
    ):
        from ..obs import DISABLED

        self.library = library
        #: The telemetry registry shared by every component of this
        #: runtime (fabric, port, monitor, fault injector) — the
        #: :data:`repro.obs.DISABLED` no-op registry unless one is given.
        self.metrics = metrics if metrics is not None else DISABLED
        self.fabric = Fabric(
            library.catalogue,
            num_containers,
            static_multiplicity=static_multiplicity,
            cache=optimize,
            metrics=self.metrics,
        )
        #: ``bytes_per_us`` overrides the SelectMap configuration rate —
        #: small-scope model checking (rispp-explore) scales rotation
        #: latencies down to single-digit cycles this way.
        port_kwargs: dict = {"core_mhz": core_mhz, "metrics": self.metrics}
        if bytes_per_us is not None:
            port_kwargs["bytes_per_us"] = bytes_per_us
        self.port = ReconfigurationPort(library.catalogue, **port_kwargs)
        self.port.attach(self)
        self.policy = policy if policy is not None else LRUPolicy()
        self.trace = trace if trace is not None else Trace()
        self.monitor = monitor if monitor is not None else ForecastMonitor()
        if metrics is not None:
            # Share the runtime's registry with a caller-provided monitor
            # (a fresh default monitor gets it too — same call).
            self.monitor.bind_metrics(metrics)
        self._bind_metrics()
        self.forecasting = forecasting
        self.selection = selection
        #: Compute backend for the selection kernels (name or instance;
        #: ``None`` defers to the library pin / process default — see
        #: :mod:`repro.core.backend`).  Only forwarded when set, so
        #: custom ``selection`` callables without a ``backend`` parameter
        #: keep working.
        self.backend = backend
        #: Optional :class:`repro.hardware.energy.EnergyModel`; when set,
        #: rotation and execution energies accumulate into the stats.
        self.energy_model = energy_model
        self.stats = RuntimeStats()
        self.task_stats: dict[str, RuntimeStats] = {}
        self._active: dict[tuple[str, str], _ActiveForecast] = {}
        self._last_mode: dict[tuple[str, str], str] = {}
        #: A previous plan could not place every demanded atom (all
        #: containers were reserved); retry when rotations complete.
        self._unplaced_for: str | None = None
        #: Hot-path caching (disable with ``optimize=False`` for the
        #: bench harness's pre-optimization baseline).
        self._optimize = optimize
        #: Memoized ``best_available`` per SI, valid for one fabric
        #: generation: between rotations the fabric does not change, so
        #: neither does the chosen implementation.
        self._impl_cache: dict[str, MoleculeImpl | None] = {}
        self._impl_cache_gen = -1
        #: Memoized reconfigurable projection per implementation object.
        self._rc_cache: dict[int, Molecule] = {}
        #: Input signature (weight vector, future population) of the last
        #: replan that issued nothing; an identical signature makes the
        #: next replan a guaranteed no-op, so it is skipped.
        self._plan_key: tuple | None = None
        #: Optional :class:`repro.faults.FaultInjector`; when set,
        #: :meth:`advance` interleaves its scheduled fault and scrub
        #: events chronologically with rotation completions.
        self._faults = faults
        if faults is not None:
            faults.attach(self)

    def _bind_metrics(self) -> None:
        """Pre-resolve instrument children for the hot paths.

        Each handle is bound once here so ``execute_si`` pays one boolean
        guard plus direct method calls — no per-event name or label
        lookups.  With telemetry disabled every handle is the shared
        no-op :data:`repro.obs.NULL` and the guard skips the block.
        """
        obs = self.metrics
        self._obs_on = obs.enabled
        execs = obs.counter("si_executions_total")
        cycles = obs.counter("si_cycles_total")
        self._m_exec_sw = execs.labels(mode="sw")
        self._m_exec_hw = execs.labels(mode="hw")
        self._m_cycles_sw = cycles.labels(mode="sw")
        self._m_cycles_hw = cycles.labels(mode="hw")
        self._m_si_latency = obs.histogram("si_latency_cycles")
        replans = obs.counter("replans_total")
        self._m_replans_planned = replans.labels(outcome="planned")
        self._m_replans_skipped = replans.labels(outcome="skipped")
        self._m_replan_time = obs.histogram("replan_duration_seconds")
        rotations = obs.counter("rotations_requested_total")
        self._m_rot_planned = rotations.labels(kind="planned")
        self._m_rot_repair = rotations.labels(kind="repair")
        self._m_mode_switches = obs.counter("mode_switches_total")
        forecasts = obs.counter("forecast_events_total")
        self._m_fc_fired = forecasts.labels(event="fired")
        self._m_fc_ended = forecasts.labels(event="ended")

    # -- events ----------------------------------------------------------

    def publish(self, event: object) -> None:
        """Run ``event``'s reactions (``docs/events.md``), synchronously."""
        BUS.publish(self, event)

    # -- time ------------------------------------------------------------

    def advance(self, now: int) -> None:
        """Bring the hardware state up to cycle ``now``.

        Completions are processed *chronologically*, replanning after each
        one when earlier demands went unplaced — the manager reacts to
        each completion interrupt at its own cycle, so decisions never see
        hardware state from the future.  With a fault injector attached,
        its due fault/scrub events interleave at their own cycles too:
        completions are drained up to each fault cycle before the fault
        fires, so injections always see the hardware state of their cycle.
        """
        faults = self._faults
        if (
            self._optimize
            and self.port.is_idle()
            and (faults is None or faults.next_cycle(now) is None)
        ):
            # Nothing scheduled, in flight, or due: state cannot change.
            return
        if faults is not None:
            while True:
                due = faults.next_cycle(now)
                if due is None:
                    break
                self._drain_completions_until(due)
                faults.step(self, due)
        self._drain_completions_until(now)

    def _drain_completions_until(self, limit: int) -> None:
        """Process completions chronologically, then starts, up to ``limit``.

        The attached port publishes a :class:`~repro.runtime.events.
        RotationCompleted` per retired job; its trace / fault / replan
        handlers react at the job's own cycle.
        """
        while True:
            next_completion = self.port.next_completion()
            if next_completion is None or next_completion > limit:
                break
            self.port.advance(self.fabric, next_completion)
        # Finally process rotation *starts* (evictions) up to ``limit``
        # (provably completion-free: the loop above drained them all).
        self.port.advance(self.fabric, limit)

    # -- forecasts (task a + b + c) --------------------------------------------

    def forecast(
        self,
        si_name: str,
        now: int,
        *,
        task: str = "main",
        expected: float | None = None,
        priority: float = 1.0,
    ) -> None:
        """An FC fires: register the SI demand and replan rotations."""
        if si_name not in self.library:
            raise ValueError(f"forecast for unknown SI {si_name!r}")
        if priority <= 0:
            raise ValueError("priority must be positive")
        self.advance(now)
        compile_time = expected if expected is not None else 1.0
        # The monitor fine-tune is a synchronous *query*, not an event:
        # the tuned expectation is part of the published payload.
        tuned = self.monitor.forecast_fired(task, si_name, compile_time, now)
        self._active[(task, si_name)] = _ActiveForecast(
            task=task, si_name=si_name, weight=tuned, priority=priority
        )
        self.publish(
            events.ForecastFired(
                now, task=task, si=si_name, expected=tuned, priority=priority
            )
        )

    def forecast_end(self, si_name: str, now: int, *, task: str = "main") -> None:
        """An FC states the SI is no longer needed: release and replan."""
        self.advance(now)
        self._active.pop((task, si_name), None)
        self.publish(events.ForecastEnded(now, task=task, si=si_name))

    def active_forecasts(self) -> list[_ActiveForecast]:
        return list(self._active.values())

    # -- SI execution ------------------------------------------------------------

    def execute_si(self, si_name: str, now: int, *, task: str = "main") -> int:
        """Execute one SI at cycle ``now``; returns its latency in cycles.

        Uses the fastest molecule the *currently loaded* Atoms support and
        falls back to the optimised software molecule otherwise.
        """
        si = self.library.get(si_name)
        self.advance(now)
        if not self.forecasting and (task, si_name) not in self._active:
            # Rotate-on-demand baseline: first use triggers the rotation.
            self._active[(task, si_name)] = _ActiveForecast(
                task=task, si_name=si_name, weight=1.0, priority=1.0
            )
            self.publish(
                events.ReplanRequested(now, task=task, reason="on_demand")
            )
        impl = self._best_available(si)
        if impl is None:
            cycles = si.software_cycles
            mode = "SW"
        else:
            cycles = impl.cycles
            mode = impl.label or "HW"
            self.fabric.touch_atoms(self._reconfigurable_of(impl), now)
        previous = self._last_mode.get((task, si_name))
        if previous is not None and previous != mode:
            self.stats.mode_switches += 1
            self.publish(
                events.SIModeSwitched(
                    now,
                    task=task,
                    si=si_name,
                    from_mode=previous,
                    to_mode=mode,
                    cycles=cycles,
                )
            )
        self._last_mode[(task, si_name)] = mode
        # Execution accounting is the publisher's own bookkeeping (it
        # computes the return value's energy attribution); the handlers
        # get the settled picture.
        per_task = self.task_stats.setdefault(task, RuntimeStats())
        energy = 0.0
        if self.energy_model is not None:
            active_slices = 0
            if impl is not None:
                for kind_name in impl.molecule.kinds_used():
                    kind = self.library.catalogue.get(kind_name)
                    active_slices += kind.slices * impl.molecule.count(kind_name)
            energy = self.energy_model.execution_energy_nj(active_slices, cycles)
        for stats in (self.stats, per_task):
            stats.si_executions += 1
            stats.si_cycles += cycles
            stats.execution_energy_nj += energy
            if impl is None:
                stats.sw_executions += 1
            else:
                stats.hw_executions += 1
        self.publish(
            events.SIExecuted(
                now,
                task=task,
                si=si_name,
                mode=mode,
                cycles=cycles,
                hw=impl is not None,
            )
        )
        return cycles

    def fail_container(self, container_id: int, now: int) -> None:
        """Inject a fabric defect: the container dies, the manager adapts.

        The lost Atom (loaded or in flight) is gone; active forecasts are
        replanned immediately so a replacement rotation lands in another
        container — graceful degradation instead of a wrong result.

        Out-of-range ids raise ``ValueError``.  Failing an already-failed
        container is an idempotent no-op: no state change, no duplicate
        ``CONTAINER_FAILED`` event, no spurious replan.
        """
        if not 0 <= container_id < len(self.fabric):
            raise ValueError(
                f"container id {container_id} out of range "
                f"(fabric has {len(self.fabric)} containers)"
            )
        self.advance(now)
        if self.fabric.container(container_id).failed:
            return
        self._fail_container_at(container_id, now)

    def _fail_container_at(self, container_id: int, now: int) -> str | None:
        """Retire a container at cycle ``now`` (caller already advanced).

        Shared by :meth:`fail_container` and the fault injector's
        permanent-defect / repair-exhaustion paths, which run inside
        :meth:`advance` and must not re-enter it.
        """
        lost = self.fabric.fail_container(container_id)
        # Release any reservation the port held on the dead container
        # (provably completion-free: completions up to ``now`` are
        # already drained and remaining jobs finish strictly later).
        self.port.advance(self.fabric, now)
        self.publish(
            events.ContainerFailed(now, container=container_id, lost_atom=lost)
        )
        return lost

    def _request_replan(self, now: int) -> None:
        """Replan on behalf of the active forecasts, if any."""
        self.publish(events.ReplanRequested(now, task=None, reason="fault"))

    def si_cycles(self, si_name: str, now: int) -> int:
        """Latency one execution would take right now (no side effects)."""
        self.advance(now)
        si = self.library.get(si_name)
        impl = self._best_available(si)
        return si.software_cycles if impl is None else impl.cycles

    def si_mode(self, si_name: str, now: int) -> str:
        """Current execution mode: a molecule label or ``"SW"``."""
        self.advance(now)
        impl = self._best_available(self.library.get(si_name))
        return (impl.label or "HW") if impl is not None else "SW"

    # -- internals -----------------------------------------------------------------

    def _best_available(self, si) -> MoleculeImpl | None:
        """``si.best_available`` memoized against the fabric generation.

        Between rotations the available-atom molecule cannot change, so
        the lattice scan over the SI's implementations is done once per
        (SI, fabric state) instead of once per execution.
        """
        if not self._optimize:
            return si.best_available(self.fabric.available_atoms())
        gen = self.fabric.generation
        if gen != self._impl_cache_gen:
            self._impl_cache.clear()
            self._impl_cache_gen = gen
        try:
            return self._impl_cache[si.name]
        except KeyError:
            impl = si.best_available(self.fabric.available_atoms())
            self._impl_cache[si.name] = impl
            return impl

    def _reconfigurable_of(self, impl: MoleculeImpl) -> Molecule:
        """Reconfigurable projection of an implementation, memoized.

        Implementations are immutable and owned by the library, so the
        projection is computed once per object for the runtime's life.
        """
        if not self._optimize:
            return self.library.restricted_to_reconfigurable(impl.molecule)
        key = id(impl)
        cached = self._rc_cache.get(key)
        if cached is None:
            cached = self.library.restricted_to_reconfigurable(impl.molecule)
            self._rc_cache[key] = cached
        return cached

    def _replan(self, now: int, *, triggering_task: str) -> None:
        weights: dict[str, float] = {}
        for f in self._active.values():
            # Use the monitor-tuned expectation directly (guarding only
            # against non-positive values): an SI the monitor learned is
            # rarely executed must not keep full selection weight and hog
            # Atom Containers just because its tuned weight fell below 1.
            weights[f.si_name] = weights.get(f.si_name, 0.0) + (
                max(f.weight, 0.0) * f.priority
            )
        loaded = future_population(self.fabric, self.port)
        plan_key = (tuple(sorted(weights.items())), loaded)
        if self._optimize and plan_key == self._plan_key:
            # Identical inputs to a replan that provably issued nothing:
            # selection and planning are deterministic in (weights,
            # future population), so this round is a guaranteed no-op.
            self.stats.replans_skipped += 1
            if self._obs_on:
                self._m_replans_skipped.inc()
            return
        self.stats.replans += 1
        if self._obs_on:
            self._m_replans_planned.inc()
        requests = [
            ForecastedSI(self.library.get(name), weight)
            for name, weight in sorted(weights.items())
        ]
        select_kwargs: dict = {"loaded": loaded}
        if self.backend is not None:
            select_kwargs["backend"] = self.backend
        with self._m_replan_time.time():
            result = self.selection(
                self.library, requests, len(self.fabric), **select_kwargs
            )
            plan = plan_rotations(
                self.library,
                self.fabric,
                self.port,
                result.demand,
                self.policy,
                now,
                owner=triggering_task,
                kind_priority=self._rotation_priority(
                    result.chosen, weights, loaded
                ),
            )
        for container_id, old_owner, new_owner in plan.reallocated:
            self.publish(
                events.ContainerReallocated(
                    now,
                    container=container_id,
                    from_task=old_owner,
                    to_task=new_owner,
                )
            )
        for job in plan.jobs:
            self._record_rotation_request(job, now)
        self._unplaced_for = triggering_task if plan.unplaced else None
        # Only a round that issued no rotations and left nothing unplaced
        # is memoizable: re-running it with the same weight vector and
        # future population cannot produce trace events or state changes.
        # (A round that *did* issue jobs changed the future population,
        # so its key can never match a later call anyway.)
        self._plan_key = (
            plan_key if not plan.jobs and not plan.unplaced else None
        )

    def _record_rotation_request(
        self, job: RotationJob, now: int, *, repair: bool = False
    ) -> None:
        """Publish one issued rotation request.

        Used for every planner job and for the fault injector's repair
        and retry requests, so stats and trace schema stay uniform.
        """
        self.publish(events.RotationRequested(now, job=job, repair=repair))

    def _rotation_priority(
        self, chosen: dict, weights: dict[str, float], loaded: Molecule
    ) -> list[str]:
        """Pareto-ladder rotation order for the selected molecules.

        For each selected SI (heaviest first), walk the molecules that lie
        below the chosen one in the lattice, smallest first: the atom
        kinds each ladder step *actually misses* (beyond the baseline and
        what is already loaded or in flight) are rotated in that order, so
        every completed rotation unlocks the next-faster intermediate
        molecule as soon as possible (the gradual upgrades of Fig. 6,
        T4/T5).
        """
        baseline = self.library.baseline_molecule()
        order: list[str] = []
        ranked = sorted(
            ((name, impl) for name, impl in chosen.items() if impl is not None),
            key=lambda kv: -weights.get(kv[0], 0.0),
        )
        for name, impl in ranked:
            si = self.library.get(name)
            ladder = sorted(
                (
                    i
                    for i in si.implementations
                    if i.molecule <= impl.molecule
                ),
                key=lambda i: (i.atoms(), i.cycles),
            )
            for step in ladder:
                target = self.library.restricted_to_reconfigurable(step.molecule)
                missing = (target - baseline) - loaded
                for kind in missing.kinds_used():
                    if kind not in order:
                        order.append(kind)
        return order

    def loaded_molecule(self) -> Molecule:
        """Currently usable container-resident atoms."""
        return self.fabric.loaded_reconfigurable()
