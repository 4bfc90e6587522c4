"""Atom Containers: the partially reconfigurable slots holding Atoms.

Each Atom Container (AC) is one partially reconfigurable region of the
fabric (4 CLB columns, full device height in the paper's Virtex-II
prototype).  An AC is either empty, loading an Atom (rotation in flight),
or holding a loaded Atom.  ACs carry a soft *owner* task id — ownership
steers replacement decisions, but a loaded Atom serves *any* SI that
needs it regardless of owner (the paper's Fig. 6, T3: Task B's SI runs on
containers that meanwhile 'belong' to Task A).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ContainerState(enum.Enum):
    """Lifecycle of an Atom Container."""

    EMPTY = "empty"
    LOADING = "loading"
    LOADED = "loaded"


@dataclass
class AtomContainer:
    """One partially reconfigurable Atom slot (fields: :mod:`repro.state` roles)."""

    container_id: int
    state: ContainerState = ContainerState.EMPTY
    atom: str | None = None
    owner: str | None = None
    #: Cycle at which an in-flight rotation completes (LOADING only).
    ready_at: int | None = None
    #: Cycle of the last event touching this container (for LRU policies).
    last_used: int = 0
    #: Number of rotations this container has undergone (read by reports).
    rotations: int = field(default=0, metadata={"role": "counter"})
    #: Number of evictions (content dropped without a rotation landing);
    #: ``rotations + evictions`` is the container's churn, summed by the
    #: fabric's ``container_churn_total`` telemetry.
    evictions: int = field(default=0, metadata={"role": "counter"})
    #: Permanently out of service (fabric defect); never holds Atoms again.
    failed: bool = False
    #: A transient SEU flipped configuration bits of the loaded Atom: the
    #: Atom is *silently wrong* — still visibly LOADED, but it must not be
    #: trusted for executions.  Cleared by any overwrite (rotation or
    #: eviction) or by quarantine once the scrubber detects it.
    corrupted: bool = False
    #: Detected-corrupt container pulled out of service pending a repair
    #: rotation; only a ``repair=True`` rotation may target it.
    quarantined: bool = False
    #: Bumped on every availability-changing mutation (rotation start or
    #: completion, eviction, failure).  The fabric sums these into its
    #: state generation so derived views can be memoized between
    #: mutations; ``last_used`` touches do not count — they never change
    #: which Atoms are usable.  It only keys caches: a counter.
    generation: int = field(default=0, compare=False, repr=False, metadata={"role": "counter"})

    def is_available(self) -> bool:
        """True when the container holds a usable Atom.

        A *corrupted* container is deliberately still available: the
        fault is silent until the scrubber detects it, so the planner
        and the execution path keep trusting the Atom.  The functional
        model guards against wrong results elsewhere (executions fall
        back to software while a corruption episode is open).
        """
        return (
            self.state is ContainerState.LOADED
            and not self.failed
            and not self.quarantined
        )

    def mark_failed(self) -> str | None:
        """Take the container out of service; returns the Atom lost (if any).

        A failure clears whatever the container held — including an
        in-flight rotation, which is simply lost.  Idempotent: failing an
        already-failed container is a no-op that returns ``None`` and does
        not bump the generation.
        """
        if self.failed:
            return None
        lost = self.atom
        self.failed = True
        self.state = ContainerState.EMPTY
        self.atom = None
        self.ready_at = None
        self.corrupted = False
        self.quarantined = False
        self.generation += 1
        return lost

    def mark_corrupted(self) -> str:
        """A transient SEU hits the loaded Atom's configuration bits.

        The container stays LOADED — the fault is silent — but the Atom
        it reports is wrong until a rotation overwrites it or the
        scrubber quarantines the container.  Returns the affected Atom.
        """
        if self.state is not ContainerState.LOADED or self.atom is None:
            raise ValueError(
                f"container {self.container_id} holds no loaded atom to corrupt"
            )
        if self.failed or self.quarantined:
            raise ValueError(
                f"container {self.container_id} is out of service"
            )
        self.corrupted = True
        self.generation += 1
        return self.atom

    def quarantine(self) -> str | None:
        """Pull a detected-corrupt container out of service for repair.

        Drops the (untrustworthy) Atom and blocks the container from
        ordinary rotations until :meth:`release_quarantine`.  Returns the
        Atom lost, which the repair rotation will re-load.
        """
        if self.failed:
            raise ValueError(
                f"container {self.container_id} is failed and cannot be quarantined"
            )
        if self.state is ContainerState.LOADING:
            raise ValueError(
                f"container {self.container_id} is rotating and cannot be quarantined"
            )
        lost = self.atom
        if lost is not None:
            self.evictions += 1
        self.state = ContainerState.EMPTY
        self.atom = None
        self.ready_at = None
        self.corrupted = False
        self.quarantined = True
        self.generation += 1
        return lost

    def release_quarantine(self) -> None:
        """Re-admit the container after a successful repair rotation."""
        if not self.quarantined:
            raise ValueError(
                f"container {self.container_id} is not quarantined"
            )
        self.quarantined = False
        self.generation += 1

    def abort_rotation(self) -> str | None:
        """Abandon an in-flight rotation (mid-write bitstream error).

        The partially written configuration is useless: the container
        returns to EMPTY and the Atom being loaded is lost.  Returns that
        Atom so the caller can retry the write.
        """
        if self.state is not ContainerState.LOADING:
            raise ValueError(
                f"container {self.container_id} has no rotation in flight"
            )
        lost = self.atom
        self.state = ContainerState.EMPTY
        self.atom = None
        self.ready_at = None
        self.generation += 1
        return lost

    def is_busy(self) -> bool:
        return self.state is ContainerState.LOADING

    def begin_rotation(
        self,
        atom: str,
        ready_at: int,
        *,
        owner: str | None = None,
        repair: bool = False,
    ) -> None:
        """Start loading ``atom``; the container is unusable until ``ready_at``.

        Rotating a LOADING container is rejected — the single configuration
        port serialises rotations, and an in-flight one cannot be hijacked.
        A quarantined container only accepts ``repair=True`` rotations.
        """
        if self.failed:
            raise ValueError(
                f"container {self.container_id} is failed and out of service"
            )
        if self.quarantined and not repair:
            raise ValueError(
                f"container {self.container_id} is quarantined; only a repair "
                "rotation may target it"
            )
        if self.state is ContainerState.LOADING:
            raise ValueError(
                f"container {self.container_id} is already rotating"
            )
        if ready_at < 0:
            raise ValueError("completion cycle cannot be negative")
        self.state = ContainerState.LOADING
        self.atom = atom
        self.ready_at = ready_at
        self.corrupted = False
        if owner is not None:
            self.owner = owner
        self.rotations += 1
        self.generation += 1

    def complete_rotation(self, now: int) -> None:
        """Finish the in-flight rotation (called by the port at ``ready_at``)."""
        if self.state is not ContainerState.LOADING:
            raise ValueError(
                f"container {self.container_id} has no rotation in flight"
            )
        if self.ready_at is not None and now < self.ready_at:
            raise ValueError(
                f"rotation completes at {self.ready_at}, not at {now}"
            )
        self.state = ContainerState.LOADED
        self.ready_at = None
        self.last_used = now
        self.generation += 1

    def evict(self) -> str | None:
        """Drop the loaded Atom, returning its kind (None if empty)."""
        if self.state is ContainerState.LOADING:
            raise ValueError(
                f"container {self.container_id} is rotating and cannot be evicted"
            )
        previous = self.atom
        if previous is not None:
            self.evictions += 1
        self.state = ContainerState.EMPTY
        self.atom = None
        self.corrupted = False
        self.generation += 1
        return previous

    def reassign(self, owner: str | None) -> None:
        """Change the soft owner (the Fig. 6 'reallocation')."""
        self.owner = owner
