"""Pluggable compute backends for the molecule-lattice hot paths.

Run-time molecule selection (paper §5, task b) runs on every replan:
:func:`repro.core.selection.select_greedy` scores every candidate
molecule against the demand supremum of the others, and
:func:`repro.core.selection.select_exhaustive` enumerates the per-SI
choice product — lattice operations over ``N^n`` count vectors, and the
code whose behaviour the paper's results depend on.

This module therefore splits *policy* from *kernels*:

* :class:`ComputeBackend` — the narrow interface: batched supremum /
  infimum / residual / determinant over stacked count rows, Pareto-mask
  extraction, and the two selection inner loops (greedy candidate scan,
  exhaustive enumeration).
* :class:`NumpyBackend` — the kernels the runtime runs.  Greedy is a
  linear pure-python loop over count tuples staged once per library
  (one leave-one-out supremum per SI per round, no ``Molecule`` built
  inside a round), so a runtime never loads numpy.  Exhaustive
  enumeration, Pareto masks and the batched primitives vectorize over
  ``int64`` matrices and import numpy on first use.
* :class:`ReferenceBackend` — the pure-python kernels written as
  directly as the paper states them (greedy rebuilds the supremum per
  candidate); the executable specification the fast kernels must match
  bit-for-bit (identical ``SelectionResult`` objects, not merely equal
  total benefit).  Only tests run it, as the oracle of the equivalence
  fuzz tests.

Selection and Pareto analysis call :func:`kernel` at call time; it
builds the one shared :class:`NumpyBackend` on first use.  Tests swap
``_kernel`` to run the same callers on the reference kernels.
"""

from __future__ import annotations

import itertools
import weakref
from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Any

from .molecule import Molecule, supremum

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .library import SILibrary
    from .selection import ForecastedSI
    from .si import MoleculeImpl, SpecialInstruction

#: Stacked count vectors: one row per molecule, ordered like
#: ``AtomSpace.kinds``.
Rows = Sequence[Sequence[int]]


# -- shared scoring helpers ---------------------------------------------------


def benefit(fsi: "ForecastedSI", impl: "MoleculeImpl | None") -> float:
    """Weighted cycles saved vs. pure software execution."""
    if impl is None:
        return 0.0
    saved = fsi.si.software_cycles - impl.cycles
    return fsi.expected_executions * max(saved, 0)


def demand(
    library: "SILibrary", chosen: Mapping[str, "MoleculeImpl | None"]
) -> Molecule:
    """Supremum of the chosen molecules, projected onto reconfigurable kinds."""
    molecules = [
        library.restricted_to_reconfigurable(impl.molecule)
        for impl in chosen.values()
        if impl is not None
    ]
    return supremum(molecules, space=library.space)


# -- the interface ------------------------------------------------------------


class ComputeBackend(ABC):
    """Batched lattice kernels behind selection and Pareto analysis.

    All ``Rows`` arguments are stacked count vectors (one row per
    molecule, components ordered like the owning ``AtomSpace``); the
    selection entry points receive domain objects because their inner
    loops are what the backends specialise.  Implementations must be
    stateless: one instance is shared process-wide.
    """

    # -- batched lattice primitives --------------------------------------

    @abstractmethod
    def sup(self, rows: Rows, dim: int) -> tuple[int, ...]:
        """Component-wise max over ``rows`` (``dim`` zeros when empty)."""

    @abstractmethod
    def inf(self, rows: Rows) -> tuple[int, ...]:
        """Component-wise min over ``rows``; raises ``ValueError`` on empty."""

    @abstractmethod
    def residual(
        self, rows: Rows, available: Sequence[int]
    ) -> list[tuple[int, ...]]:
        """Per-row clamped subtraction ``max(row - available, 0)``."""

    @abstractmethod
    def determinants(self, rows: Rows) -> list[int]:
        """Per-row determinant ``|m| = sum(m_i)``."""

    @abstractmethod
    def pareto_mask(
        self, atoms: Sequence[int], cycles: Sequence[int]
    ) -> list[bool]:
        """Non-domination mask over ``(atoms, cycles)`` points.

        ``mask[i]`` is True iff no point ``j`` has ``atoms[j] <= atoms[i]``
        and ``cycles[j] <= cycles[i]`` with at least one strict
        inequality.  Exact duplicates never dominate each other, so all
        of them stay on the front.
        """

    # -- selection inner loops -------------------------------------------

    @abstractmethod
    def greedy_choose(
        self,
        library: "SILibrary",
        requests: "Sequence[ForecastedSI]",
        container_budget: int,
        loaded_rc: Molecule,
    ) -> tuple[dict[str, "MoleculeImpl | None"], int]:
        """The greedy marginal-gain scan of ``select_greedy``.

        Returns the chosen implementation per SI name (keys in request
        order) and the number of candidates considered.  ``loaded_rc``
        is the already-loaded molecule, reconfigurable projection taken
        by the caller.
        """

    @abstractmethod
    def exhaustive_choose(
        self,
        library: "SILibrary",
        requests: "Sequence[ForecastedSI]",
        container_budget: int,
    ) -> tuple[dict[str, "MoleculeImpl | None"], float, int]:
        """The full enumeration of ``select_exhaustive``.

        Returns the best choice (keys in request order), its total
        benefit, and the number of combinations considered.  Ties on
        benefit prefer fewer containers, then the earlier combination in
        ``itertools.product`` order.
        """


# -- the executable specification ---------------------------------------------


class ReferenceBackend(ComputeBackend):
    """Pure-python kernels: simple, dependency-free, and the oracle.

    Any other backend must reproduce these results exactly; the
    reference itself exists so the fast paths have a small, readable
    specification to be diffed against.
    """

    def sup(self, rows: Rows, dim: int) -> tuple[int, ...]:
        out = [0] * dim
        for row in rows:
            for i, c in enumerate(row):
                if c > out[i]:
                    out[i] = c
        return tuple(out)

    def inf(self, rows: Rows) -> tuple[int, ...]:
        rows = list(rows)
        if not rows:
            raise ValueError("infimum of an empty set is unbounded")
        out = list(rows[0])
        for row in rows[1:]:
            for i, c in enumerate(row):
                if c < out[i]:
                    out[i] = c
        return tuple(out)

    def residual(
        self, rows: Rows, available: Sequence[int]
    ) -> list[tuple[int, ...]]:
        return [
            tuple(max(o - m, 0) for o, m in zip(row, available))
            for row in rows
        ]

    def determinants(self, rows: Rows) -> list[int]:
        return [sum(row) for row in rows]

    def pareto_mask(
        self, atoms: Sequence[int], cycles: Sequence[int]
    ) -> list[bool]:
        mask = []
        for i in range(len(atoms)):
            dominated = any(
                atoms[j] <= atoms[i]
                and cycles[j] <= cycles[i]
                and (atoms[j] < atoms[i] or cycles[j] < cycles[i])
                for j in range(len(atoms))
                if j != i
            )
            mask.append(not dominated)
        return mask

    def greedy_choose(
        self,
        library: "SILibrary",
        requests: "Sequence[ForecastedSI]",
        container_budget: int,
        loaded_rc: Molecule,
    ) -> tuple[dict[str, "MoleculeImpl | None"], int]:
        chosen: dict[str, MoleculeImpl | None] = {
            r.si.name: None for r in requests
        }
        by_name = {r.si.name: r for r in requests}
        considered = 0
        baseline = library.baseline_molecule()

        def containers_for(d: Molecule) -> int:
            # Containers hold only the demand beyond the static baseline.
            return abs(d - baseline)

        while True:
            current_demand = demand(library, chosen)
            current_containers = containers_for(current_demand)
            best: tuple[float, float, str, MoleculeImpl] | None = None
            for name, fsi in by_name.items():
                current_gain = benefit(fsi, chosen[name])
                for impl in fsi.si.implementations:
                    considered += 1
                    gain = benefit(fsi, impl) - current_gain
                    if gain <= 0:
                        continue
                    trial = dict(chosen)
                    trial[name] = impl
                    new_demand = demand(library, trial)
                    new_containers = containers_for(new_demand)
                    if new_containers > container_budget:
                        continue
                    # Primary cost: container budget this upgrade consumes.
                    # An upgrade that shrinks (or holds) the supremum is
                    # free, not negative: clamping the denominator keeps a
                    # strictly beneficial, container-freeing swap scoring
                    # at least as high as a budget-neutral one.
                    extra_budget = new_containers - current_containers
                    score = gain / (max(extra_budget, 0) + 0.5)
                    # Secondary preference: fewer new rotations (reuse
                    # what is already loaded or demanded).
                    rotations = abs(new_demand - (current_demand | loaded_rc))
                    key = (score, -rotations)
                    if best is None or key > best[:2]:
                        best = (score, -rotations, name, impl)
            if best is None:
                break
            _, _, name, impl = best
            chosen[name] = impl
        return chosen, considered

    def exhaustive_choose(
        self,
        library: "SILibrary",
        requests: "Sequence[ForecastedSI]",
        container_budget: int,
    ) -> tuple[dict[str, "MoleculeImpl | None"], float, int]:
        baseline = library.baseline_molecule()
        option_lists: list[list[MoleculeImpl | None]] = [
            [None, *r.si.implementations] for r in requests
        ]
        best_choice: dict[str, MoleculeImpl | None] = {
            r.si.name: None for r in requests
        }
        best_benefit = 0.0
        best_containers = 0
        considered = 0
        for combo in itertools.product(*option_lists):
            considered += 1
            chosen = {r.si.name: impl for r, impl in zip(requests, combo)}
            d = demand(library, chosen)
            containers = abs(d - baseline)
            if containers > container_budget:
                continue
            combo_benefit = sum(
                benefit(r, impl) for r, impl in zip(requests, combo)
            )
            # Equal-benefit combos prefer fewer containers (then the
            # earlier enumeration), so the optimum is deterministic and
            # never wastes fabric.
            if combo_benefit > best_benefit or (
                combo_benefit == best_benefit
                and containers < best_containers
            ):
                best_benefit = combo_benefit
                best_containers = containers
                best_choice = chosen
        return best_choice, best_benefit, considered


# -- the kernels the runtime runs ---------------------------------------------


class NumpyBackend(ComputeBackend):
    """The kernels selection and Pareto analysis run on: a pure-python
    greedy, numpy (imported on first use) for everything else.  The
    class keeps its name because the benchmark's layer tracer binds it
    by name.

    Equivalence with :class:`ReferenceBackend` is exact, not
    approximate: benefits and scores are the same python-float
    expressions the reference evaluates, enumeration follows the same
    order, and ties pick the same first-encountered winner.
    """

    def __init__(self) -> None:
        #: Per-library staging cache: libraries are immutable after
        #: construction, so each SI's candidate rows (which depend only
        #: on SI structure, never on the per-call weights) are built
        #: once.  Weak keys keep dropped libraries collectable.
        self._staging: "weakref.WeakKeyDictionary[Any, Any]" = (
            weakref.WeakKeyDictionary()
        )

    @property
    def _np(self) -> Any:
        import numpy

        return numpy

    # -- batched lattice primitives --------------------------------------

    def sup(self, rows: Rows, dim: int) -> tuple[int, ...]:
        np = self._np
        rows = list(rows)
        if not rows:
            return (0,) * dim
        return tuple(
            int(c) for c in np.asarray(rows, dtype=np.int64).max(axis=0)
        )

    def inf(self, rows: Rows) -> tuple[int, ...]:
        np = self._np
        rows = list(rows)
        if not rows:
            raise ValueError("infimum of an empty set is unbounded")
        return tuple(
            int(c) for c in np.asarray(rows, dtype=np.int64).min(axis=0)
        )

    def residual(
        self, rows: Rows, available: Sequence[int]
    ) -> list[tuple[int, ...]]:
        np = self._np
        rows = list(rows)
        if not rows:
            return []
        stacked = np.asarray(rows, dtype=np.int64)
        left = stacked - np.asarray(available, dtype=np.int64)[None, :]
        np.maximum(left, 0, out=left)
        return [tuple(int(c) for c in row) for row in left]

    def determinants(self, rows: Rows) -> list[int]:
        np = self._np
        rows = list(rows)
        if not rows:
            return []
        return [
            int(s) for s in np.asarray(rows, dtype=np.int64).sum(axis=1)
        ]

    def pareto_mask(
        self, atoms: Sequence[int], cycles: Sequence[int]
    ) -> list[bool]:
        np = self._np
        if not len(atoms):
            return []
        a = np.asarray(atoms, dtype=np.int64)
        c = np.asarray(cycles, dtype=np.int64)
        # dominated[i] = any j: a[j] <= a[i], c[j] <= c[i], one strict.
        no_worse = (a[None, :] <= a[:, None]) & (c[None, :] <= c[:, None])
        strict = (a[None, :] < a[:, None]) | (c[None, :] < c[:, None])
        dominated = (no_worse & strict).any(axis=1)
        return [bool(not d) for d in dominated]

    # -- selection inner loops -------------------------------------------

    def _staged(self, library: "SILibrary") -> Any:
        """``(columns, baseline, rows)`` of a library, staged on first use.

        ``columns`` index its reconfigurable kinds (static kinds are zero
        in every projected row, so dropping them changes no sum),
        ``baseline`` is the static baseline over them, and ``rows`` maps
        an SI to ``[(cycles, rc_row, impl), ...]``.
        """
        staged = self._staging.get(library)
        if staged is None:
            columns = tuple(
                i for i, kind in enumerate(library.catalogue)
                if kind.reconfigurable
            )
            baseline = library.baseline_molecule().counts
            staged = (columns, tuple(baseline[i] for i in columns), {})
            self._staging[library] = staged
        return staged

    def _candidates(
        self, library: "SILibrary", si: "SpecialInstruction"
    ) -> list[tuple[int, tuple[int, ...], "MoleculeImpl"]]:
        """``(cycles, rc_row, impl)`` per implementation, in scan order
        (staged once per SI: an SI is immutable)."""
        columns, _, staged = self._staged(library)
        rows = staged.get(si)
        if rows is None:
            rows = staged[si] = []
            for impl in si.implementations:
                counts = library.restricted_to_reconfigurable(
                    impl.molecule
                ).counts
                rows.append((impl.cycles, tuple(counts[i] for i in columns), impl))
        return rows

    def greedy_choose(
        self,
        library: "SILibrary",
        requests: "Sequence[ForecastedSI]",
        container_budget: int,
        loaded_rc: Molecule,
    ) -> tuple[dict[str, "MoleculeImpl | None"], int]:
        requests = list(requests)
        chosen: dict[str, MoleculeImpl | None] = {
            r.si.name: None for r in requests
        }
        columns, baseline, _ = self._staged(library)
        loaded = tuple(loaded_rc.counts[i] for i in columns)
        zero = (0,) * len(columns)
        # Per request, in the reference scan order: each candidate's
        # benefit (the python-float product ``benefit`` computes) and row.
        scans = []
        for fsi in requests:
            weight = fsi.expected_executions
            software = fsi.si.software_cycles
            scans.append([
                (weight * max(software - cycles, 0), row, impl)
                for cycles, row, impl in self._candidates(library, fsi.si)
            ])
        n_cand = sum(len(scan) for scan in scans)
        rows = [zero] * len(requests)  # chosen rc row per request
        benefits = [0.0] * len(requests)  # chosen benefit per request
        # Both costs are sums of clamped differences, and for integers
        # ``max(d - b, 0) == max(d, b) - b``: so containers beyond the
        # baseline are ``sum(max(demand, baseline)) - sum(baseline)``, and
        # rotations ``sum(max(new, combined)) - sum(combined)``, where
        # ``combined`` (current demand | loaded) already bounds every
        # other SI's row, so only the candidate's own row enters it.
        baseline_total = sum(baseline)
        considered = 0
        while True:
            considered += n_cand
            # Per column, the top and second value over the chosen rows:
            # the current demand, and the leave-one-out supremum of the
            # other requests (a row holding the top falls back to the
            # second; duplicates of the top keep it as the second).
            top = list(zero)
            second = list(zero)
            for row in rows:
                for k, c in enumerate(row):
                    if c > top[k]:
                        second[k] = top[k]
                        top[k] = c
                    elif c > second[k]:
                        second[k] = c
            current_containers = (
                sum(map(max, top, baseline)) - baseline_total
            )
            combined = tuple(map(max, top, loaded))
            combined_total = sum(combined)
            best = None
            best_score = 0.0
            best_rotations = 0
            for index, scan in enumerate(scans):
                # max(other SIs' rows, baseline), once per SI per round.
                floor = tuple(
                    max(s if r == t else t, b)
                    for r, t, s, b in zip(rows[index], top, second, baseline)
                )
                current_gain = benefits[index]
                for candidate in scan:
                    gain = candidate[0] - current_gain
                    if gain <= 0:
                        continue
                    new_containers = (
                        sum(map(max, floor, candidate[1])) - baseline_total
                    )
                    if new_containers > container_budget:
                        continue
                    extra = new_containers - current_containers
                    score = gain / (max(extra, 0) + 0.5)
                    if best is not None and score < best_score:
                        continue  # cannot win: skip the rotation count
                    rotations = (
                        sum(map(max, combined, candidate[1])) - combined_total
                    )
                    # The reference's strict ``(score, -rotations)`` tuple
                    # comparison: the first-encountered best wins ties.
                    if best is None or score > best_score or (
                        score == best_score and rotations < best_rotations
                    ):
                        best = (index, candidate)
                        best_score = score
                        best_rotations = rotations
            if best is None:
                break
            index, (ben, row, impl) = best
            rows[index] = row
            benefits[index] = ben
            chosen[requests[index].si.name] = impl
        return chosen, considered

    #: Combinations materialised per exhaustive-enumeration chunk; bounds
    #: peak memory at chunk x kinds int64 regardless of library size.
    EXHAUSTIVE_CHUNK = 1 << 15

    def exhaustive_choose(
        self,
        library: "SILibrary",
        requests: "Sequence[ForecastedSI]",
        container_budget: int,
    ) -> tuple[dict[str, "MoleculeImpl | None"], float, int]:
        np = self._np
        requests = list(requests)
        if not requests:
            # product() of no option lists yields exactly one empty combo.
            return {}, 0.0, 1
        baseline = np.asarray(
            library.baseline_molecule().counts, dtype=np.int64
        )
        option_impls: list[list[MoleculeImpl | None]] = [
            [None, *r.si.implementations] for r in requests
        ]
        option_rows: list[Any] = []
        option_ben: list[Any] = []
        for fsi, options in zip(requests, option_impls):
            rows = np.zeros(
                (len(options), len(library.space.kinds)), dtype=np.int64
            )
            ben = np.zeros(len(options), dtype=np.float64)
            for j, impl in enumerate(options):
                if impl is not None:
                    rows[j] = library.restricted_to_reconfigurable(
                        impl.molecule
                    ).counts
                    ben[j] = benefit(fsi, impl)
            option_rows.append(rows)
            option_ben.append(ben)
        shape = tuple(len(options) for options in option_impls)
        total = 1
        for size in shape:
            total *= size
        best_digits = (0,) * len(requests)
        best_benefit = 0.0
        best_containers = 0
        for start in range(0, total, self.EXHAUSTIVE_CHUNK):
            stop = min(start + self.EXHAUSTIVE_CHUNK, total)
            flat = np.arange(start, stop, dtype=np.int64)
            # C-order unravelling matches itertools.product enumeration.
            digits = np.unravel_index(flat, shape)
            demand_rows = np.zeros(
                (stop - start, len(library.space.kinds)), dtype=np.int64
            )
            benefits = np.zeros(stop - start, dtype=np.float64)
            for i in range(len(requests)):
                np.maximum(
                    demand_rows, option_rows[i][digits[i]], out=demand_rows
                )
                # Left-to-right accumulation mirrors the reference's
                # sum() over the combo, so the floats match exactly.
                benefits = benefits + option_ben[i][digits[i]]
            containers = np.maximum(
                demand_rows - baseline[None, :], 0
            ).sum(axis=1)
            ok = np.flatnonzero(containers <= container_budget)
            if not len(ok):
                continue
            ok_ben = benefits[ok]
            tied = ok[ok_ben == ok_ben.max()]
            tied_containers = containers[tied]
            pick = int(tied[tied_containers == tied_containers.min()][0])
            chunk_benefit = float(benefits[pick])
            chunk_containers = int(containers[pick])
            if chunk_benefit > best_benefit or (
                chunk_benefit == best_benefit
                and chunk_containers < best_containers
            ):
                best_benefit = chunk_benefit
                best_containers = chunk_containers
                best_digits = tuple(int(d[pick]) for d in digits)
        best_choice = {
            r.si.name: option_impls[i][best_digits[i]]
            for i, r in enumerate(requests)
        }
        return best_choice, best_benefit, total


# -- the shared instance ------------------------------------------------------


_kernel: ComputeBackend | None = None


def kernel() -> ComputeBackend:
    """The kernels selection and Pareto analysis run on (built on first use)."""
    global _kernel
    if _kernel is None:
        _kernel = NumpyBackend()
    return _kernel
