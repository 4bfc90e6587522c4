"""Special Instructions and their Molecule implementations (section 3.2).

A Special Instruction (SI) bundles

* an *optimised software molecule* — the plain-ISA fallback the core
  executes when no (or not enough) Atoms are loaded, and
* a set of *hardware molecules* — alternative Atom compositions trading
  area (Atom instances) against latency (cycles).

The paper represents each SI at run time by the Meta-Molecule
``Rep(S) = ceil( (1/|S|) * sum of S's hardware molecules )`` so that SI/SI
compatibility reduces to Meta-Molecule compatibility; :meth:`SpecialInstruction.rep`
implements exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable

from .molecule import AtomSpace, Molecule, supremum


@dataclass(frozen=True)
class MoleculeImpl:
    """One hardware implementation option of an SI.

    Parameters
    ----------
    molecule:
        The Atom requirement vector.
    cycles:
        Latency of one SI execution with this molecule, in core cycles.
    label:
        Optional human-readable tag (e.g. ``"L2 P1 T1 S1"``).  The trace
        records it as the execution's mode, so ``"SW"`` — the software
        fallback's mode — is reserved.
    """

    molecule: Molecule
    cycles: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ValueError("molecule latency must be at least one cycle")
        if self.molecule.is_zero():
            raise ValueError("a hardware molecule must use at least one atom")
        if self.label == "SW":
            raise ValueError(
                'label "SW" is reserved for the software fallback\'s mode'
            )

    def atoms(self) -> int:
        """Total Atom instances of this implementation (the determinant)."""
        return abs(self.molecule)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class SpecialInstruction:
    """A Special Instruction with software fallback and hardware molecules.

    Immutable once built, like its molecules: the library's cached
    projections and the selection kernel's staged rows rely on it.
    Equality and hashing stay by identity.
    """

    name: str
    space: AtomSpace
    software_cycles: int
    implementations: tuple[MoleculeImpl, ...]
    description: str

    def __init__(
        self,
        name: str,
        space: AtomSpace,
        software_cycles: int,
        implementations: Iterable[MoleculeImpl],
        description: str = "",
    ):
        if software_cycles < 1:
            raise ValueError("software execution needs at least one cycle")
        impls = tuple(implementations)
        for impl in impls:
            if impl.molecule.space != space:
                raise ValueError(
                    f"molecule {impl!r} of SI {name!r} lives in a foreign atom space"
                )
        if not impls:
            raise ValueError(f"SI {name!r} needs at least one hardware molecule")
        for attr, value in (
            ("name", name),
            ("space", space),
            ("software_cycles", software_cycles),
            ("implementations", impls),
            ("description", description),
        ):
            object.__setattr__(self, attr, value)

    # -- structural queries ------------------------------------------------

    def molecules(self) -> tuple[Molecule, ...]:
        """All hardware molecules (the software molecule is excluded,
        matching the paper's footnote on ``Rep``)."""
        return tuple(impl.molecule for impl in self.implementations)

    def minimal_molecule(self) -> MoleculeImpl:
        """The implementation with the fewest Atom instances.

        Ties are broken towards the faster implementation.
        """
        return min(self.implementations, key=lambda i: (i.atoms(), i.cycles))

    def fastest_molecule(self) -> MoleculeImpl:
        """The implementation with the lowest latency (ties: fewer atoms)."""
        return min(self.implementations, key=lambda i: (i.cycles, i.atoms()))

    def supremum(self) -> Molecule:
        """Atoms needed to implement *any* molecule of this SI."""
        return supremum(self.molecules(), space=self.space)

    def rep(self) -> Molecule:
        """The representative Meta-Molecule ``Rep(S)`` (section 3.2).

        Component-wise ceiling of the average Atom usage over all hardware
        molecules of the SI.
        """
        total = [0] * self.space.dimension
        for molecule in self.molecules():
            for i, c in enumerate(molecule.counts):
                total[i] += c
        n = len(self.implementations)
        return Molecule(self.space, (math.ceil(t / n) for t in total))

    # -- run-time queries ----------------------------------------------------

    def best_available(self, available: Molecule) -> MoleculeImpl | None:
        """Fastest implementation executable with the ``available`` Atoms.

        Returns ``None`` when not even the minimal molecule fits, i.e. the
        SI must run as its software molecule.
        """
        fitting = [i for i in self.implementations if i.molecule <= available]
        if not fitting:
            return None
        return min(fitting, key=lambda i: (i.cycles, i.atoms()))

    def cycles_with(self, available: Molecule) -> int:
        """Latency of one execution given the ``available`` Atoms.

        Falls back to the software latency when no molecule fits — this is
        the gradual SW -> partial HW -> full HW upgrade behaviour the paper
        calls *Rotation in Advance*.
        """
        best = self.best_available(available)
        return self.software_cycles if best is None else best.cycles

    def expected_speedup(self, impl: MoleculeImpl) -> float:
        """Speed-up of ``impl`` over the optimised software molecule.

        The paper's trimming algorithm (Fig. 5) uses "the difference in
        execution speed between the Molecules and the software execution";
        we report the ratio ``T_sw / T_hw`` (>= 1 for any sane molecule),
        which orders candidates identically and stays scale-free.
        """
        return self.software_cycles / impl.cycles

    def max_expected_speedup(self) -> float:
        """Speed-up of the fastest hardware molecule over software."""
        return self.expected_speedup(self.fastest_molecule())

    def __repr__(self) -> str:
        return (
            f"SpecialInstruction({self.name!r}, sw={self.software_cycles}cyc, "
            f"{len(self.implementations)} molecules)"
        )
