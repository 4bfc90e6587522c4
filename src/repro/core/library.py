"""SI library: the architecture's catalogue of Atoms and Special Instructions.

An :class:`SILibrary` ties together one :class:`~repro.core.atom.AtomCatalogue`
and the Special Instructions built on top of it.  It is the unit shipped
with an application (the H.264 case-study library lives in
``repro.apps.h264.sis``) and the object the run-time manager and the
compile-time forecast pipeline both consume.
"""

from __future__ import annotations

from collections.abc import Iterable

from .atom import AtomCatalogue
from .molecule import AtomSpace, Molecule, supremum
from .si import SpecialInstruction


class SILibrary:
    """A named collection of Special Instructions over one atom catalogue."""

    def __init__(
        self, catalogue: AtomCatalogue, sis: Iterable[SpecialInstruction]
    ):
        self.catalogue = catalogue
        self.space: AtomSpace = catalogue.space
        self._sis: dict[str, SpecialInstruction] = {}
        for si in sis:
            if si.space != self.space:
                raise ValueError(
                    f"SI {si.name!r} was built over a different atom space"
                )
            if si.name in self._sis:
                raise ValueError(f"duplicate SI {si.name!r}")
            self._sis[si.name] = si

    # -- lookups -------------------------------------------------------------

    def __contains__(self, name: object) -> bool:
        return name in self._sis

    def __iter__(self):
        return iter(self._sis.values())

    def __len__(self) -> int:
        return len(self._sis)

    def get(self, name: str) -> SpecialInstruction:
        """Look up an SI by name; raises ``KeyError`` if unknown."""
        return self._sis[name]

    def names(self) -> tuple[str, ...]:
        return tuple(self._sis)

    # -- aggregate queries -----------------------------------------------------

    def supremum(self) -> Molecule:
        """Atoms needed to offer every molecule of every SI concurrently...

        ...in the Meta-Molecule sense: the component-wise max over all
        hardware molecules in the library.
        """
        return supremum(
            (m for si in self for m in si.molecules()), space=self.space
        )

    def shared_atom_kinds(self) -> dict[str, tuple[str, ...]]:
        """Map each atom kind to the SIs whose molecules use it.

        This quantifies the paper's reusability argument (Fig. 2): one
        ``Transform`` atom serves HT_4x4, DCT_4x4, SATD_4x4 and HT_2x2.
        """
        users: dict[str, list[str]] = {kind: [] for kind in self.space.kinds}
        for si in self:
            used = set()
            for molecule in si.molecules():
                used.update(molecule.kinds_used())
            for kind in sorted(used):
                users[kind].append(si.name)
        return {kind: tuple(names) for kind, names in users.items()}

    def restricted_to_reconfigurable(self, molecule: Molecule) -> Molecule:
        """Project a molecule onto the reconfigurable atom kinds.

        Static atoms (``Load``/``Add``/``Store`` in the case study) are
        always available and never occupy Atom Containers; resource
        accounting therefore only considers the reconfigurable components.
        """
        return molecule.restricted_to(self.catalogue.reconfigurable_names())

    def baseline_molecule(self) -> Molecule:
        """Reconfigurable atoms the static fabric provides for free.

        In the case study a single ``Load`` lane is built into the static
        data path; molecules only occupy containers for atoms *beyond*
        this baseline.
        """
        return self.space.molecule(self.catalogue.baseline_counts())

    def container_demand(self, molecule: Molecule) -> int:
        """Number of Atom Containers ``molecule`` occupies.

        Static kinds never occupy containers; reconfigurable kinds occupy
        one container per instance beyond the static baseline.
        """
        needed = self.restricted_to_reconfigurable(molecule)
        return abs(needed - self.baseline_molecule())
