"""Lattice checks over a library's molecules (rules LAT003, LAT004).

The §3.1 Molecule model is a complete lattice on ``N^n``; its laws
(absorption, residual bounds) are properties of the ``Molecule`` type
itself and are proven there by ``tests/test_core_molecule_properties.py``.
What a constructed library can still get wrong is per SI: libraries are
assembled from mutable ``SpecialInstruction`` objects and user
subclasses (custom ``rep()`` overrides, duck-typed molecules from
generators), so these checks re-verify per SI:

* LAT003 — ``inf(S) <= Rep(S) <= sup(S)`` component-wise (§3.2);
* LAT004 — every hardware molecule lives in its SI's atom space.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..core.library import SILibrary
from ..core.molecule import infimum, supremum
from .diagnostics import Diagnostic
from .rules import diag


def check_lattice(library: SILibrary, subject: str) -> Iterator[Diagnostic]:
    """LAT004 per molecule, LAT003 per SI."""
    for si in library:
        for i, impl in enumerate(si.implementations):
            if impl.molecule.space != si.space:
                yield diag(
                    "LAT004",
                    f"molecule {i} of SI {si.name!r} lives in a foreign atom "
                    f"space {impl.molecule.space!r} (SI space {si.space!r})",
                    subject=subject,
                    location=f"SI {si.name} / molecule {i}",
                    si=si.name,
                    molecule=i,
                )

    for si in library:
        molecules = [m for m in si.molecules() if m.space == si.space]
        if not molecules:
            continue  # LIB007/LAT004 report the underlying defect
        rep = si.rep()
        if rep.space != si.space:
            yield diag(
                "LAT003",
                f"Rep(S) of SI {si.name!r} lives in a foreign atom space",
                subject=subject,
                location=f"SI {si.name}",
                si=si.name,
            )
            continue
        lower, upper = infimum(molecules), supremum(molecules, space=si.space)
        if not (lower <= rep) or not (rep <= upper):
            yield diag(
                "LAT003",
                f"Rep(S) of SI {si.name!r} is {rep!r}, outside its bounds "
                f"inf={lower!r} .. sup={upper!r}",
                subject=subject,
                location=f"SI {si.name}",
                si=si.name,
                rep=rep.as_dict(),
                inf=lower.as_dict(),
                sup=upper.as_dict(),
            )
