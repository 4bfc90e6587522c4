"""Lattice-law checks over a library's molecules (rules LAT001..LAT004).

The §3.1 Molecule model is a complete lattice on ``N^n``; every algorithm
downstream (Rep-based trimming, residual-driven rotation planning,
supremum-based selection) silently assumes its laws.  ``Molecule`` itself
enforces them by construction — but libraries are assembled from mutable
``SpecialInstruction`` objects and user subclasses (custom ``rep()``
overrides, duck-typed molecules from generators), so a constructed
library can still violate them.  These checks re-verify the laws over the
concrete molecules of a library, pairwise and per SI:

* LAT001 — absorption: ``m | (m & o) == m`` and ``m & (m | o) == m``;
* LAT002 — residual bounds: ``(o - m) <= o`` and ``m + (o - m) >= o``;
* LAT003 — ``inf(S) <= Rep(S) <= sup(S)`` component-wise (§3.2);
* LAT004 — every hardware molecule lives in its SI's atom space.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..core.library import SILibrary
from ..core.molecule import infimum, supremum
from .diagnostics import Diagnostic
from .rules import diag


def check_lattice_laws(library: SILibrary, subject: str) -> Iterator[Diagnostic]:
    """LAT001/LAT002 over all molecule pairs, LAT003/LAT004 per SI."""
    labelled = []
    for si in library:
        for i, impl in enumerate(si.implementations):
            labelled.append((f"SI {si.name} / molecule {i}", impl.molecule))
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

    comparable = [(loc, m) for loc, m in labelled if m.space == library.space]
    for a_loc, a in comparable:
        for b_loc, b in comparable:
            union, inter = a.union(b), a.intersection(b)
            if a.union(inter) != a or a.intersection(union) != a:
                yield diag(
                    "LAT001",
                    f"absorption law fails for {a_loc} vs {b_loc}: "
                    f"a|(a&b)={a.union(inter)!r}, a&(a|b)={a.intersection(union)!r}, a={a!r}",
                    subject=subject,
                    location=a_loc,
                    pair=[a_loc, b_loc],
                )
            residual = a.residual(b)
            if not (residual <= a) or not (b.plus(residual) >= a):
                yield diag(
                    "LAT002",
                    f"residual law fails for {a_loc} given {b_loc}: "
                    f"a-b={residual!r} must satisfy (a-b)<=a and b+(a-b)>=a",
                    subject=subject,
                    location=a_loc,
                    pair=[a_loc, b_loc],
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
