"""Seeded scenario inputs of the shipped suites (:mod:`repro.sim.suites`),
the tests and the ``perf/`` benchmark.  The stream loop that drives them
is :func:`repro.sim.suites.run_si_stream`.

* :data:`H264_MACROBLOCK_CALLS` — the SI calls of one encoded H.264
  macroblock (256 SATD + 24 DCT + 1 HT_4x4 + 2 HT_2x2, the Fig. 7
  invocation structure).
* :func:`build_synthetic_library` — a small generated library shaped
  like the case studies.
"""

from __future__ import annotations

from ..core.atom import AtomCatalogue, AtomKind
from ..core.library import SILibrary
from ..core.si import MoleculeImpl, SpecialInstruction

#: Fig. 7 invocation structure: SI calls of one encoded macroblock.
H264_MACROBLOCK_CALLS = (
    ("SATD_4x4", 256),
    ("DCT_4x4", 24),
    ("HT_4x4", 1),
    ("HT_2x2", 2),
)


def build_synthetic_library(
    *, kinds: int = 6, sis: int = 4
) -> SILibrary:
    """A generated library shaped like the case studies, but tiny."""
    atom_kinds = [
        AtomKind(f"Syn{i}", bitstream_bytes=40_000 + 4_000 * i)
        for i in range(kinds)
    ]
    catalogue = AtomCatalogue.of(atom_kinds)
    space = catalogue.space
    instructions = []
    for s in range(sis):
        base = {f"Syn{(s + j) % kinds}": 1 for j in range(2)}
        big = dict(base)
        big[f"Syn{(s + 2) % kinds}"] = 2
        instructions.append(
            SpecialInstruction(
                f"SI{s}",
                space,
                software_cycles=300 + 50 * s,
                implementations=[
                    MoleculeImpl(space.molecule(base), 40 + 10 * s),
                    MoleculeImpl(space.molecule(big), 12 + 4 * s),
                ],
            )
        )
    return SILibrary(catalogue, instructions)
