"""Future-work SIs: Motion Compensation and Loop Filter hot spots.

The paper closes its results with: "Amdahl's law prevents significant
further speed-up when offering more Atoms.  To overcome this we will
consider additional SIs focusing on different hot spots in future work."
This module implements that future work behaviourally: the two remaining
H.264 hot-spot groups from Fig. 1 — Motion Compensation (half-pel
interpolation, the standard's 6-tap filter) and the deblocking Loop
Filter — as new Atoms and SIs with molecule catalogues generated
automatically by :mod:`repro.core.molgen`.

The extended cycle model carves the MC/LF work out of Fig. 12's non-SI
core overhead (keeping the published totals intact when the new SIs run
in software) so the bench can show the Amdahl ceiling lifting.
"""

from __future__ import annotations

from ...core.atom import AtomCatalogue, AtomKind
from ...core.library import SILibrary
from ...core.molgen import generate_si
from ...core.schedule import layered_dataflow
from ...core.si import SpecialInstruction
from .sis import CORE_OVERHEAD_CYCLES, SOFTWARE_CYCLES, TABLE2, _impls, build_h264_catalogue

# ---------------------------------------------------------------------------
# Extended atom catalogue and SI library
# ---------------------------------------------------------------------------

#: Software latencies of the extension SIs (cycles on the scalar core).
EXTENSION_SOFTWARE_CYCLES = {"MC_HPEL": 900, "LF_EDGE": 400}

#: Per-macroblock invocation counts of the extension SIs: 16 half-pel
#: prediction blocks and 32 deblocking edges (8 vertical + 8 horizontal
#: per 16x16 luma, x2 for the internal 4x4 grid, simplified).
EXTENSION_SI_COUNTS = {"MC_HPEL": 16, "LF_EDGE": 32}

#: The MC/LF work previously buried in Fig. 12's non-SI core overhead:
#: 16 x 900 + 32 x 400 = 27_200 cycles of the 53_695 total.
EXTENSION_SW_CYCLES_PER_MB = sum(
    EXTENSION_SI_COUNTS[n] * EXTENSION_SOFTWARE_CYCLES[n]
    for n in EXTENSION_SI_COUNTS
)
#: Core overhead that remains non-SI after carving the hot spots out.
RESIDUAL_CORE_OVERHEAD = CORE_OVERHEAD_CYCLES - EXTENSION_SW_CYCLES_PER_MB


def build_extended_catalogue() -> AtomCatalogue:
    """The §6 catalogue plus the MC/LF atoms (SixTap, Clip)."""
    base = build_h264_catalogue()
    return AtomCatalogue.of(
        list(base.kinds)
        + [
            AtomKind(
                "SixTap",
                bitstream_bytes=62_000,
                slices=480,
                luts=960,
                description="half-pel 6-tap interpolation filter",
            ),
            AtomKind(
                "Clip",
                bitstream_bytes=54_000,
                slices=300,
                luts=600,
                description="saturation + threshold comparators (deblocking)",
            ),
        ]
    )


def _mc_dataflow():
    # 4 rows x 4 half-pel outputs: 16 SixTap executions feeding 16 clips,
    # packed 4-wide like the other atoms -> 4+4 packed executions.
    return layered_dataflow([("SixTap", 4, 2), ("Clip", 4, 1)])


def _lf_dataflow():
    # 4 edge rows: gradient tests + smoothing = 4 Clip-heavy stages with
    # a SixTap-adder pass for the averaging terms.
    return layered_dataflow([("Clip", 4, 1), ("SixTap", 2, 2), ("Clip", 4, 1)])


def build_extended_library() -> SILibrary:
    """The full library: Table 2 SIs + auto-generated MC_HPEL and LF_EDGE.

    The new SIs' molecule catalogues come from
    :func:`repro.core.molgen.generate_si` — the automated flow the paper
    names as future work — restricted to the {1, 2, 4} replication counts
    the hand-made catalogue uses, with an issue overhead calibrated so
    the minimal molecules land in the same latency class as Table 2's.
    """
    catalogue = build_extended_catalogue()
    space = catalogue.space

    sis: list[SpecialInstruction] = [
        SpecialInstruction(name, space, SOFTWARE_CYCLES[name], _impls(space, rows))
        for name, rows in TABLE2.items()
    ]
    mc, _ = generate_si(
        "MC_HPEL",
        _mc_dataflow(),
        space,
        EXTENSION_SOFTWARE_CYCLES["MC_HPEL"],
        counts_allowed=(1, 2, 4),
        issue_overhead=4,
        description="half-pel motion-compensation interpolation",
    )
    lf, _ = generate_si(
        "LF_EDGE",
        _lf_dataflow(),
        space,
        EXTENSION_SOFTWARE_CYCLES["LF_EDGE"],
        counts_allowed=(1, 2, 4),
        issue_overhead=3,
        description="one deblocking edge of the in-loop filter",
    )
    sis.extend([mc, lf])
    return SILibrary(catalogue, sis)


def extended_macroblock_cycles(si_cycles: dict[str, int]) -> int:
    """Per-MB cycles with the MC/LF hot spots modelled as SIs.

    With every extension SI at its software latency this reproduces the
    original Fig. 12 numbers exactly (the carve-out is latency-neutral).
    """
    from .encoder import LUMA_SI_COUNTS

    total = RESIDUAL_CORE_OVERHEAD
    for name, count in LUMA_SI_COUNTS.items():
        total += count * si_cycles[name]
    for name, count in EXTENSION_SI_COUNTS.items():
        total += count * si_cycles[name]
    return total
