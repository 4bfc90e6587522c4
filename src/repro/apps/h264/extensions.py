"""Future-work SIs: Motion Compensation and Loop Filter hot spots.

The paper closes its results with: "Amdahl's law prevents significant
further speed-up when offering more Atoms.  To overcome this we will
consider additional SIs focusing on different hot spots in future work."
This module implements that future work behaviourally: the two remaining
H.264 hot-spot groups from Fig. 1 — Motion Compensation (half-pel
interpolation, the standard's 6-tap filter) and the deblocking Loop
Filter — as functional kernels, new Atoms, and SIs with molecule
catalogues generated automatically by :mod:`repro.core.molgen`.

The extended cycle model carves the MC/LF work out of Fig. 12's non-SI
core overhead (keeping the published totals intact when the new SIs run
in software) so the bench can show the Amdahl ceiling lifting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...core.atom import AtomCatalogue, AtomKind
from ...core.library import SILibrary

from ...core.molgen import generate_si
from ...core.schedule import layered_dataflow
from ...core.si import SpecialInstruction
from .sis import CORE_OVERHEAD_CYCLES, SOFTWARE_CYCLES, TABLE2, _impls, build_h264_catalogue

if TYPE_CHECKING:  # the pixel kernels import numpy when they run
    import numpy as np

# ---------------------------------------------------------------------------
# Functional kernels
# ---------------------------------------------------------------------------

#: The H.264 half-pel 6-tap filter taps (applied then >> 5 with rounding).
SIXTAP = (1, -5, 20, 20, -5, 1)


def clip_pixel(value: int) -> int:
    """Saturate to the 8-bit pixel range (the Clip atom's function)."""
    return max(0, min(255, int(value)))


def sixtap_half_pel(samples) -> int:
    """One half-pel sample from six integer-pel neighbours (H.264 §8.4.2.2).

    ``b = (E - 5F + 20G + 20H - 5I + J + 16) >> 5``, clipped to 0..255.
    """
    import numpy as np
    arr = np.asarray(samples, dtype=np.int64)
    if arr.shape != (6,):
        raise ValueError("the 6-tap filter needs exactly six samples")
    acc = int(np.dot(arr, SIXTAP))
    return clip_pixel((acc + 16) >> 5)


def interpolate_half_pel_row(row) -> np.ndarray:
    """Half-pel samples between the integer pixels of one padded row.

    ``row`` has ``n + 5`` integer pixels; the result has ``n`` half-pel
    samples, one between each central pixel pair.
    """
    import numpy as np
    arr = np.asarray(row, dtype=np.int64)
    if arr.size < 6:
        raise ValueError("need at least six samples for one half-pel value")
    return np.array(
        [sixtap_half_pel(arr[i : i + 6]) for i in range(arr.size - 5)],
        dtype=np.int64,
    )


def mc_half_pel_block(padded_block) -> np.ndarray:
    """Half-pel horizontal interpolation of a 4-row block.

    ``padded_block`` is 4 x (w + 5) integer pixels; returns 4 x w half-pel
    samples — one MC_HPEL SI call covers one such block (Fig. 1's MC hot
    spot operates per prediction block).
    """
    import numpy as np
    arr = np.asarray(padded_block, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != 4 or arr.shape[1] < 6:
        raise ValueError("expected a 4 x (w+5) padded block")
    return np.vstack([interpolate_half_pel_row(r) for r in arr])


def deblock_edge(p, q, *, alpha: int = 40, beta: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Filter one 4+4-pixel edge (simplified H.264 in-loop deblocking).

    ``p = (p3, p2, p1, p0)`` and ``q = (q0, q1, q2, q3)`` straddle the
    block edge.  When the gradients are below the (alpha, beta)
    thresholds the boundary samples are smoothed with the standard's
    bs<4 filter shape; otherwise the edge is a real feature and is left
    untouched.
    """
    import numpy as np
    p = np.asarray(p, dtype=np.int64).copy()
    q = np.asarray(q, dtype=np.int64).copy()
    if p.shape != (4,) or q.shape != (4,):
        raise ValueError("an edge is four pixels on each side")
    if alpha < 1 or beta < 1:
        raise ValueError("thresholds must be positive")
    p3, p2, p1, p0 = p
    q0, q1, q2, q3 = q
    if abs(p0 - q0) >= alpha or abs(p1 - p0) >= beta or abs(q1 - q0) >= beta:
        return p, q
    delta = ((q0 - p0) * 4 + (p1 - q1) + 4) >> 3
    delta = max(-6, min(6, delta))
    p[3] = clip_pixel(p0 + delta)
    q[0] = clip_pixel(q0 - delta)
    p[2] = clip_pixel(p1 + ((p2 + ((p0 + q0 + 1) >> 1) - 2 * p1) >> 1))
    q[1] = clip_pixel(q1 + ((q2 + ((p0 + q0 + 1) >> 1) - 2 * q1) >> 1))
    return p, q


def deblock_block_edge(p_cols, q_cols, **thresholds):
    """Deblock the four pixel rows crossing one 4x4-block edge."""
    import numpy as np
    p_cols = np.asarray(p_cols, dtype=np.int64)
    q_cols = np.asarray(q_cols, dtype=np.int64)
    if p_cols.shape != (4, 4) or q_cols.shape != (4, 4):
        raise ValueError("expected 4x4 pixel arrays on both edge sides")
    outs = [deblock_edge(p_cols[i], q_cols[i], **thresholds) for i in range(4)]
    return np.vstack([o[0] for o in outs]), np.vstack([o[1] for o in outs])


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
