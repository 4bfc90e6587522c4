"""The Fig. 7 test-application flow: the H.264 transform/ME pipeline.

Per macroblock (16x16 pixels, the encoder's basic processing unit):

1. For each of the 16 luma 4x4 sub-blocks, SATD_4x4 is computed for 16
   candidate predictions; the minimum-SATD candidate wins.
2. The winner's residual is forwarded to DCT_4x4 (16 calls per MB).
3. The Quality Manager may decide to switch to Intra-MB injection when
   even the best candidate is poor (worst-case SATD threshold).
4. After the 16 DCTs, one HT_4x4 transforms the 16 luma DC coefficients.
5. Chroma (inter and intra alike): no SATD (ME runs on luma only); each
   8x8 Cb/Cr component takes 4 DCT_4x4 calls (8 total) plus one HT_2x2 on
   its 2x2 DC coefficients.

The pipeline is *functional* — it produces real coefficients — while also
reporting SI invocation counts, which the cycle model combines with the
per-SI latencies of the current RISPP state to yield whole-application
cycle counts (Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atoms import (
    AtomExecutionCounter,
    si_dct_4x4,
    si_ht_2x2,
    si_ht_4x4,
    si_satd_4x4,
)
from .blocks import split_into_4x4
from .sis import CORE_OVERHEAD_CYCLES
from .transforms import dc_coefficients, residual
from .workload import MacroblockData

#: SI invocations of one macroblock, luma only (the Fig. 12 accounting):
#: 16 sub-blocks x 16 candidates SATD, 16 DCT, 1 HT_4x4.
LUMA_SI_COUNTS: dict[str, int] = {"SATD_4x4": 256, "DCT_4x4": 16, "HT_4x4": 1}
#: Additional chroma invocations: 2 components x 4 DCT + 2 x HT_2x2.
CHROMA_SI_COUNTS: dict[str, int] = {"DCT_4x4": 8, "HT_2x2": 2}


@dataclass
class EncodedMacroblock:
    """Everything Fig. 7 produces for one macroblock."""

    luma_coefficients: list[list[np.ndarray]]
    dc_block: np.ndarray
    chroma_coefficients: dict[str, list[list[np.ndarray]]]
    chroma_dc: dict[str, np.ndarray]
    best_candidate_index: list[int]
    best_satd: list[int]
    intra_injected: bool
    si_counts: dict[str, int] = field(default_factory=dict)
    #: Decoded luma (prediction + reconstructed residual); present when
    #: the pipeline quantizes (``qp`` given).
    reconstructed_luma: np.ndarray | None = None
    #: Quantized transform levels per luma sub-block (``qp`` given).
    luma_levels: list[list[np.ndarray]] | None = None

    def luma_psnr(self, original: np.ndarray) -> float:
        """Peak signal-to-noise ratio of the reconstructed luma, dB."""
        if self.reconstructed_luma is None:
            raise ValueError("pipeline ran without quantization (no qp)")
        diff = np.asarray(original, dtype=np.float64) - self.reconstructed_luma
        mse = float(np.mean(diff * diff))
        if mse == 0:
            return float("inf")
        return 10.0 * np.log10(255.0**2 / mse)


class EncoderPipeline:
    """Functional Fig. 7 pipeline with SI accounting.

    Parameters
    ----------
    include_chroma:
        Process the Cb/Cr components (steps 5).  The Fig. 12 calibration
        covers the luma pipeline; chroma adds the HT_2x2/extra-DCT load.
    intra_threshold:
        Quality-manager bound: if a sub-block's best SATD exceeds it, the
        macroblock is flagged for Intra-MB injection.
    count_atoms:
        Also count individual Atom executions (slower; for analysis).
    """

    def __init__(
        self,
        *,
        include_chroma: bool = True,
        intra_threshold: int = 2000,
        count_atoms: bool = False,
        qp: int | None = None,
    ):
        if intra_threshold < 0:
            raise ValueError("intra threshold cannot be negative")
        if qp is not None and not 0 <= qp <= 51:
            raise ValueError("QP must be within [0, 51]")
        self.include_chroma = include_chroma
        self.intra_threshold = intra_threshold
        self.atom_counter = AtomExecutionCounter() if count_atoms else None
        self.qp = qp

    # -- functional path -----------------------------------------------------

    def encode_macroblock(self, mb: MacroblockData) -> EncodedMacroblock:
        """Run the full Fig. 7 flow on one macroblock."""
        si_counts: dict[str, int] = {}

        def bump(name: str, by: int = 1) -> None:
            si_counts[name] = si_counts.get(name, 0) + by

        luma_grid = split_into_4x4(mb.luma)
        coeff_grid: list[list[np.ndarray]] = [[None] * 4 for _ in range(4)]
        level_grid: list[list[np.ndarray]] | None = (
            [[None] * 4 for _ in range(4)] if self.qp is not None else None
        )
        recon: np.ndarray | None = (
            np.zeros((16, 16), dtype=np.int64) if self.qp is not None else None
        )
        best_index: list[int] = []
        best_satd: list[int] = []
        intra = False
        for sub in range(16):
            sy, sx = divmod(sub, 4)
            original = luma_grid[sy][sx]
            satds = []
            for candidate in mb.candidates[sub]:
                satds.append(si_satd_4x4(original, candidate, self.atom_counter))
                bump("SATD_4x4")
            winner = int(np.argmin(satds))
            best_index.append(winner)
            best_satd.append(satds[winner])
            if satds[winner] > self.intra_threshold:
                intra = True
            chosen = mb.candidates[sub][winner]
            res = residual(original, chosen)
            coeff_grid[sy][sx] = si_dct_4x4(res, self.atom_counter)
            bump("DCT_4x4")
            if self.qp is not None:
                # The decoder-in-the-encoder: quantize, rescale, inverse-
                # transform, add the prediction back (reference frames).
                from .quant import quantize_4x4, reconstruct_4x4

                level_grid[sy][sx] = quantize_4x4(
                    coeff_grid[sy][sx], self.qp, intra=True
                )
                rec_res = reconstruct_4x4(coeff_grid[sy][sx], self.qp, intra=True)
                block = np.clip(chosen + rec_res, 0, 255)
                recon[4 * sy : 4 * sy + 4, 4 * sx : 4 * sx + 4] = block
        dc = dc_coefficients(coeff_grid)
        dc_block = si_ht_4x4(dc, self.atom_counter)
        bump("HT_4x4")

        chroma_coeffs: dict[str, list[list[np.ndarray]]] = {}
        chroma_dc: dict[str, np.ndarray] = {}
        if self.include_chroma:
            for name, plane in (("cb", mb.cb), ("cr", mb.cr)):
                grid = split_into_4x4(plane)
                out: list[list[np.ndarray]] = [[None] * 2 for _ in range(2)]
                for i in range(2):
                    for j in range(2):
                        # Chroma blocks are intra-coded here (no ME on
                        # chroma); transform the level-shifted pixels.
                        out[i][j] = si_dct_4x4(grid[i][j] - 128, self.atom_counter)
                        bump("DCT_4x4")
                chroma_coeffs[name] = out
                chroma_dc[name] = si_ht_2x2(dc_coefficients(out), self.atom_counter)
                bump("HT_2x2")

        return EncodedMacroblock(
            luma_coefficients=coeff_grid,
            dc_block=dc_block,
            chroma_coefficients=chroma_coeffs,
            chroma_dc=chroma_dc,
            best_candidate_index=best_index,
            best_satd=best_satd,
            intra_injected=intra,
            si_counts=si_counts,
            reconstructed_luma=recon,
            luma_levels=level_grid,
        )


def macroblock_cycles(
    si_cycles: dict[str, int],
    *,
    include_chroma: bool = False,
    core_overhead: int = CORE_OVERHEAD_CYCLES,
    macroblocks: int = 1,
) -> int:
    """Whole-pipeline cycles given per-SI latencies (the Fig. 12 model).

    ``si_cycles`` maps SI names to the latency of one execution under the
    current RISPP state (software, partial or full hardware).  The total
    is ``macroblocks * (sum over SIs of count * latency + core_overhead)``.
    """
    if macroblocks < 1:
        raise ValueError("need at least one macroblock")
    counts = dict(LUMA_SI_COUNTS)
    if include_chroma:
        for name, n in CHROMA_SI_COUNTS.items():
            counts[name] = counts.get(name, 0) + n
    per_mb = core_overhead
    for name, count in counts.items():
        if name not in si_cycles:
            raise ValueError(f"missing latency for SI {name!r}")
        per_mb += count * si_cycles[name]
    return macroblocks * per_mb
