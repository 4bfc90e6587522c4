"""Entropy-coding costs: zigzag scan, Exp-Golomb lengths, run-level bits.

Completes the rate side of the encoder model: after TQ, quantized levels
are zigzag-scanned and run-level coded with H.264's Exp-Golomb codes
(the standard's CAVLC is table-heavier but rate-equivalent to first
order).  The encoder needs only the length of that code, so this module
counts its bits without writing them; it gives the rate-distortion
experiments *real bits* instead of non-zero counts.
"""

from __future__ import annotations

import numpy as np

#: The 4x4 zigzag scan order (frame coding).
ZIGZAG_4x4: tuple[tuple[int, int], ...] = (
    (0, 0), (0, 1), (1, 0), (2, 0),
    (1, 1), (0, 2), (0, 3), (1, 2),
    (2, 1), (3, 0), (3, 1), (2, 2),
    (1, 3), (2, 3), (3, 2), (3, 3),
)


# -- Exp-Golomb codes ----------------------------------------------------------


def ue_bits(value: int) -> int:
    """Length in bits of ue(value) without materialising it."""
    if value < 0:
        raise ValueError("ue(v) encodes non-negative integers")
    return 2 * (value + 1).bit_length() - 1


def se_bits(value: int) -> int:
    mapped = 2 * value - 1 if value > 0 else -2 * value
    return ue_bits(mapped)


# -- run-level block costs ---------------------------------------------------------


def zigzag_scan(block) -> list[int]:
    arr = np.asarray(block, dtype=np.int64)
    if arr.shape != (4, 4):
        raise ValueError(f"expected a 4x4 block, got {arr.shape}")
    return [int(arr[i, j]) for i, j in ZIGZAG_4x4]


def block_bits(block) -> int:
    """Bit cost of one block without materialising the bitstream."""
    scan = zigzag_scan(block)
    nonzero = [(i, v) for i, v in enumerate(scan) if v != 0]
    bits = ue_bits(len(nonzero))
    previous = -1
    for index, value in nonzero:
        bits += ue_bits(index - previous - 1) + se_bits(value)
        previous = index
    return bits


def macroblock_bits(level_grid) -> int:
    """Bit cost of a 4x4 grid of quantized luma blocks."""
    total = 0
    for row in level_grid:
        for block in row:
            total += block_bits(block)
    return total
