"""Reference H.264 transform kernels (golden models).

The paper's Atoms accelerate three transforms (§6, Fig. 9: "There are
three different transforms used in ITU-T H.264 ... 2x2 Hadamard
Transform, 4x4 Integer Transform, and 4x4 Hadamard Transform. The
addition and subtraction flow is identical in all three transforms").
This module holds the pure-numpy kernels the encoder model runs: the
4x4 integer transform, the residual and the SATD cost of motion
estimation.

These are the *optimised software molecules*' functional reference; the
Atom-composed implementations in :mod:`repro.apps.h264.atoms` must be
bit-exact against them.
"""

from __future__ import annotations

import numpy as np

#: Forward 4x4 integer-DCT matrix of H.264 (core transform).
CF4 = np.array(
    [
        [1, 1, 1, 1],
        [2, 1, -1, -2],
        [1, -1, -1, 1],
        [1, -2, 2, -1],
    ],
    dtype=np.int64,
)

#: 4x4 Hadamard matrix (luma-DC transform).
H4 = np.array(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
        [1, -1, 1, -1],
    ],
    dtype=np.int64,
)


def _as_block(block, size: int) -> np.ndarray:
    arr = np.asarray(block, dtype=np.int64)
    if arr.shape != (size, size):
        raise ValueError(f"expected a {size}x{size} block, got shape {arr.shape}")
    return arr


def dct_4x4(block) -> np.ndarray:
    """Forward H.264 4x4 integer transform ``Cf . X . Cf^T``."""
    x = _as_block(block, 4)
    return CF4 @ x @ CF4.T


def residual(original, prediction) -> np.ndarray:
    """Element-wise difference block (the QuadSub Atom's function)."""
    a = np.asarray(original, dtype=np.int64)
    b = np.asarray(prediction, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a - b


def satd_4x4(original, prediction) -> int:
    """4x4 Sum of Absolute Transformed Differences.

    The standard H.264 encoder cost: Hadamard-transform the residual and
    sum the absolute coefficients, halved (the ``(sum + 1) >> 1`` rounding
    of JM/x264 reduced to ``>> 1``; consistent halving on both sides of a
    comparison does not change motion-vector decisions).
    """
    diff = residual(_as_block(original, 4), _as_block(prediction, 4))
    transformed = H4 @ diff @ H4.T
    return int(np.abs(transformed).sum()) >> 1


def dc_coefficients(coeff_blocks) -> np.ndarray:
    """Collect the DC coefficient of each 4x4 coefficient block.

    ``coeff_blocks`` is a 4x4 grid (list of lists) of transformed 4x4
    blocks for the luma HT, or a 2x2 grid for the chroma HT.
    """
    rows = len(coeff_blocks)
    out = np.zeros((rows, rows), dtype=np.int64)
    for i in range(rows):
        if len(coeff_blocks[i]) != rows:
            raise ValueError("DC grid must be square")
        for j in range(rows):
            out[i, j] = np.asarray(coeff_blocks[i][j])[0, 0]
    return out
