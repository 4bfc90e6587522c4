"""H.264 quantization / rescaling and the inverse core transform.

Completes the TQ (Transform and Quantization) hot-spot group of Fig. 1:
the standard's multiplier (MF) and rescale (V) tables, the QP-dependent
quantization of 4x4 coefficient blocks, and the inverse integer transform
the decoder-in-the-encoder uses to build reference frames.  The pair is
exact in the H.264 sense: reconstruction error is bounded by the
quantization step (error <= 1 at QP 0, doubling every 6 QP).
"""

from __future__ import annotations

import numpy as np

#: Quantization multipliers MF[qp % 6][position class] (FIPS-agnostic,
#: H.264 §8.5/JM tables).
MF = (
    (13107, 5243, 8066),
    (11916, 4660, 7490),
    (10082, 4194, 6554),
    (9362, 3647, 5825),
    (8192, 3355, 5243),
    (7282, 2893, 4559),
)

#: Rescale factors V[qp % 6][position class].
V = (
    (10, 16, 13),
    (11, 18, 14),
    (13, 20, 16),
    (14, 23, 18),
    (16, 25, 20),
    (18, 29, 23),
)

MAX_QP = 51


def position_class(i: int, j: int) -> int:
    """The three scaling classes of a 4x4 coefficient position."""
    if i % 2 == 0 and j % 2 == 0:
        return 0
    if i % 2 == 1 and j % 2 == 1:
        return 1
    return 2


def _check_qp(qp: int) -> None:
    if not 0 <= qp <= MAX_QP:
        raise ValueError(f"QP must be within [0, {MAX_QP}], got {qp}")


def _check_block(block) -> np.ndarray:
    arr = np.asarray(block, dtype=np.int64)
    if arr.shape != (4, 4):
        raise ValueError(f"expected a 4x4 coefficient block, got {arr.shape}")
    return arr


def quantize_4x4(coefficients, qp: int, *, intra: bool = True) -> np.ndarray:
    """Quantize forward-transform coefficients at quantization parameter ``qp``.

    ``Z = sign(W) * ((|W| * MF + f) >> (15 + qp/6))`` with the standard's
    intra (1/3) or inter (1/6) rounding offset.
    """
    _check_qp(qp)
    w = _check_block(coefficients)
    qbits = 15 + qp // 6
    f = (1 << qbits) // (3 if intra else 6)
    z = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        for j in range(4):
            mf = MF[qp % 6][position_class(i, j)]
            magnitude = (abs(int(w[i, j])) * mf + f) >> qbits
            z[i, j] = int(np.sign(w[i, j])) * magnitude
    return z


def dequantize_4x4(levels, qp: int) -> np.ndarray:
    """Rescale quantized levels: ``W' = Z * V << (qp / 6)``."""
    _check_qp(qp)
    z = _check_block(levels)
    w = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        for j in range(4):
            w[i, j] = int(z[i, j]) * V[qp % 6][position_class(i, j)] << (qp // 6)
    return w


def _inverse_butterfly(x) -> np.ndarray:
    """The 1-D inverse core transform (with its >>1 half-coefficients)."""
    x0, x1, x2, x3 = (int(v) for v in x)
    e0 = x0 + x2
    e1 = x0 - x2
    e2 = (x1 >> 1) - x3
    e3 = x1 + (x3 >> 1)
    return np.array([e0 + e3, e1 + e2, e1 - e2, e0 - e3], dtype=np.int64)


def inverse_dct_4x4(coefficients) -> np.ndarray:
    """Inverse 4x4 integer transform with the final ``(x + 32) >> 6``.

    Operates on *rescaled* coefficients (:func:`dequantize_4x4` output);
    the scaling chain makes forward -> quant -> rescale -> inverse exact
    up to the quantization step.
    """
    w = _check_block(coefficients)
    rows = np.vstack([_inverse_butterfly(r) for r in w])
    cols = np.vstack([_inverse_butterfly(c) for c in rows.T]).T
    return (cols + 32) >> 6


def reconstruct_4x4(coefficients, qp: int, *, intra: bool = True) -> np.ndarray:
    """The full TQ round trip: quantize, rescale, inverse-transform."""
    levels = quantize_4x4(coefficients, qp, intra=intra)
    return inverse_dct_4x4(dequantize_4x4(levels, qp))
