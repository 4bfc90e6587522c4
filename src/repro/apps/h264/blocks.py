"""Block utilities: macroblock slicing and pixel handling."""

from __future__ import annotations

import numpy as np

MACROBLOCK_SIZE = 16
SUBBLOCK_SIZE = 4
CHROMA_SIZE = 8


def split_into_4x4(block) -> list[list[np.ndarray]]:
    """Split an NxN block (N multiple of 4) into a grid of 4x4 sub-blocks."""
    arr = np.asarray(block, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square block")
    n = arr.shape[0]
    if n % SUBBLOCK_SIZE:
        raise ValueError("block size must be a multiple of 4")
    grid = n // SUBBLOCK_SIZE
    return [
        [
            arr[
                i * SUBBLOCK_SIZE : (i + 1) * SUBBLOCK_SIZE,
                j * SUBBLOCK_SIZE : (j + 1) * SUBBLOCK_SIZE,
            ]
            for j in range(grid)
        ]
        for i in range(grid)
    ]


def extract_block(frame: np.ndarray, top: int, left: int, size: int) -> np.ndarray:
    """Cut a ``size`` x ``size`` window out of a frame; bounds-checked."""
    h, w = frame.shape
    if not (0 <= top and top + size <= h and 0 <= left and left + size <= w):
        raise ValueError(
            f"block ({top},{left},{size}) out of frame bounds {frame.shape}"
        )
    return np.asarray(frame[top : top + size, left : left + size], dtype=np.int64)
