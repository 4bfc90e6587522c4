"""Behavioural Atom data paths of the H.264 case study (paper §6).

Each function models one execution of one Atom's data path on real data:

* :func:`transform_atom` — the Fig. 9 butterfly: the add/subtract flow
  shared by all three H.264 transforms, with the ``DCT`` shift elements
  (``<< 1``) and the ``HT`` shift elements (``>> 1``) multiplexed in by
  two control signals, making the single Atom reusable for SATD_4x4,
  DCT_4x4, HT_4x4 and HT_2x2.
* :func:`satd_atom` — absolute-value adder tree over four coefficients.
* :func:`quadsub_atom` — four parallel subtractions (residual pairs).
* :func:`pack_atom` — the Pack_LSB_MSB data reorganisation: two 16-bit
  values share one 32-bit register (the paper's storage pattern for
  coefficients), and packing LSB/MSB halves across registers realises
  the row/column transposition between transform passes.

A :class:`AtomExecutionCounter` wraps the functions to count executions
per kind, letting tests verify statements like "each HT_4x4 requires 4
Transform- and 4 Pack-executions" directly.

The functional SI executors (:func:`si_dct_4x4`, :func:`si_ht_4x4`,
:func:`si_ht_2x2`, :func:`si_satd_4x4`, :func:`si_sad_4x4`) run each SI
on real data by composing these data paths — bit-exact against the
reference transforms (tests enforce it).  Their architectural view, the
Table 2 molecule catalogue, is :mod:`repro.apps.h264.sis`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

INT16_MIN = -(1 << 15)
INT16_MAX = (1 << 15) - 1


def _vec4(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.shape != (4,):
        raise ValueError(f"atom data paths are 4 elements wide, got {arr.shape}")
    return arr


def transform_atom(values, *, mode: str, ht_shift: bool = False) -> np.ndarray:
    """One pass of the shared Transform butterfly (Fig. 9).

    Parameters
    ----------
    values:
        Four input coefficients ``(x0, x1, x2, x3)``.
    mode:
        ``"DCT"`` engages the ``<< 1`` shift elements (H.264 integer
        transform row), ``"HT"`` the plain Hadamard butterfly.
    ht_shift:
        In HT mode, additionally apply the ``>> 1`` output shifters
        (used on the second, column pass of HT_4x4 so the 2-D result is
        the standard's ``(H.X.H^T)/2``).

    Returns the four output coefficients ``(y0, y1, y2, y3)``.
    """
    x0, x1, x2, x3 = _vec4(values)
    e0 = x0 + x3
    e1 = x1 + x2
    e2 = x1 - x2
    e3 = x0 - x3
    if mode == "DCT":
        if ht_shift:
            raise ValueError("the >>1 shifters belong to HT mode")
        y = np.array([e0 + e1, (e3 << 1) + e2, e0 - e1, e3 - (e2 << 1)])
    elif mode == "HT":
        y = np.array([e0 + e1, e3 + e2, e0 - e1, e3 - e2])
        if ht_shift:
            y = y >> 1
    else:
        raise ValueError(f"unknown transform mode {mode!r}")
    return y.astype(np.int64)


def satd_atom(values) -> int:
    """Absolute-value adder tree: one partial SATD accumulation."""
    return int(np.abs(_vec4(values)).sum())


def quadsub_atom(originals, predictions) -> np.ndarray:
    """Four parallel 16-bit subtractions (one residual quadruple)."""
    a = _vec4(originals)
    b = _vec4(predictions)
    return a - b


def pack_words(lsb_values, msb_values) -> np.ndarray:
    """Pack pairs of 16-bit values into 32-bit words (LSB | MSB << 16).

    "As the coefficients are not exceeding the 16-bit range we have
    considered the 16-bit storage pattern ... Two 16-bit data values are
    packed into one 32-bit register" (§6).
    """
    lsb = _vec4(lsb_values)
    msb = _vec4(msb_values)
    for arr in (lsb, msb):
        if ((arr < INT16_MIN) | (arr > INT16_MAX)).any():
            raise ValueError("coefficient exceeds the 16-bit storage pattern")
    return ((lsb & 0xFFFF) | ((msb & 0xFFFF) << 16)).astype(np.int64)


def unpack_words(words) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_words`, sign-extending both halves."""
    w = _vec4(words)

    def sign_extend(v: np.ndarray) -> np.ndarray:
        v = v & 0xFFFF
        return np.where(v > INT16_MAX, v - (1 << 16), v).astype(np.int64)

    return sign_extend(w), sign_extend(w >> 16)


def pack_atom(rows: list, column: int) -> np.ndarray:
    """One Pack_LSB_MSB execution: gather column ``column`` of four rows.

    Between the row and column passes of a 4x4 transform the coefficient
    matrix must be transposed; with the 16-bit packed storage pattern one
    Pack execution assembles one column out of the packed row registers.
    Behaviourally: column extraction, bit-exact through a pack/unpack
    round trip.
    """
    if len(rows) != 4:
        raise ValueError("pack operates on the four row vectors")
    if not 0 <= column < 4:
        raise ValueError("column index out of range")
    gathered = []
    for row in rows:
        row = _vec4(row)
        # Route the element through the packed register pair exactly as
        # the hardware would: low half carries even, high half odd lanes.
        packed = pack_words(row[[0, 2, 0, 2]], row[[1, 3, 1, 3]])
        lsb, msb = unpack_words(packed)
        value = lsb[column // 2] if column % 2 == 0 else msb[column // 2]
        gathered.append(value)
    return np.array(gathered, dtype=np.int64)


def load_atom(memory, address: int) -> np.ndarray:
    """Static-fabric Load: fetch four consecutive values."""
    if address < 0 or address + 4 > len(memory):
        raise ValueError("load out of bounds")
    return np.asarray(memory[address : address + 4], dtype=np.int64)


def add_atom(values_a, values_b) -> np.ndarray:
    """Static-fabric Add: four parallel additions."""
    return _vec4(values_a) + _vec4(values_b)


def store_atom(memory, address: int, values) -> None:
    """Static-fabric Store: write four consecutive values."""
    v = _vec4(values)
    if address < 0 or address + 4 > len(memory):
        raise ValueError("store out of bounds")
    memory[address : address + 4] = v


@dataclass
class AtomExecutionCounter:
    """Counts Atom executions while delegating to the behavioural models.

    Used to verify the dataflow requirements the paper states (e.g. one
    HT_4x4 = 4 Transform + 4 Pack executions) and to feed the dataflow
    scheduler with measured execution counts.
    """

    counts: dict[str, int] = field(default_factory=dict)

    def _bump(self, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def transform(self, values, *, mode: str, ht_shift: bool = False) -> np.ndarray:
        self._bump("Transform")
        return transform_atom(values, mode=mode, ht_shift=ht_shift)

    def satd(self, values) -> int:
        self._bump("SATD")
        return satd_atom(values)

    def quadsub(self, originals, predictions) -> np.ndarray:
        self._bump("QuadSub")
        return quadsub_atom(originals, predictions)

    def pack(self, rows: list, column: int) -> np.ndarray:
        self._bump("Pack")
        return pack_atom(rows, column)

    def load(self, memory, address: int) -> np.ndarray:
        self._bump("Load")
        return load_atom(memory, address)

    def add(self, values_a, values_b) -> np.ndarray:
        self._bump("Add")
        return add_atom(values_a, values_b)

    def store(self, memory, address: int, values) -> None:
        self._bump("Store")
        store_atom(memory, address, values)

    def reset(self) -> None:
        self.counts.clear()


# ---------------------------------------------------------------------------
# Functional SI executors (compose the behavioural atoms)
# ---------------------------------------------------------------------------


def _two_pass_transform(
    block, mode: str, counter: AtomExecutionCounter, *, shift_second_pass: bool
) -> np.ndarray:
    """Row pass -> Pack transpose -> column pass, on packed row pairs.

    With the 16-bit storage pattern each Transform execution processes two
    packed rows at once, so a full 4x4 transform costs 4 Transform + 4
    Pack executions — exactly the paper's statement for HT_4x4.
    """
    x = np.asarray(block, dtype=np.int64)
    if x.shape != (4, 4):
        raise ValueError(f"expected a 4x4 block, got {x.shape}")
    # Row pass: 2 packed executions covering 4 rows -> A = X . C^T.
    a = np.zeros((4, 4), dtype=np.int64)
    for pair in range(2):
        for row in (2 * pair, 2 * pair + 1):
            a[row, :] = transforms_butterfly(counter, x[row, :], mode, False, row % 2)
    # Pack transpose: 4 executions, one per column of A.
    columns = [counter.pack(list(a), j) for j in range(4)]
    # Column pass: 2 packed executions covering 4 columns -> Y = C . A.
    y = np.zeros((4, 4), dtype=np.int64)
    for j, col in enumerate(columns):
        y[:, j] = transforms_butterfly(
            counter, col, mode, shift_second_pass, j % 2
        )
    return y


def transforms_butterfly(
    counter: AtomExecutionCounter, vec, mode: str, shift: bool, lane: int
):
    """One 1-D butterfly; lane 0 of a packed pair charges the execution.

    The Transform atom's 32-bit ports carry two 16-bit coefficients, so
    two 1-D butterflies share one atom execution; we count the execution
    on the even lane and ride along on the odd lane.
    """
    if lane == 0:
        return counter.transform(vec, mode=mode, ht_shift=shift)
    # Odd lane: same silicon pass, no extra execution counted.
    return transform_atom(vec, mode=mode, ht_shift=shift)


def si_dct_4x4(residual_block, counter: AtomExecutionCounter | None = None) -> np.ndarray:
    """DCT_4x4 SI: forward 4x4 integer transform of a residual block."""
    counter = counter if counter is not None else AtomExecutionCounter()
    return _two_pass_transform(residual_block, "DCT", counter, shift_second_pass=False)


def si_ht_4x4(dc_block, counter: AtomExecutionCounter | None = None) -> np.ndarray:
    """HT_4x4 SI: 4x4 Hadamard transform of the luma DC coefficients."""
    counter = counter if counter is not None else AtomExecutionCounter()
    return _two_pass_transform(dc_block, "HT", counter, shift_second_pass=True)


def si_ht_2x2(dc_block, counter: AtomExecutionCounter | None = None) -> np.ndarray:
    """HT_2x2 SI: 2x2 Hadamard of the chroma DC coefficients.

    A single Transform execution computes the whole 2x2 transform (the
    four inputs fill the atom's four lanes); the SI "constitutes only one
    Atom" (§6).
    """
    counter = counter if counter is not None else AtomExecutionCounter()
    x = np.asarray(dc_block, dtype=np.int64)
    if x.shape != (2, 2):
        raise ValueError(f"expected a 2x2 block, got {x.shape}")
    y0, y1, y2, y3 = counter.transform(
        [x[0, 0], x[0, 1], x[1, 0], x[1, 1]], mode="HT"
    )
    return np.array([[y0, y3], [y1, y2]], dtype=np.int64)


def si_satd_4x4(
    original, prediction, counter: AtomExecutionCounter | None = None
) -> int:
    """SATD_4x4 SI: Hadamard-transform the residual, sum absolutes, halve.

    Composition per Fig. 8: QuadSub residuals -> Transform (HT rows) ->
    Pack -> Transform (HT columns) -> SATD accumulation.
    """
    counter = counter if counter is not None else AtomExecutionCounter()
    orig = np.asarray(original, dtype=np.int64)
    pred = np.asarray(prediction, dtype=np.int64)
    if orig.shape != (4, 4) or pred.shape != (4, 4):
        raise ValueError("SATD_4x4 operates on 4x4 blocks")
    diff = np.zeros((4, 4), dtype=np.int64)
    for row in range(4):
        diff[row, :] = counter.quadsub(orig[row, :], pred[row, :])
    transformed = _two_pass_transform(diff, "HT", counter, shift_second_pass=False)
    total = 0
    for row in range(4):
        total += counter.satd(transformed[row, :])
    return total >> 1


def si_sad_4x4(
    original, prediction, counter: AtomExecutionCounter | None = None
) -> int:
    """SAD SI: QuadSub + SATD atoms combined (integer-pel ME cost, §6)."""
    counter = counter if counter is not None else AtomExecutionCounter()
    orig = np.asarray(original, dtype=np.int64)
    pred = np.asarray(prediction, dtype=np.int64)
    if orig.shape != (4, 4) or pred.shape != (4, 4):
        raise ValueError("SAD_4x4 operates on 4x4 blocks")
    total = 0
    for row in range(4):
        diff = counter.quadsub(orig[row, :], pred[row, :])
        total += counter.satd(diff)
    return total
