"""Tests for the H.264 reference transforms and behavioural atoms."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps.h264 import (
    AtomExecutionCounter,
    add_atom,
    dc_coefficients,
    dct_4x4,
    load_atom,
    pack_atom,
    pack_words,
    quadsub_atom,
    residual,
    satd_4x4,
    satd_atom,
    store_atom,
    transform_atom,
    unpack_words,
)
from repro.apps.h264.transforms import CF4, H4
from tests.oracles import hadamard_2x2, hadamard_4x4, sad_4x4

blocks_4x4 = arrays(np.int64, (4, 4), elements=st.integers(-255, 255))
pixels_4x4 = arrays(np.int64, (4, 4), elements=st.integers(0, 255))
vec4_int16 = arrays(np.int64, (4,), elements=st.integers(-(2**15), 2**15 - 1))


class TestReferenceTransforms:
    def test_dct_dc_of_flat_block(self):
        # A constant block concentrates all energy in DC: 16 * value.
        y = dct_4x4(np.full((4, 4), 7))
        assert y[0, 0] == 16 * 7
        assert (y.ravel()[1:] == 0).all()

    def test_hadamard_4x4_flat_block(self):
        y = hadamard_4x4(np.full((4, 4), 6))
        assert y[0, 0] == (16 * 6) >> 1
        assert (y.ravel()[1:] == 0).all()

    def test_hadamard_2x2_known_value(self):
        y = hadamard_2x2([[1, 2], [3, 4]])
        assert y[0, 0] == 10
        assert y[0, 1] == -2
        assert y[1, 0] == -4
        assert y[1, 1] == 0

    @given(blocks_4x4)
    def test_dct_is_linear_matrix_product(self, x):
        assert (dct_4x4(x) == CF4 @ x @ CF4.T).all()

    @given(blocks_4x4, blocks_4x4)
    def test_dct_linearity(self, a, b):
        assert (dct_4x4(a + b) == dct_4x4(a) + dct_4x4(b)).all()

    @given(pixels_4x4, pixels_4x4)
    def test_satd_non_negative_and_zero_iff_equal(self, a, b):
        s = satd_4x4(a, b)
        assert s >= 0
        assert satd_4x4(a, a) == 0

    @given(pixels_4x4, pixels_4x4)
    def test_satd_symmetric(self, a, b):
        assert satd_4x4(a, b) == satd_4x4(b, a)

    @given(pixels_4x4, pixels_4x4)
    def test_sad_matches_manual(self, a, b):
        assert sad_4x4(a, b) == int(np.abs(a - b).sum())

    def test_residual_shape_mismatch(self):
        with pytest.raises(ValueError):
            residual(np.zeros((4, 4)), np.zeros((2, 2)))

    def test_block_size_validated(self):
        with pytest.raises(ValueError):
            dct_4x4(np.zeros((3, 3)))

    def test_dc_coefficients(self):
        grid = [[np.full((4, 4), i * 4 + j) for j in range(4)] for i in range(4)]
        dc = dc_coefficients(grid)
        assert dc[2, 3] == 11

    def test_dc_grid_must_be_square(self):
        with pytest.raises(ValueError):
            dc_coefficients([[np.zeros((4, 4))], [np.zeros((4, 4))] * 2])


class TestTransformAtom:
    @given(vec4_int16)
    def test_dct_mode_matches_matrix_rows(self, x):
        y = transform_atom(x, mode="DCT")
        assert (y == CF4 @ x).all()

    @given(vec4_int16)
    def test_ht_mode_matches_hadamard_rows(self, x):
        y = transform_atom(x, mode="HT")
        assert (y == H4 @ x).all()

    @given(vec4_int16)
    def test_ht_shift_halves(self, x):
        assert (
            transform_atom(x, mode="HT", ht_shift=True)
            == (H4 @ x) >> 1
        ).all()

    def test_dct_with_shift_rejected(self):
        with pytest.raises(ValueError):
            transform_atom([1, 2, 3, 4], mode="DCT", ht_shift=True)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            transform_atom([1, 2, 3, 4], mode="FFT")

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            transform_atom([1, 2, 3], mode="HT")


class TestOtherAtoms:
    @given(vec4_int16)
    def test_satd_atom_abs_sum(self, x):
        assert satd_atom(x) == int(np.abs(x).sum())

    @given(vec4_int16, vec4_int16)
    def test_quadsub(self, a, b):
        assert (quadsub_atom(a, b) == a - b).all()

    @given(vec4_int16, vec4_int16)
    def test_pack_unpack_roundtrip(self, lsb, msb):
        packed = pack_words(lsb, msb)
        lo, hi = unpack_words(packed)
        assert (lo == lsb).all()
        assert (hi == msb).all()

    def test_pack_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pack_words([2**15, 0, 0, 0], [0, 0, 0, 0])

    @given(blocks_4x4.filter(lambda b: (np.abs(b) < 2**15).all()))
    def test_pack_atom_extracts_columns(self, block):
        rows = [block[i, :] for i in range(4)]
        for j in range(4):
            assert (pack_atom(rows, j) == block[:, j]).all()

    def test_pack_atom_validation(self):
        rows = [np.zeros(4, dtype=np.int64)] * 4
        with pytest.raises(ValueError):
            pack_atom(rows[:3], 0)
        with pytest.raises(ValueError):
            pack_atom(rows, 4)

    def test_load_add_store(self):
        mem = np.arange(8, dtype=np.int64)
        v = load_atom(mem, 2)
        assert (v == [2, 3, 4, 5]).all()
        w = add_atom(v, [1, 1, 1, 1])
        store_atom(mem, 0, w)
        assert (mem[:4] == [3, 4, 5, 6]).all()
        with pytest.raises(ValueError):
            load_atom(mem, 6)
        with pytest.raises(ValueError):
            store_atom(mem, 7, v)


class TestExecutionCounter:
    def test_counts_all_kinds(self):
        c = AtomExecutionCounter()
        c.transform([1, 2, 3, 4], mode="HT")
        c.satd([1, -2, 3, -4])
        c.quadsub([4, 4, 4, 4], [1, 1, 1, 1])
        c.pack([np.zeros(4, dtype=np.int64)] * 4, 0)
        mem = np.zeros(4, dtype=np.int64)
        c.load(mem, 0)
        c.add([1, 2, 3, 4], [1, 1, 1, 1])
        c.store(mem, 0, [9, 9, 9, 9])
        assert c.counts == {
            "Transform": 1,
            "SATD": 1,
            "QuadSub": 1,
            "Pack": 1,
            "Load": 1,
            "Add": 1,
            "Store": 1,
        }
        c.reset()
        assert c.counts == {}
