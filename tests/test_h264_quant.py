"""Tests for the H.264 quantization/rescale/inverse-transform chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps.h264 import dct_4x4
from repro.apps.h264.quant import (
    MAX_QP,
    dequantize_4x4,
    inverse_dct_4x4,
    position_class,
    quantize_4x4,
    reconstruct_4x4,
)

pixel_blocks = arrays(np.int64, (4, 4), elements=st.integers(-255, 255))


class TestPositionClass:
    def test_corner_positions(self):
        assert position_class(0, 0) == 0
        assert position_class(2, 2) == 0
        assert position_class(1, 1) == 1
        assert position_class(3, 3) == 1
        assert position_class(0, 1) == 2
        assert position_class(2, 1) == 2

    def test_class_counts(self):
        classes = [position_class(i, j) for i in range(4) for j in range(4)]
        assert classes.count(0) == 4
        assert classes.count(1) == 4
        assert classes.count(2) == 8


class TestQuantization:
    def test_zero_block_stays_zero(self):
        z = quantize_4x4(np.zeros((4, 4)), 20)
        assert (z == 0).all()
        assert (dequantize_4x4(z, 20) == 0).all()

    def test_sign_preserved(self):
        w = np.array([[1000, -1000, 0, 0]] * 4)
        z = quantize_4x4(w, 10)
        assert z[0, 0] > 0 and z[0, 1] < 0

    def test_higher_qp_coarser_levels(self):
        w = dct_4x4(np.full((4, 4), 100))
        fine = np.abs(quantize_4x4(w, 0)).sum()
        coarse = np.abs(quantize_4x4(w, 40)).sum()
        assert coarse < fine

    def test_qp_validated(self):
        w = np.zeros((4, 4))
        with pytest.raises(ValueError):
            quantize_4x4(w, -1)
        with pytest.raises(ValueError):
            quantize_4x4(w, MAX_QP + 1)
        with pytest.raises(ValueError):
            dequantize_4x4(w, 99)

    def test_block_shape_validated(self):
        with pytest.raises(ValueError):
            quantize_4x4(np.zeros((2, 2)), 10)

    def test_intra_vs_inter_rounding(self):
        w = np.full((4, 4), 7)
        intra = quantize_4x4(w, 30, intra=True)
        inter = quantize_4x4(w, 30, intra=False)
        # The intra offset rounds more aggressively upward.
        assert (intra >= inter).all()


class TestReconstruction:
    @given(pixel_blocks)
    @settings(max_examples=40)
    def test_lossless_at_qp0_within_one(self, x):
        rec = reconstruct_4x4(dct_4x4(x), 0)
        assert np.abs(rec - x).max() <= 1

    @given(pixel_blocks, st.integers(0, 42))
    @settings(max_examples=60)
    def test_error_bounded_by_quant_step(self, x, qp):
        rec = reconstruct_4x4(dct_4x4(x), qp)
        # Worst-case spatial error stays within ~2 quantizer steps.
        qstep = (0.625, 0.6875, 0.8125, 0.875, 1.0, 1.125)[qp % 6] * (1 << (qp // 6))
        bound = 2 * qstep + 1
        assert np.abs(rec - x).max() <= bound

    def test_error_grows_monotonically_with_qp(self):
        rng = np.random.default_rng(3)
        blocks = [rng.integers(-255, 256, (4, 4)) for _ in range(30)]
        errors = []
        for qp in (0, 12, 24, 36, 48):
            err = max(
                int(np.abs(reconstruct_4x4(dct_4x4(b), qp) - b).max())
                for b in blocks
            )
            errors.append(err)
        assert errors == sorted(errors)
        assert errors[0] <= 1

    def test_inverse_transform_of_dc_only(self):
        # A rescaled pure-DC block reconstructs to a flat block.
        w = np.zeros((4, 4), dtype=np.int64)
        w[0, 0] = 64 * 10  # DC of a flat block of 10s, pre-scaled by 64
        rec = inverse_dct_4x4(w)
        assert (rec == 10).all()

    def test_inverse_shape_validated(self):
        with pytest.raises(ValueError):
            inverse_dct_4x4(np.zeros((3, 3)))
