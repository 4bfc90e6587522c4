"""Tests for the quantizing encoder: reconstruction and rate-distortion."""

import numpy as np
import pytest

from repro.apps.h264 import EncoderPipeline, macroblock_stream
from repro.runtime import ForecastMonitor


@pytest.fixture(scope="module")
def macroblock():
    return macroblock_stream(1, seed=9)[0]


class TestQuantizingEncoder:
    def test_no_qp_means_no_reconstruction(self, macroblock):
        out = EncoderPipeline().encode_macroblock(macroblock)
        assert out.reconstructed_luma is None
        assert out.luma_levels is None
        with pytest.raises(ValueError):
            out.luma_psnr(macroblock.luma)

    def test_qp_validated(self):
        with pytest.raises(ValueError):
            EncoderPipeline(qp=52)
        with pytest.raises(ValueError):
            EncoderPipeline(qp=-1)

    def test_reconstruction_shape_and_range(self, macroblock):
        out = EncoderPipeline(qp=20).encode_macroblock(macroblock)
        rec = out.reconstructed_luma
        assert rec.shape == (16, 16)
        assert rec.min() >= 0 and rec.max() <= 255
        assert len(out.luma_levels) == 4
        assert out.luma_levels[0][0].shape == (4, 4)

    def test_low_qp_reconstruction_is_nearly_exact(self, macroblock):
        out = EncoderPipeline(qp=0).encode_macroblock(macroblock)
        err = np.abs(out.reconstructed_luma - macroblock.luma).max()
        assert err <= 2

    def test_psnr_decreases_with_qp(self, macroblock):
        psnrs = []
        for qp in (0, 12, 24, 36, 48):
            out = EncoderPipeline(qp=qp).encode_macroblock(macroblock)
            psnrs.append(out.luma_psnr(macroblock.luma))
        assert psnrs == sorted(psnrs, reverse=True)
        assert psnrs[0] > 45  # near-lossless at QP 0
        assert psnrs[-1] < psnrs[0] - 10

    def test_levels_sparser_at_high_qp(self, macroblock):
        def nonzero_levels(qp):
            out = EncoderPipeline(qp=qp).encode_macroblock(macroblock)
            return sum(
                int(np.count_nonzero(out.luma_levels[i][j]))
                for i in range(4)
                for j in range(4)
            )

        # Fewer non-zero levels = fewer bits: the rate side of RD.
        assert nonzero_levels(40) < nonzero_levels(8)

    def test_si_counts_unchanged_by_quantization(self, macroblock):
        plain = EncoderPipeline().encode_macroblock(macroblock)
        quant = EncoderPipeline(qp=24).encode_macroblock(macroblock)
        assert plain.si_counts == quant.si_counts


class TestMonitorHitProbability:
    def test_hit_probability_tracks_misses(self):
        m = ForecastMonitor()
        # Window 1: forecast fires, SI executes -> hit.
        m.forecast_fired("A", "S", 10.0, now=0)
        m.si_executed("A", "S")
        m.forecast_ended("A", "S", now=10)
        # Window 2: forecast fires, nothing executes -> miss.
        m.forecast_fired("A", "S", 10.0, now=20)
        m.forecast_ended("A", "S", now=30)
        stats = m.stats("A", "S")
        assert stats.windows == 2
        assert stats.hit_windows == 1

    def test_probability_defaults_to_one(self):
        # An open window is counted neither as a hit nor as a miss.
        m = ForecastMonitor()
        m.forecast_fired("A", "S", 5.0, now=0)
        stats = m.stats("A", "S")
        assert (stats.windows, stats.hit_windows) == (0, 0)
