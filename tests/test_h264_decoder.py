"""The encoder's reconstruction against a decoder that sees only the bits."""

import numpy as np
import pytest

from repro.apps.h264 import synthetic_frame
from repro.apps.h264.intra import encode_intra_frame
from tests.h264_codec import (
    BitWriter,
    decode_intra_frame_bitstream,
    decode_sequence,
    roundtrip_intra_frame,
    serialize_intra_frame,
    serialize_sequence,
    write_ue,
)


class TestCodecRoundTrip:
    @pytest.mark.parametrize("qp", [0, 16, 32, 48])
    def test_decoder_matches_encoder_reconstruction(self, qp):
        frame = synthetic_frame(32, 32, seed=8)
        encoded = encode_intra_frame(frame, qp)
        bits = serialize_intra_frame(encoded, qp)
        decoded, decoded_qp = decode_intra_frame_bitstream(bits.bits)
        assert decoded_qp == qp
        assert (decoded == encoded.reconstructed).all()

    def test_roundtrip_helper(self):
        frame = synthetic_frame(16, 16, seed=1)
        decoded, bits = roundtrip_intra_frame(frame, qp=20)
        assert decoded.shape == frame.shape
        assert bits > 0

    def test_bitstream_size_falls_with_qp(self):
        frame = synthetic_frame(32, 32, seed=8)
        sizes = [roundtrip_intra_frame(frame, qp)[1] for qp in (0, 16, 32, 48)]
        assert sizes == sorted(sizes, reverse=True)

    def test_decoded_quality(self):
        frame = synthetic_frame(32, 32, seed=8)
        decoded, _bits = roundtrip_intra_frame(frame, qp=8)
        err = np.abs(decoded - frame)
        assert err.mean() < 4

    def test_non_square_frames(self):
        frame = synthetic_frame(16, 48, seed=2)
        decoded, _bits = roundtrip_intra_frame(frame, qp=24)
        assert decoded.shape == (16, 48)


class TestSequenceCodec:
    @pytest.fixture(scope="class")
    def frames(self):
        return [synthetic_frame(64, 64, seed=3, shift=s) for s in range(3)]

    def test_sequence_roundtrip_bit_exact(self, frames):
        bits, recons = serialize_sequence(frames, qp=20)
        decoded, qp = decode_sequence(bits.bits)
        assert qp == 20
        assert len(decoded) == 3
        for encoder_view, decoder_view in zip(recons, decoded):
            assert (encoder_view == decoder_view).all()

    def test_decoded_sequence_quality(self, frames):
        bits, _recons = serialize_sequence(frames, qp=12)
        decoded, _qp = decode_sequence(bits.bits)
        # Compare the encoded macroblock region of the last frame.
        diff = np.abs(decoded[-1][16:48, 16:48] - frames[-1][16:48, 16:48])
        assert diff.mean() < 6

    def test_sequence_bits_scale_with_qp(self, frames):
        sizes = [len(serialize_sequence(frames, qp)[0]) for qp in (8, 24, 40)]
        assert sizes == sorted(sizes, reverse=True)

    def test_sequence_validation(self, frames):
        with pytest.raises(ValueError):
            serialize_sequence([], qp=20)
        with pytest.raises(ValueError):
            serialize_sequence(
                [frames[0], np.zeros((32, 32), dtype=np.int64)], qp=20
            )
        bits, _ = serialize_sequence(frames, qp=20)
        with pytest.raises(ValueError):
            decode_sequence(bits.bits[: len(bits.bits) // 3])


class TestBitstreamValidation:
    def test_invalid_qp_rejected(self):
        w = BitWriter()
        write_ue(w, 4)  # 4 block rows
        write_ue(w, 4)
        write_ue(w, 99)  # bad QP
        with pytest.raises(ValueError):
            decode_intra_frame_bitstream(w.bits)

    def test_empty_frame_rejected(self):
        w = BitWriter()
        write_ue(w, 0)
        write_ue(w, 4)
        write_ue(w, 20)
        with pytest.raises(ValueError):
            decode_intra_frame_bitstream(w.bits)

    def test_invalid_mode_rejected(self):
        w = BitWriter()
        write_ue(w, 1)
        write_ue(w, 1)
        write_ue(w, 20)
        write_ue(w, 9)  # mode index out of range
        with pytest.raises(ValueError):
            decode_intra_frame_bitstream(w.bits)

    def test_truncated_stream_rejected(self):
        frame = synthetic_frame(16, 16, seed=3)
        encoded = encode_intra_frame(frame, 20)
        bits = serialize_intra_frame(encoded, 20).bits
        with pytest.raises(ValueError):
            decode_intra_frame_bitstream(bits[: len(bits) // 2])
