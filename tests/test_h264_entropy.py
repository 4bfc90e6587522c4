"""Tests for the entropy-coding substrate (zigzag, Exp-Golomb, run-level)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps.h264.entropy import (
    ZIGZAG_4x4,
    block_bits,
    macroblock_bits,
    se_bits,
    ue_bits,
    zigzag_scan,
)
from tests.h264_codec import (
    BitReader,
    BitWriter,
    decode_block,
    encode_block,
    inverse_zigzag,
    read_se,
    read_ue,
    write_se,
    write_ue,
)

level_blocks = arrays(np.int64, (4, 4), elements=st.integers(-200, 200))


class TestBits:
    def test_writer_reader_roundtrip(self):
        w = BitWriter()
        w.write_bits(0b1011, 4)
        w.write_bit(1)
        r = BitReader(w.bits)
        assert r.read_bits(4) == 0b1011
        assert r.read_bit() == 1
        assert r.exhausted()

    def test_writer_validation(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bit(2)
        with pytest.raises(ValueError):
            w.write_bits(4, 2)

    def test_reader_exhaustion(self):
        r = BitReader([1])
        r.read_bit()
        with pytest.raises(ValueError):
            r.read_bit()


class TestExpGolomb:
    def test_known_ue_codes(self):
        # Standard table: 0->1, 1->010, 2->011, 3->00100 ...
        expect = {0: [1], 1: [0, 1, 0], 2: [0, 1, 1], 3: [0, 0, 1, 0, 0]}
        for value, bits in expect.items():
            w = BitWriter()
            write_ue(w, value)
            assert w.bits == bits

    @given(st.integers(0, 100_000))
    def test_ue_roundtrip(self, value):
        w = BitWriter()
        write_ue(w, value)
        assert read_ue(BitReader(w.bits)) == value
        assert len(w) == ue_bits(value)

    @given(st.integers(-50_000, 50_000))
    def test_se_roundtrip(self, value):
        w = BitWriter()
        write_se(w, value)
        assert read_se(BitReader(w.bits)) == value
        assert len(w) == se_bits(value)

    def test_ue_rejects_negative(self):
        with pytest.raises(ValueError):
            write_ue(BitWriter(), -1)
        with pytest.raises(ValueError):
            ue_bits(-1)

    @given(st.integers(0, 10_000))
    def test_code_length_monotone(self, value):
        assert ue_bits(value + 1) >= ue_bits(value)


class TestZigzag:
    def test_scan_order_covers_block(self):
        assert len(set(ZIGZAG_4x4)) == 16

    def test_scan_starts_at_dc(self):
        block = np.zeros((4, 4), dtype=np.int64)
        block[0, 0] = 9
        assert zigzag_scan(block)[0] == 9

    @given(level_blocks)
    def test_scan_roundtrip(self, block):
        assert (inverse_zigzag(zigzag_scan(block)) == block).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            zigzag_scan(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            inverse_zigzag([0] * 5)


class TestRunLevel:
    @given(level_blocks)
    @settings(max_examples=60)
    def test_block_roundtrip(self, block):
        bits = encode_block(block)
        decoded = decode_block(BitReader(bits.bits))
        assert (decoded == block).all()

    @given(level_blocks)
    @settings(max_examples=60)
    def test_block_bits_matches_encoding(self, block):
        assert block_bits(block) == len(encode_block(block))

    def test_zero_block_is_cheapest(self):
        zero_cost = block_bits(np.zeros((4, 4), dtype=np.int64))
        assert zero_cost == 1  # ue(0)
        busy = np.ones((4, 4), dtype=np.int64)
        assert block_bits(busy) > zero_cost

    def test_sparser_blocks_cost_fewer_bits(self):
        dense = np.full((4, 4), 3, dtype=np.int64)
        sparse = np.zeros((4, 4), dtype=np.int64)
        sparse[0, 0] = 3
        assert block_bits(sparse) < block_bits(dense)

    def test_macroblock_bits(self):
        grid = [[np.zeros((4, 4), dtype=np.int64)] * 4 for _ in range(4)]
        assert macroblock_bits(grid) == 16  # 16 empty blocks at 1 bit

    def test_corrupt_stream_rejected(self):
        # Claim 17 coefficients: impossible for a 4x4 block.
        w = BitWriter()
        write_ue(w, 17)
        with pytest.raises(ValueError):
            decode_block(BitReader(w.bits))

    def test_rate_decreases_with_qp(self):
        # Tie-in with TQ: higher QP -> fewer bits for the same content.
        from repro.apps.h264 import dct_4x4
        from repro.apps.h264.quant import quantize_4x4

        rng = np.random.default_rng(11)
        block = rng.integers(-128, 128, (4, 4))
        w = dct_4x4(block)
        bits = [block_bits(quantize_4x4(w, qp)) for qp in (0, 12, 24, 36)]
        assert bits == sorted(bits, reverse=True)
