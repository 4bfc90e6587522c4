"""Bitstream writer, reader and decoder for the H.264 encoder model (a test oracle).

The encoder in :mod:`repro.apps.h264` only counts the bits of its
run-level code (``block_bits``).  This module writes and reads those
bits, so tests can check two things against it: that ``block_bits`` is
the length of the real code, and that a decoder given nothing but the
bits reproduces the encoder's reconstruction bit for bit (what keeps
closed-loop prediction drift-free).

Intra-frame layout::

    ue(height/4) ue(width/4) ue(qp)
    per 4x4 block in raster order: ue(mode index into MODES)  levels

A sequence adds ``ue(n_frames)`` to the header; frame 0 is intra as
above, and each later frame codes, per macroblock position and 4x4
sub-block, ``ue(candidate index)  levels``.  The decoder recomputes the
candidate windows from the reference frame exactly as the encoder's
motion search enumerated them, so candidate indices are a complete
motion representation.
"""

from __future__ import annotations

import numpy as np

from repro.apps.h264.encoder import EncoderPipeline
from repro.apps.h264.entropy import ZIGZAG_4x4, zigzag_scan
from repro.apps.h264.intra import MODES, IntraFrameResult, encode_intra_frame, intra_predict_4x4
from repro.apps.h264.quant import dequantize_4x4, inverse_dct_4x4
from repro.apps.h264.sequence import _encodable_positions
from repro.apps.h264.workload import build_macroblock, candidate_offsets


class BitWriter:
    """Append-only bit buffer."""

    def __init__(self) -> None:
        self.bits: list[int] = []

    def write_bit(self, bit: int) -> None:
        if bit not in (0, 1):
            raise ValueError("a bit is 0 or 1")
        self.bits.append(bit)

    def write_bits(self, value: int, width: int) -> None:
        if width < 0 or value < 0 or value >= (1 << width):
            raise ValueError(f"value {value} does not fit {width} bits")
        for shift in range(width - 1, -1, -1):
            self.bits.append((value >> shift) & 1)

    def __len__(self) -> int:
        return len(self.bits)


class BitReader:
    """Sequential reader over a bit list."""

    def __init__(self, bits: list[int]) -> None:
        self.bits = list(bits)
        self.position = 0

    def read_bit(self) -> int:
        if self.position >= len(self.bits):
            raise ValueError("bitstream exhausted")
        bit = self.bits[self.position]
        self.position += 1
        return bit

    def read_bits(self, width: int) -> int:
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

    def exhausted(self) -> bool:
        return self.position >= len(self.bits)


def write_ue(writer: BitWriter, value: int) -> None:
    """Unsigned Exp-Golomb: ``value`` >= 0 as [zeros][1][info]."""
    if value < 0:
        raise ValueError("ue(v) encodes non-negative integers")
    code = value + 1
    width = code.bit_length()
    for _ in range(width - 1):
        writer.write_bit(0)
    writer.write_bits(code, width)


def read_ue(reader: BitReader) -> int:
    zeros = 0
    while reader.read_bit() == 0:
        zeros += 1
        if zeros > 64:
            raise ValueError("malformed Exp-Golomb code")
    info = reader.read_bits(zeros)
    return (1 << zeros) - 1 + info


def write_se(writer: BitWriter, value: int) -> None:
    """Signed Exp-Golomb via the standard's zigzag mapping."""
    write_ue(writer, 2 * value - 1 if value > 0 else -2 * value)


def read_se(reader: BitReader) -> int:
    mapped = read_ue(reader)
    magnitude = (mapped + 1) // 2
    return magnitude if mapped % 2 == 1 else -magnitude


def inverse_zigzag(values: list[int]) -> np.ndarray:
    if len(values) != 16:
        raise ValueError("a 4x4 scan has 16 values")
    out = np.zeros((4, 4), dtype=np.int64)
    for value, (i, j) in zip(values, ZIGZAG_4x4):
        out[i, j] = value
    return out


def encode_block(block, writer: BitWriter | None = None) -> BitWriter:
    """Run-level code one quantized 4x4 block.

    Format: ue(number of non-zero levels), then per non-zero coefficient
    in scan order: ue(run of preceding zeros), se(level).
    """
    writer = writer if writer is not None else BitWriter()
    nonzero = [(i, v) for i, v in enumerate(zigzag_scan(block)) if v != 0]
    write_ue(writer, len(nonzero))
    previous = -1
    for index, value in nonzero:
        write_ue(writer, index - previous - 1)
        write_se(writer, value)
        previous = index
    return writer


def decode_block(reader: BitReader) -> np.ndarray:
    """Inverse of :func:`encode_block`."""
    count = read_ue(reader)
    if count > 16:
        raise ValueError("a 4x4 block has at most 16 coefficients")
    scan = [0] * 16
    position = -1
    for _ in range(count):
        position += read_ue(reader) + 1
        if position >= 16:
            raise ValueError("run-level data overruns the block")
        scan[position] = read_se(reader)
    return inverse_zigzag(scan)


def _write_header(writer: BitWriter, shape: tuple[int, int], qp: int, *extra: int) -> None:
    for value in (shape[0] // 4, shape[1] // 4, qp, *extra):
        write_ue(writer, value)


def _read_header(reader: BitReader, *, sequence: bool) -> tuple[int, int, int, int]:
    block_rows, block_cols, qp = read_ue(reader), read_ue(reader), read_ue(reader)
    n_frames = read_ue(reader) if sequence else 1
    if 0 in (block_rows, block_cols, n_frames):
        raise ValueError("empty frame")
    if qp > 51:
        raise ValueError("invalid QP in bitstream")
    return block_rows, block_cols, qp, n_frames


def _write_intra(writer: BitWriter, result: IntraFrameResult) -> None:
    height, width = result.reconstructed.shape
    for block_row in range(height // 4):
        for block_col in range(width // 4):
            key = (block_row, block_col)
            write_ue(writer, MODES.index(result.modes[key]))
            encode_block(result.levels[key], writer)


def _read_intra(reader: BitReader, block_rows: int, block_cols: int, qp: int) -> np.ndarray:
    """Causal intra reconstruction from decoded data only."""
    recon = np.zeros((4 * block_rows, 4 * block_cols), dtype=np.int64)
    for block_row in range(block_rows):
        for block_col in range(block_cols):
            mode_index = read_ue(reader)
            if mode_index >= len(MODES):
                raise ValueError("invalid intra mode in bitstream")
            levels = decode_block(reader)
            top_px, left_px = 4 * block_row, 4 * block_col
            top = recon[top_px - 1, left_px : left_px + 4] if top_px else None
            left = recon[top_px : top_px + 4, left_px - 1] if left_px else None
            prediction = intra_predict_4x4(MODES[mode_index], top, left)
            residual = inverse_dct_4x4(dequantize_4x4(levels, qp))
            recon[top_px : top_px + 4, left_px : left_px + 4] = np.clip(
                prediction + residual, 0, 255
            )
    return recon


def serialize_intra_frame(result: IntraFrameResult, qp: int) -> BitWriter:
    """Serialise an encoded intra frame (modes + quantized levels)."""
    writer = BitWriter()
    _write_header(writer, result.reconstructed.shape, qp)
    _write_intra(writer, result)
    return writer


def decode_intra_frame_bitstream(bits: list[int]) -> tuple[np.ndarray, int]:
    """Decode a frame from its serialized bits; returns (frame, qp)."""
    reader = BitReader(bits)
    block_rows, block_cols, qp, _ = _read_header(reader, sequence=False)
    return _read_intra(reader, block_rows, block_cols, qp), qp


def roundtrip_intra_frame(frame, qp: int) -> tuple[np.ndarray, int]:
    """Encode, serialise, decode; returns (decoded frame, bitstream bits)."""
    encoded = encode_intra_frame(frame, qp)
    bitstream = serialize_intra_frame(encoded, qp)
    decoded, decoded_qp = decode_intra_frame_bitstream(bitstream.bits)
    assert decoded_qp == qp, "QP corrupted in the bitstream"
    assert (decoded == encoded.reconstructed).all(), "decoder drifted from the encoder"
    return decoded, len(bitstream)


def serialize_sequence(frames: list, qp: int) -> tuple[BitWriter, list[np.ndarray]]:
    """Encode a whole sequence to bits; returns (bitstream, reconstructions).

    Frame 0 is intra-coded; later frames are motion-compensated against
    the reconstructed predecessor.  The returned reconstructions are what
    any decoder of these bits must reproduce bit-exactly.
    """
    if not frames:
        raise ValueError("need at least one frame")
    frames = [np.asarray(f, dtype=np.int64) for f in frames]
    if any(f.shape != frames[0].shape for f in frames):
        raise ValueError("all frames must share one shape")
    positions = _encodable_positions(*frames[0].shape)
    if not positions:
        raise ValueError("frames too small to encode any macroblock")

    writer = BitWriter()
    _write_header(writer, frames[0].shape, qp, len(frames))
    intra = encode_intra_frame(frames[0], qp)
    _write_intra(writer, intra)
    recons = [intra.reconstructed]
    pipeline = EncoderPipeline(qp=qp)
    for frame in frames[1:]:
        recon = recons[-1].copy()  # un-coded margins repeat the reference
        for top, left in positions:
            out = pipeline.encode_macroblock(build_macroblock(frame, recons[-1], top, left))
            for sub in range(16):
                write_ue(writer, out.best_candidate_index[sub])
                encode_block(out.luma_levels[sub // 4][sub % 4], writer)
            recon[top : top + 16, left : left + 16] = out.reconstructed_luma
        recons.append(recon)
    return writer, recons


def decode_sequence(bits: list[int]) -> tuple[list[np.ndarray], int]:
    """Decode a full sequence from its bits alone; returns (frames, qp)."""
    reader = BitReader(bits)
    block_rows, block_cols, qp, n_frames = _read_header(reader, sequence=True)
    height, width = 4 * block_rows, 4 * block_cols
    frames = [_read_intra(reader, block_rows, block_cols, qp)]
    positions, offsets = _encodable_positions(height, width), candidate_offsets()
    for _frame in range(1, n_frames):
        reference = frames[-1]
        out = reference.copy()
        for top, left in positions:
            for sub in range(16):
                y, x = top + 4 * (sub // 4), left + 4 * (sub % 4)
                index = read_ue(reader)
                if index >= len(offsets):
                    raise ValueError("invalid motion candidate in bitstream")
                levels = decode_block(reader)
                # the encoder's candidate window, clamped into the frame
                dy, dx = offsets[index]
                cy = min(max(y + dy, 0), height - 4)
                cx = min(max(x + dx, 0), width - 4)
                prediction = reference[cy : cy + 4, cx : cx + 4]
                residual = inverse_dct_4x4(dequantize_4x4(levels, qp))
                out[y : y + 4, x : x + 4] = np.clip(prediction + residual, 0, 255)
        frames.append(out)
    return frames, qp
