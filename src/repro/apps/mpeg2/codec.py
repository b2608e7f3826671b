"""Compact MPEG2-profile encoder and decoder.

This is the substitute for the 8788-line MSSG reference decoder the paper
used (DESIGN.md section 3): a real block-transform video codec with the
same stream structure the experiment depends on --

* a **sequence header** (picture size, frame-rate code, quantizer scale),
* **GOPs** of one Intra frame followed by one Predictive frame
  (Figure 27a: "each I frame is followed by a P frame, and a GOP is
  composed of two frames"),
* per-picture 4:2:0 macroblocks: 4 luma + 2 chroma 8x8 blocks,
* zig-zag scanned, quantized DCT coefficients with run-length/Exp-Golomb
  entropy coding; P-frames carry per-macroblock motion vectors found by a
  real +/-2-pixel search and code the motion-compensated residual.

GOPs are *closed* (the P frame predicts only from the I frame of its own
GOP), which is what makes the functional-parallel distribution of Figure 27
legal: any BAN can decode any GOP independently.

Pictures are 16x16 by default ("because of the limitation of simulation
speed" -- section VI.A.3), i.e. exactly one macroblock per picture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .bitstream import (
    BitReader,
    BitWriter,
    END_CODE,
    GOP_START,
    PICTURE_START,
    SEQUENCE_START,
)
from .dct import BLOCK, dct2, dezigzag, idct2, zigzag
from .quant import dequantize, quantize

__all__ = [
    "SequenceHeader",
    "Frame",
    "Gop",
    "encode_sequence",
    "decode_sequence",
    "decode_gop_payloads",
    "split_stream",
    "synthetic_video",
    "synthetic_stream",
    "sequence_header",
    "psnr",
    "DecodeStats",
]

MV_RANGE = 4  # motion search range in pixels


@dataclass
class SequenceHeader:
    width: int = 16
    height: int = 16
    frame_rate_code: int = 3  # 25 fps in MPEG2's table
    quantizer_scale: int = 4

    def validate(self) -> None:
        if self.width % 16 or self.height % 16:
            raise ValueError("picture size must be a multiple of 16")
        if not 1 <= self.quantizer_scale <= 31:
            raise ValueError("quantizer_scale outside [1, 31]")


@dataclass
class Frame:
    """One decoded 4:2:0 picture."""

    y: np.ndarray
    cb: np.ndarray
    cr: np.ndarray
    picture_type: str = "I"

    def planes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.y, self.cb, self.cr


@dataclass
class Gop:
    index: int
    frames: List[Frame] = field(default_factory=list)


@dataclass
class DecodeStats:
    """Operation counts the simulation drivers turn into instruction costs."""

    pictures: int = 0
    blocks: int = 0
    coefficients: int = 0
    motion_blocks: int = 0

    def merge(self, other: "DecodeStats") -> None:
        self.pictures += other.pictures
        self.blocks += other.blocks
        self.coefficients += other.coefficients
        self.motion_blocks += other.motion_blocks


# ----------------------------------------------------------------------
# Synthetic input video
# ----------------------------------------------------------------------


def synthetic_video(
    frames: int,
    width: int = 16,
    height: int = 16,
    seed: int = 0x2B,
) -> List[Frame]:
    """Deterministic moving-gradient video with mild noise."""
    rng = np.random.default_rng(seed)
    out: List[Frame] = []
    yy, xx = np.mgrid[0:height, 0:width]
    for t in range(frames):
        y = (
            128
            + 64 * np.sin(2 * np.pi * (xx + 3 * t) / width)
            + 32 * np.cos(2 * np.pi * (yy + 2 * t) / height)
            + rng.normal(0, 1, (height, width))
        )
        cb = 128 + 32 * np.sin(2 * np.pi * (xx[::2, ::2] + t) / width)
        cr = 128 - 32 * np.cos(2 * np.pi * (yy[::2, ::2] + t) / height)
        out.append(
            Frame(
                np.clip(y, 0, 255).round(),
                np.clip(cb, 0, 255).round(),
                np.clip(cr, 0, 255).round(),
            )
        )
    return out


@lru_cache(maxsize=None)
def synthetic_stream(frames: int) -> bytes:
    """``encode_sequence(synthetic_video(frames))``, encoded once per process."""
    return encode_sequence(synthetic_video(frames))


def psnr(reference: np.ndarray, decoded: np.ndarray) -> float:
    mse = float(np.mean((np.asarray(reference, float) - np.asarray(decoded, float)) ** 2))
    if mse == 0:
        return float("inf")
    return 10 * np.log10(255.0 * 255.0 / mse)


# ----------------------------------------------------------------------
# Block-layer coding
# ----------------------------------------------------------------------


def _encode_block(
    writer: BitWriter, pixels: np.ndarray, intra: bool, quantizer_scale: int
) -> None:
    source = np.asarray(pixels, dtype=np.float64)
    if intra:
        source = source - 128.0
    levels = quantize(dct2(source), intra, quantizer_scale)
    scan = zigzag(levels)
    # Run-length code: (run of zeros, level), end-of-block marker run=63.
    position = 0
    nonzero = np.nonzero(scan)[0]
    for index in nonzero:
        run = int(index) - position
        writer.write_ue(run)
        writer.write_se(int(scan[index]))
        position = int(index) + 1
    writer.write_ue(63)  # EOB (a run that cannot occur mid-block)
    writer.write_se(0)


def _decode_block(
    reader: BitReader, intra: bool, quantizer_scale: int, stats: DecodeStats
) -> np.ndarray:
    scan = np.zeros(BLOCK * BLOCK, dtype=np.int64)
    position = 0
    while True:
        run = reader.read_ue()
        level = reader.read_se()
        if run == 63 and level == 0:
            break
        position += run
        if position >= BLOCK * BLOCK:
            raise ValueError("run-length overruns the block")
        scan[position] = level
        position += 1
        stats.coefficients += 1
    block = idct2(dequantize(dezigzag(scan), intra, quantizer_scale))
    stats.blocks += 1
    if intra:
        block = block + 128.0
    return block


def _iter_blocks(plane: np.ndarray):
    height, width = plane.shape
    for row in range(0, height, BLOCK):
        for column in range(0, width, BLOCK):
            yield row, column


def _motion_search(
    reference: np.ndarray, target: np.ndarray, row: int, column: int
) -> Tuple[int, int]:
    """Full search +/-MV_RANGE around (row, column) on the luma plane."""
    height, width = reference.shape
    block = target[row : row + BLOCK, column : column + BLOCK]
    best = (0, 0)
    best_sad = None
    for dy in range(-MV_RANGE, MV_RANGE + 1):
        for dx in range(-MV_RANGE, MV_RANGE + 1):
            r0, c0 = row + dy, column + dx
            if r0 < 0 or c0 < 0 or r0 + BLOCK > height or c0 + BLOCK > width:
                continue
            candidate = reference[r0 : r0 + BLOCK, c0 : c0 + BLOCK]
            sad = float(np.abs(candidate - block).sum())
            if best_sad is None or sad < best_sad:
                best_sad = sad
                best = (dy, dx)
    return best


# ----------------------------------------------------------------------
# Picture / GOP / sequence layers
# ----------------------------------------------------------------------


def _encode_picture(
    writer: BitWriter,
    header: SequenceHeader,
    frame: Frame,
    reference: Optional[Frame],
) -> None:
    intra = reference is None
    writer.start_code(PICTURE_START)
    writer.write_bits(0 if intra else 1, 2)  # picture_coding_type: I=0, P=1
    for plane_index, (plane, ref_plane) in enumerate(
        zip(frame.planes(), reference.planes() if reference else (None, None, None))
    ):
        for row, column in _iter_blocks(plane):
            target = plane[row : row + BLOCK, column : column + BLOCK]
            if intra:
                _encode_block(writer, target, True, header.quantizer_scale)
            else:
                if plane_index == 0:
                    dy, dx = _motion_search(ref_plane, plane, row, column)
                else:
                    dy, dx = 0, 0  # chroma reuses zero MV in this profile
                writer.write_se(dy)
                writer.write_se(dx)
                predicted = ref_plane[row + dy : row + dy + BLOCK, column + dx : column + dx + BLOCK]
                _encode_block(writer, target - predicted, False, header.quantizer_scale)


def _decode_picture(
    reader: BitReader,
    header: SequenceHeader,
    reference: Optional[Frame],
    stats: DecodeStats,
) -> Frame:
    reader.expect_start_code(PICTURE_START)
    coding_type = reader.read_bits(2)
    intra = coding_type == 0
    if not intra and reference is None:
        raise ValueError("P picture without a reference frame")
    shapes = [
        (header.height, header.width),
        (header.height // 2, header.width // 2),
        (header.height // 2, header.width // 2),
    ]
    planes = []
    for plane_index, shape in enumerate(shapes):
        plane = np.zeros(shape)
        ref_plane = None if intra else reference.planes()[plane_index]
        for row, column in _iter_blocks(plane):
            if intra:
                block = _decode_block(reader, True, header.quantizer_scale, stats)
            else:
                dy = reader.read_se()
                dx = reader.read_se()
                residual = _decode_block(reader, False, header.quantizer_scale, stats)
                predicted = ref_plane[
                    row + dy : row + dy + BLOCK, column + dx : column + dx + BLOCK
                ]
                block = predicted + residual
                stats.motion_blocks += 1
            plane[row : row + BLOCK, column : column + BLOCK] = block
        planes.append(np.clip(plane, 0, 255))
    stats.pictures += 1
    return Frame(planes[0], planes[1], planes[2], "I" if intra else "P")


def encode_sequence(
    video: List[Frame],
    header: Optional[SequenceHeader] = None,
    frames_per_gop: int = 2,
) -> bytes:
    """Encode frames as SH + GOPs of (I, P, ...) pictures (Figure 27a)."""
    if not video:
        raise ValueError("no frames to encode")
    header = header or SequenceHeader(
        width=video[0].y.shape[1], height=video[0].y.shape[0]
    )
    header.validate()
    writer = BitWriter()
    gop_count = (len(video) + frames_per_gop - 1) // frames_per_gop
    for gop_index in range(gop_count):
        # The paper's stream interleaves a Sequence Header before every GOP
        # ("composed of Sequence Headers (SHs) and Group Of Pictures").
        writer.start_code(SEQUENCE_START)
        writer.write_bits(header.width, 12)
        writer.write_bits(header.height, 12)
        writer.write_bits(header.frame_rate_code, 4)
        writer.write_bits(header.quantizer_scale, 5)
        writer.start_code(GOP_START)
        writer.write_bits(gop_index, 10)
        chunk = video[gop_index * frames_per_gop : (gop_index + 1) * frames_per_gop]
        writer.write_bits(len(chunk), 4)
        reference: Optional[Frame] = None
        for frame in chunk:
            _encode_picture(writer, header, frame, reference)
            reference = frame  # closed GOP: P predicts from the I just coded
    writer.start_code(END_CODE)
    return writer.getvalue()


def _decode_sequence_header(reader: BitReader) -> SequenceHeader:
    reader.expect_start_code(SEQUENCE_START)
    header = SequenceHeader(
        width=reader.read_bits(12),
        height=reader.read_bits(12),
        frame_rate_code=reader.read_bits(4),
        quantizer_scale=reader.read_bits(5),
    )
    header.validate()
    return header


def sequence_header(stream: bytes) -> SequenceHeader:
    """The picture size and coding parameters of a stream's first header."""
    return _decode_sequence_header(BitReader(stream))


def decode_sequence(stream: bytes) -> Tuple[List[Gop], DecodeStats]:
    """Decode a whole stream serially (the reference, non-simulated path)."""
    reader = BitReader(stream)
    stats = DecodeStats()
    gops: List[Gop] = []
    while True:
        probe = BitReader(reader.data)
        probe.position = reader.position
        code = probe.next_start_code()
        if code is None or code == END_CODE:
            break
        header = _decode_sequence_header(reader)
        gops.append(_decode_gop(reader, header, stats))
    return gops, stats


def _decode_gop(reader: BitReader, header: SequenceHeader, stats: DecodeStats) -> Gop:
    reader.expect_start_code(GOP_START)
    gop_index = reader.read_bits(10)
    frame_count = reader.read_bits(4)
    gop = Gop(gop_index)
    reference: Optional[Frame] = None
    for _ in range(frame_count):
        frame = _decode_picture(reader, header, reference, stats)
        gop.frames.append(frame)
        reference = frame
    return gop


def split_stream(stream: bytes) -> List[bytes]:
    """Split a stream into per-(SH+GOP) byte chunks (Example 5's unit).

    Each chunk is independently decodable, which is what lets BAN A hand
    "the second SH and GOP" to BAN B in the functional parallel operation.
    """
    boundaries: List[int] = []
    data = stream
    index = 0
    while index + 3 < len(data):
        if data[index] == 0 and data[index + 1] == 0 and data[index + 2] == 1:
            code = data[index + 3]
            if code == SEQUENCE_START:
                boundaries.append(index)
            elif code == END_CODE:
                break
            index += 4
        else:
            index += 1
    boundaries.append(index)  # position of the end code (or stream end)
    return [
        data[start:end] for start, end in zip(boundaries, boundaries[1:])
    ]


def decode_gop_payloads(chunk: bytes) -> Tuple[Gop, DecodeStats]:
    """Decode one SH+GOP chunk produced by :func:`split_stream`."""
    reader = BitReader(chunk)
    stats = DecodeStats()
    header = _decode_sequence_header(reader)
    gop = _decode_gop(reader, header, stats)
    return gop, stats


def iter_decode_chunk(chunk: bytes):
    """Decode one SH+GOP chunk picture by picture.

    Yields ``(gop_index, frame, picture_stats)`` per picture, so the
    simulation driver can charge compute costs (and service communication)
    at picture granularity, like a decoder main loop would.
    """
    reader = BitReader(chunk)
    header = _decode_sequence_header(reader)
    reader.expect_start_code(GOP_START)
    gop_index = reader.read_bits(10)
    frame_count = reader.read_bits(4)
    reference: Optional[Frame] = None
    for _ in range(frame_count):
        stats = DecodeStats()
        frame = _decode_picture(reader, header, reference, stats)
        reference = frame
        yield gop_index, frame, stats
