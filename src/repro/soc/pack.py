"""Packing helpers: application data <-> 32-bit bus words.

The simulated memories and buses move 32-bit words (the unit the paper's
APIs use: "each task accesses one-hundred 32-bit words").  Applications work
on richer data -- complex OFDM samples, MPEG2 byte streams -- so this module
provides lossless-enough packings:

* complex samples as Q15 fixed-point (real, imag) int16 pairs in one word,
  which is how a fixed-point OFDM modem really ships samples to a DAC;
* byte streams packed big-endian four-to-a-word (MPEG2 bitstreams);
* plain Python ints passed through masked to 32 bits.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

__all__ = [
    "Q15_SCALE",
    "complex_to_words",
    "words_to_complex",
    "complex_to_float_words",
    "float_words_to_complex",
    "bytes_to_words",
    "words_to_bytes",
    "ints_to_words",
    "bits_to_words",
    "words_to_bits",
]

Q15_SCALE = 1 << 15


def _to_q15(values: np.ndarray) -> np.ndarray:
    clipped = np.clip(values, -1.0, 32767.0 / Q15_SCALE)
    return np.round(clipped * Q15_SCALE).astype(np.int64)


def complex_to_words(samples: Sequence[complex]) -> List[int]:
    """Pack complex samples (|re|,|im| <= ~1.0) as Q15 pairs, one per word."""
    array = np.asarray(samples, dtype=np.complex128)
    real = _to_q15(array.real) & 0xFFFF
    imag = _to_q15(array.imag) & 0xFFFF
    words = (real << 16) | imag
    return words.tolist()


def _from_q15(raw: np.ndarray) -> np.ndarray:
    signed = np.where(raw >= 0x8000, raw.astype(np.int64) - 0x10000, raw)
    return signed / Q15_SCALE


def words_to_complex(words: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`complex_to_words`."""
    array = np.asarray(words, dtype=np.int64)
    real = _from_q15((array >> 16) & 0xFFFF)
    imag = _from_q15(array & 0xFFFF)
    return real + 1j * imag


def complex_to_float_words(samples: Sequence[complex]) -> List[int]:
    """Pack complex samples as float32 (re, im) bit patterns: 2 words each.

    This is the packing the OFDM pipeline uses between stages -- lossless to
    single precision, which is what a float C implementation would move.
    """
    array = np.asarray(samples, dtype=np.complex64)
    interleaved = np.empty(2 * len(array), dtype=np.float32)
    interleaved[0::2] = array.real
    interleaved[1::2] = array.imag
    return interleaved.view(np.uint32).tolist()


def float_words_to_complex(words: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`complex_to_float_words`."""
    raw = np.asarray(words, dtype=np.uint32)
    if len(raw) % 2:
        raise ValueError("float-packed complex data needs an even word count")
    interleaved = raw.view(np.float32)
    return (interleaved[0::2] + 1j * interleaved[1::2]).astype(np.complex128)


def bits_to_words(bits: Sequence[int]) -> List[int]:
    """Pack a 0/1 bit sequence 32-to-a-word, MSB first.

    Only each value's low bit counts; a partial last word is zero-filled
    on the right.
    """
    values = np.asarray(bits, dtype=np.int64)
    low_bits = np.zeros(-(-len(values) // 32) * 32, dtype=np.uint8)
    low_bits[: len(values)] = values & 1
    return np.packbits(low_bits).view(">u4").tolist()


def words_to_bits(words: Sequence[int], n_bits: int) -> List[int]:
    """Inverse of :func:`bits_to_words`: the first ``n_bits`` bits, MSB
    first (every bit when ``n_bits`` is not positive)."""
    raw = (np.asarray(words, dtype=np.int64) & 0xFFFFFFFF).astype(">u4")
    bits = np.unpackbits(raw.view(np.uint8))
    if len(bits) < n_bits:
        raise ValueError("not enough words for %d bits" % n_bits)
    if n_bits > 0:
        bits = bits[:n_bits]
    return bits.tolist()


def bytes_to_words(data: bytes) -> List[int]:
    """Pack a byte string big-endian, zero-padded to a word boundary."""
    padded = data + b"\x00" * (-len(data) % 4)
    return np.frombuffer(padded, dtype=">u4").tolist()


def words_to_bytes(words: Iterable[int], length: int) -> bytes:
    """Inverse of :func:`bytes_to_words`; ``length`` trims the padding."""
    chunks = [int(word).to_bytes(4, "big") for word in words]
    return b"".join(chunks)[:length]


def ints_to_words(values: Iterable[int]) -> List[int]:
    """Mask arbitrary ints to unsigned 32-bit bus words."""
    return [int(value) & 0xFFFFFFFF for value in values]
