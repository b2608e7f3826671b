"""Tests for data packing helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.soc import pack


class TestQ15:
    def test_roundtrip_small_values(self):
        samples = [0.5 + 0.25j, -0.75 - 0.125j, 0j]
        words = pack.complex_to_words(samples)
        back = pack.words_to_complex(words)
        np.testing.assert_allclose(back, samples, atol=1 / pack.Q15_SCALE)

    def test_clipping(self):
        words = pack.complex_to_words([2.0 + 2.0j])
        back = pack.words_to_complex(words)[0]
        assert back.real <= 1.0 and back.imag <= 1.0

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=0.99, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, samples):
        words = pack.complex_to_words(samples)
        assert all(0 <= w < 2**32 for w in words)
        back = pack.words_to_complex(words)
        np.testing.assert_allclose(back, samples, atol=2 / pack.Q15_SCALE)


class TestFloat32:
    def test_roundtrip_exact_for_float32(self):
        samples = np.array([1.5 - 2.25j, 1e-3 + 4j, -7j], dtype=np.complex64)
        words = pack.complex_to_float_words(samples)
        assert len(words) == 6
        back = pack.float_words_to_complex(words)
        np.testing.assert_array_equal(back.astype(np.complex64), samples)

    def test_odd_word_count_rejected(self):
        with pytest.raises(ValueError):
            pack.float_words_to_complex([1, 2, 3])

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, samples):
        words = pack.complex_to_float_words(samples)
        back = pack.float_words_to_complex(words)
        expected = np.asarray(samples, dtype=np.complex64)
        np.testing.assert_array_equal(back.astype(np.complex64), expected)


class TestBytes:
    def test_roundtrip_with_padding(self):
        data = b"hello world!!"
        words = pack.bytes_to_words(data)
        assert len(words) == 4  # 13 bytes -> 4 words
        assert pack.words_to_bytes(words, len(data)) == data

    def test_empty(self):
        assert pack.bytes_to_words(b"") == []
        assert pack.words_to_bytes([], 0) == b""

    @given(st.binary(min_size=0, max_size=256))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, data):
        words = pack.bytes_to_words(data)
        assert pack.words_to_bytes(words, len(data)) == data


class TestBits:
    def test_roundtrip(self):
        bits = [1, 0, 1, 1] * 10
        words = pack.bits_to_words(bits)
        assert pack.words_to_bits(words, len(bits)) == bits

    def test_partial_word_msb_aligned(self):
        words = pack.bits_to_words([1])
        assert words == [0x80000000]

    def test_too_few_words_raises(self):
        with pytest.raises(ValueError):
            pack.words_to_bits([0], 64)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, bits):
        assert pack.words_to_bits(pack.bits_to_words(bits), len(bits)) == bits


def _bits_to_words_per_bit(bits):
    words, accumulator, count = [], 0, 0
    for bit in bits:
        accumulator = (accumulator << 1) | (int(bit) & 1)
        count += 1
        if count == 32:
            words.append(accumulator)
            accumulator, count = 0, 0
    if count:
        words.append(accumulator << (32 - count))
    return words


def _words_to_bits_per_bit(words, n_bits):
    bits = []
    for word in words:
        for shift in range(31, -1, -1):
            bits.append((int(word) >> shift) & 1)
            if len(bits) == n_bits:
                return bits
    if len(bits) < n_bits:
        raise ValueError("not enough words for %d bits" % n_bits)
    return bits


def _assert_same_ints(got, expected):
    assert type(got) is list and got == expected
    assert all(type(value) is int for value in got)


class TestMatchesPerElementPacking:
    """The array-built word lists equal element-by-element ones, down to
    the type of every item."""

    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=130))
    @settings(max_examples=40, deadline=None)
    def test_bits(self, bits):
        words = pack.bits_to_words(bits)
        _assert_same_ints(words, _bits_to_words_per_bit(bits))
        _assert_same_ints(pack.bits_to_words(np.array(bits, dtype=np.int64)), words)
        for n_bits in (n for n in (1, len(bits), 32 * len(words)) if 0 < n <= 32 * len(words)):
            _assert_same_ints(
                pack.words_to_bits(words, n_bits), _words_to_bits_per_bit(words, n_bits)
            )

    def test_bits_partial_last_word(self):
        bits = [1, 0, 1] * 15  # 45 bits: one full word and 13 bits
        words = pack.bits_to_words(bits)
        _assert_same_ints(words, _bits_to_words_per_bit(bits))
        assert len(words) == 2 and words[1] & 0x7FFFF == 0

    def test_too_few_words_error(self):
        with pytest.raises(ValueError, match="not enough words for 65 bits"):
            pack.words_to_bits([1, 2], 65)
        with pytest.raises(ValueError, match="not enough words for 65 bits"):
            _words_to_bits_per_bit([1, 2], 65)

    @given(st.binary(max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_bytes(self, data):
        padded = data + b"\x00" * (-len(data) % 4)
        expected = [
            int.from_bytes(padded[index : index + 4], "big")
            for index in range(0, len(padded), 4)
        ]
        _assert_same_ints(pack.bytes_to_words(data), expected)

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_complex(self, samples):
        array = np.asarray(samples, dtype=np.complex128)
        real = pack._to_q15(array.real) & 0xFFFF
        imag = pack._to_q15(array.imag) & 0xFFFF
        _assert_same_ints(
            pack.complex_to_words(samples), [int(word) for word in (real << 16) | imag]
        )
        single = np.asarray(samples, dtype=np.complex64)
        interleaved = np.empty(2 * len(single), dtype=np.float32)
        interleaved[0::2] = single.real
        interleaved[1::2] = single.imag
        _assert_same_ints(
            pack.complex_to_float_words(samples),
            [int(word) for word in interleaved.view(np.uint32)],
        )


class TestInts:
    def test_masking(self):
        assert pack.ints_to_words([2**33 + 7, -1]) == [7, 0xFFFFFFFF]
