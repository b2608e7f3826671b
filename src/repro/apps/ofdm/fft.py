"""Radix-2 decimation-in-time (I)FFT, written out as the hardware-style
pipeline the paper partitions across BANs.

Table I splits the OFDM modulation chain into *bit reversal* (function
group E, BAN A) and the *inverse FFT butterflies* (group F, BAN B), so the
two are exposed separately here: :func:`bit_reverse_permute` reorders the
input, and :func:`ifft_butterflies` runs the in-place butterfly passes on
an already-reordered array.  :func:`ifft` composes them and matches
``numpy.fft.ifft`` (which the tests assert).

Each function also reports an *instruction estimate* used by the PE cost
model; the per-element constants live in :mod:`repro.apps.ofdm.cost`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "is_power_of_two",
    "bit_reverse_indices",
    "bit_reverse_permute",
    "ifft_butterflies",
    "ifft",
    "fft",
    "butterfly_count",
]


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def bit_reverse_indices(n: int) -> np.ndarray:
    """Index permutation reversing log2(n)-bit addresses."""
    if not is_power_of_two(n):
        raise ValueError("FFT size must be a power of two, got %d" % n)
    bits = n.bit_length() - 1
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=np.int64)
    for bit in range(bits):
        reversed_indices |= ((indices >> bit) & 1) << (bits - 1 - bit)
    return reversed_indices


def bit_reverse_permute(data: np.ndarray) -> np.ndarray:
    """Function group E's final step: reorder input for the in-place IFFT."""
    data = np.asarray(data, dtype=np.complex128)
    return data[bit_reverse_indices(len(data))]


def ifft_butterflies(data: np.ndarray) -> np.ndarray:
    """In-place butterfly passes over bit-reversed input (group F).

    Performs the *unnormalized* inverse transform; the 1/N normalization is
    a separate pipeline stage (group G), as in Table I.
    """
    data = np.array(data, dtype=np.complex128)
    n = len(data)
    if not is_power_of_two(n):
        raise ValueError("FFT size must be a power of two, got %d" % n)
    span = 1
    while span < n:
        step = span * 2
        # Twiddles for the inverse transform: positive exponent.
        twiddles = np.exp(2j * np.pi * np.arange(span) / step)
        # One pass, all groups at once: row g holds group g's upper and
        # lower halves, and each half is a contiguous run of ``span``
        # samples, as the per-group slices were.
        groups = data.reshape(n // step, 2, span)
        upper = groups[:, 0]
        lower = groups[:, 1] * twiddles
        np.subtract(upper, lower, out=groups[:, 1])
        upper += lower
        span = step
    return data


def ifft(data: np.ndarray) -> np.ndarray:
    """Full normalized inverse FFT (bit reversal + butterflies + 1/N)."""
    n = len(np.asarray(data))
    return ifft_butterflies(bit_reverse_permute(data)) / n


def fft(data: np.ndarray) -> np.ndarray:
    """Forward transform, via the inverse-transform machinery."""
    data = np.asarray(data, dtype=np.complex128)
    n = len(data)
    return np.conj(ifft(np.conj(data))) * n


def butterfly_count(n: int) -> int:
    """Number of butterflies in a radix-2 transform of size n."""
    if not is_power_of_two(n):
        raise ValueError("FFT size must be a power of two, got %d" % n)
    return (n // 2) * (n.bit_length() - 1)
