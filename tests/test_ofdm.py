"""Tests for the OFDM transmitter application."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.ofdm import (
    OfdmParameters,
    bit_reverse_permute,
    butterfly_count,
    cost,
    fft,
    ifft,
    ifft_butterflies,
    run_ofdm,
    transmit_packet,
)
from repro.apps.ofdm.transmitter import (
    generate_bits,
    insert_guard,
    normalize,
    symbol_map,
    train_pulse,
)
from repro.options import presets
from repro.sim.fabric import build_machine
from repro.sim.pe import ProgramError


class TestFft:
    @pytest.mark.parametrize("n", [2, 8, 64, 256, 2048])
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        np.testing.assert_allclose(ifft(x), np.fft.ifft(x), atol=1e-9)

    def test_forward_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=128) + 1j * rng.normal(size=128)
        np.testing.assert_allclose(fft(x), np.fft.fft(x), atol=1e-9)

    def test_fft_ifft_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        np.testing.assert_allclose(ifft(fft(x)), x, atol=1e-9)

    def test_bit_reverse_is_involution(self):
        x = np.arange(32, dtype=complex)
        np.testing.assert_array_equal(bit_reverse_permute(bit_reverse_permute(x)), x)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            ifft(np.zeros(12))

    def test_butterfly_count(self):
        assert butterfly_count(8) == 12  # 4 * 3
        assert butterfly_count(2048) == 1024 * 11

    def test_unnormalized_butterflies(self):
        """The pipeline's group F output is N times numpy's ifft."""
        x = np.arange(16, dtype=complex)
        raw = ifft_butterflies(bit_reverse_permute(x))
        np.testing.assert_allclose(raw / 16, np.fft.ifft(x), atol=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 64, 2048])
    def test_butterflies_match_per_group_loop(self, n):
        """Each pass runs as one array operation and gives exactly the
        values of a loop over the pass's butterfly groups."""
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        expected = x.copy()
        span = 1
        while span < n:
            step = 2 * span
            twiddles = np.exp(2j * np.pi * np.arange(span) / step)
            for start in range(0, n, step):
                upper = expected[start : start + span].copy()
                lower = expected[start + span : start + step] * twiddles
                expected[start : start + span] = upper + lower
                expected[start + span : start + step] = upper - lower
            span = step
        assert np.array_equal(ifft_butterflies(x), expected)

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=8, deadline=None)
    def test_parseval_property(self, log_n):
        """Energy is conserved (up to the 1/N convention) by the IFFT."""
        n = 2 ** log_n
        rng = np.random.default_rng(log_n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        time_domain = ifft(x)
        np.testing.assert_allclose(
            np.sum(np.abs(time_domain) ** 2) * n, np.sum(np.abs(x) ** 2), rtol=1e-9
        )


class TestTransmitter:
    def test_symbol_map_unit_power(self):
        bits = generate_bits(OfdmParameters(), 0)
        symbols = symbol_map(bits)
        np.testing.assert_allclose(np.abs(symbols), 1.0, atol=1e-12)

    def test_symbol_map_gray_points(self):
        symbols = symbol_map([0, 0, 0, 1, 1, 0, 1, 1])
        assert len(set(np.round(symbols, 6))) == 4

    def test_symbol_map_needs_even_bits(self):
        with pytest.raises(ValueError):
            symbol_map([1])

    def test_guard_is_cyclic_prefix(self):
        data = np.arange(64, dtype=complex)
        packet = insert_guard(data, 16)
        assert len(packet) == 80
        np.testing.assert_array_equal(packet[:16], data[-16:])
        np.testing.assert_array_equal(packet[16:], data)

    def test_guard_too_long_rejected(self):
        with pytest.raises(ValueError):
            insert_guard(np.zeros(8), 9)

    def test_packet_shape(self):
        params = OfdmParameters()
        packet = transmit_packet(params, 0)
        assert len(packet) == 2560  # 2048 + 512 (Figure 24)

    def test_packets_differ_and_are_deterministic(self):
        params = OfdmParameters()
        p0 = transmit_packet(params, 0)
        p1 = transmit_packet(params, 1)
        assert not np.allclose(p0, p1)
        np.testing.assert_array_equal(p0, transmit_packet(params, 0))

    def test_train_pulse_length(self):
        params = OfdmParameters()
        pulse = train_pulse(params)
        assert len(pulse) == 3 * 2560  # Figure 24: 3 x (guard + data)

    def test_normalize(self):
        x = np.full(8, 8.0 + 0j)
        np.testing.assert_allclose(normalize(x), np.ones(8))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            OfdmParameters(data_samples=100).validate()
        with pytest.raises(ValueError):
            OfdmParameters(data_samples=64, guard_samples=64).validate()


class TestCostModel:
    def test_f_stage_dominates(self):
        """Section VI.A.2: the IFFT is the pipeline bottleneck."""
        n = 2048
        f = cost.group_f_instructions(n)
        assert f > cost.group_e_instructions(n)
        assert f > cost.group_g_instructions(n)
        assert f > cost.group_h_instructions(n, 512)

    def test_fpa_ppa_balance(self):
        """E+G+H roughly equals F, giving the paper's ~2x FPA/PPA ratio."""
        n, guard = 2048, 512
        others = (
            cost.group_e_instructions(n)
            + cost.group_g_instructions(n)
            + cost.group_h_instructions(n, guard)
        )
        f = cost.group_f_instructions(n)
        assert 0.7 <= others / f <= 1.3


SMALL = OfdmParameters(data_samples=256, guard_samples=64, packets=2)


class TestSimulatedRuns:
    def _reference(self, params, packets):
        return [transmit_packet(params, index) for index in range(packets)]

    def test_ppa_produces_correct_packets(self):
        machine = build_machine(presets.preset("BFBA", 4))
        result = run_ofdm(machine, "PPA", SMALL)
        assert len(result.outputs) == 2
        for index, packet in enumerate(result.outputs):
            np.testing.assert_allclose(
                packet, transmit_packet(SMALL, index), atol=1e-9
            )

    def test_fpa_produces_correct_packets(self):
        machine = build_machine(presets.preset("GBAVIII", 4))
        result = run_ofdm(machine, "FPA", SMALL)
        assert len(result.outputs) == 2
        produced = {np.round(p, 6).tobytes() for p in result.outputs}
        expected = {
            np.round(transmit_packet(SMALL, i), 6).tobytes() for i in range(2)
        }
        assert produced == expected

    def test_fpa_beyond_the_variable_area_raises(self):
        # FPA keeps two flags per packet in the 64-word variable area, so
        # packet 33's second flag has no word: PE A's program raises, and
        # the run is not timed over the PEs that survived.
        machine = build_machine(presets.preset("GBAVIII", 4))
        with pytest.raises(ProgramError, match="MPC755_A") as raised:
            run_ofdm(machine, "FPA", OfdmParameters(packets=33))
        assert isinstance(raised.value.__cause__, ValueError)
        assert "variable area full" in str(raised.value.__cause__)

    def test_fpa_needs_shared_memory(self):
        machine = build_machine(presets.preset("BFBA", 4))
        with pytest.raises(ValueError):
            run_ofdm(machine, "FPA", SMALL)

    def test_ppa_needs_four_pes(self):
        machine = build_machine(presets.preset("GBAVIII", 2))
        with pytest.raises(ValueError):
            run_ofdm(machine, "PPA", SMALL)

    def test_unknown_style(self):
        machine = build_machine(presets.preset("GBAVIII", 4))
        with pytest.raises(ValueError):
            run_ofdm(machine, "SIMD", SMALL)

    def test_throughput_positive_and_cycles_counted(self):
        machine = build_machine(presets.preset("GBAVIII", 4))
        result = run_ofdm(machine, "FPA", SMALL)
        assert result.cycles > 0
        assert result.throughput_mbps > 0
        assert result.payload_bits == 2 * 256 * 2

    def test_schedule_records_groups(self):
        machine = build_machine(presets.preset("BFBA", 4))
        result = run_ofdm(machine, "PPA", SMALL)
        groups = {group for _ban, group, *_rest in result.schedule}
        assert groups == {"E", "F", "G", "H"}


class TestStagePayloadCheck:
    """PPA's per-stage payload check: ``assert_allclose``'s decision at
    ``rtol = atol = 1e-3`` without importing ``numpy.testing``."""

    @staticmethod
    def _exact():
        rng = np.random.default_rng(7)
        return rng.standard_normal(64) + 1j * rng.standard_normal(64)

    def test_float32_payload_within_tolerance_passes(self):
        from repro.apps.ofdm.mapping import _check_payload

        exact = self._exact()
        received = exact.astype(np.complex64)
        received[3] += 5e-4  # inside atol
        _check_payload(received, exact)

    @pytest.mark.parametrize("perturb", ["value", "nan", "shape"])
    def test_perturbed_payload_raises(self, perturb):
        from repro.apps.ofdm.mapping import _check_payload

        exact = self._exact()
        received = exact.astype(np.complex64)
        if perturb == "value":
            received[5] += 0.01 * (1 + abs(exact[5]))
        elif perturb == "nan":
            received[5] = np.nan
        else:
            received = received[:-1]
        with pytest.raises(AssertionError):
            _check_payload(received, exact)
        if perturb != "shape":
            with pytest.raises(AssertionError):
                np.testing.assert_allclose(received, exact.astype(np.complex64), rtol=1e-3, atol=1e-3)

    def test_ppa_run_does_not_import_numpy_testing(self):
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from repro.experiments.table2 import run_table2\n"
            "run_table2(packets=1, cases=[(1, 'BFBA', 'PPA')], kernel='compiled')\n"
            "print('numpy.testing' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
