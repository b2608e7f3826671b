"""Tests for the parallel MPEG2 decode drivers (shared and relay)."""

import numpy as np
import pytest

from repro.apps.mpeg2 import codec, parallel
from repro.apps.mpeg2.codec import (
    decode_sequence,
    encode_sequence,
    synthetic_stream,
    synthetic_video,
)
from repro.apps.mpeg2.parallel import (
    MSG_WORDS,
    Mpeg2Result,
    _pack_frame,
    _pack_message,
    _unpack_frame,
    _unpack_message,
    gop_assignment,
    run_mpeg2,
)
from repro.experiments import table3
from repro.options import presets
from repro.sim.fabric import build_machine
from repro.sim.pe import ProgramError


@pytest.fixture(scope="module")
def video():
    return synthetic_video(8)


@pytest.fixture(scope="module")
def reference(video):
    gops, _stats = decode_sequence(encode_sequence(video))
    return {
        (gop.index, index): frame
        for gop in gops
        for index, frame in enumerate(gop.frames)
    }


def assert_frames_match(result, reference):
    assert sorted(result.frames) == sorted(reference)
    for key in reference:
        np.testing.assert_allclose(result.frames[key].y, reference[key].y, atol=0.51)
        np.testing.assert_allclose(result.frames[key].cb, reference[key].cb, atol=0.51)
        np.testing.assert_allclose(result.frames[key].cr, reference[key].cr, atol=0.51)


def result_surface(result):
    """Every field of an :class:`Mpeg2Result`, frames as plane bytes."""
    frames = sorted(
        (key, [plane.tobytes() for plane in frame.planes()])
        for key, frame in result.frames.items()
    )
    return (
        result.machine_name,
        result.cycles,
        result.stream_bits,
        result.gops,
        result.frame_payload_bytes,
        result.gop_to_ban,
        result.schedule,
        frames,
    )


class TestMessagePacking:
    def test_message_roundtrip(self):
        words = _pack_message(1, 5, b"payload bytes")
        assert len(words) == MSG_WORDS
        kind, tag, payload = _unpack_message(words)
        assert (kind, tag, payload) == (1, 5, b"payload bytes")

    def test_oversized_payload_rejected(self):
        with pytest.raises(ValueError):
            _pack_message(1, 0, b"x" * (4 * MSG_WORDS))

    def test_frame_roundtrip(self, video):
        frame = video[0]
        back = _unpack_frame(_pack_frame(frame))
        np.testing.assert_allclose(back.y, frame.y, atol=0.51)
        assert back.picture_type == frame.picture_type


class TestGopAssignment:
    def test_round_robin(self):
        assignment = gop_assignment(8, ["A", "B", "C", "D"])
        assert assignment == {
            0: "A", 1: "B", 2: "C", 3: "D", 4: "A", 5: "B", 6: "C", 7: "D",
        }

    def test_fewer_gops_than_bans(self):
        assert gop_assignment(2, ["A", "B", "C", "D"]) == {0: "A", 1: "B"}


@pytest.mark.parametrize("preset_name", ["GBAVIII", "HYBRID", "CCBA", "GGBA", "SPLITBA"])
class TestSharedDriver:
    def test_decode_correct(self, preset_name, video, reference):
        machine = build_machine(presets.preset(preset_name, 4))
        result = run_mpeg2(machine, video)
        assert_frames_match(result, reference)
        assert result.gops == 4
        assert result.throughput_mbps > 0


def test_a_pe_program_that_raises_fails_the_run(video):
    machine = build_machine(presets.preset("GBAVIII", 4))
    # PE D's first instruction fetch goes to a memory that does not exist.
    machine.pe("D").program_device = "NO_SUCH_MEMORY"
    with pytest.raises(ProgramError, match="MPC755_D") as raised:
        run_mpeg2(machine, video)
    assert isinstance(raised.value.__cause__, KeyError)


@pytest.mark.parametrize("preset_name", ["BFBA", "GBAVI"])
class TestRelayDriver:
    def test_decode_correct(self, preset_name, video, reference):
        machine = build_machine(presets.preset(preset_name, 4))
        result = run_mpeg2(machine, video)
        assert_frames_match(result, reference)

    def test_requires_four_pes(self, preset_name, video):
        machine = build_machine(presets.preset(preset_name, 3))
        with pytest.raises(ValueError):
            run_mpeg2(machine, video)


class TestSchedules:
    def test_every_ban_decodes_its_gops(self, video):
        machine = build_machine(presets.preset("GBAVIII", 4))
        result = run_mpeg2(machine, video)
        decoded_by = {}
        for ban, gop_index, _start, _end in result.schedule:
            decoded_by[gop_index] = ban
        assert decoded_by == result.gop_to_ban

    def test_relay_penalty_visible(self, video):
        """The relay driver must be measurably slower (Table III's shape)."""
        shared = run_mpeg2(build_machine(presets.preset("GBAVIII", 4)), video)
        relay = run_mpeg2(build_machine(presets.preset("BFBA", 4)), video)
        assert relay.cycles > 1.1 * shared.cycles


class TestSharedStream:
    """The synthetic input is encoded once per process; a caller's own
    video is encoded for its call."""

    @pytest.fixture
    def encoded(self, monkeypatch):
        """The videos ``encode_sequence`` is called with, in call order."""
        videos = []
        encode = codec.encode_sequence

        def counting(video, *args, **kwargs):
            videos.append(video)
            return encode(video, *args, **kwargs)

        monkeypatch.setattr(codec, "encode_sequence", counting)
        monkeypatch.setattr(parallel, "encode_sequence", counting)
        return videos

    def test_table3_encodes_once(self, encoded):
        synthetic_stream.cache_clear()
        table3._reference_decode.cache_clear()
        first = table3.run_table3(frame_count=2)
        second = table3.run_table3(frame_count=2)
        assert len(encoded) == 1
        assert first == second
        assert all(row.frames_correct for row in first)
        assert synthetic_stream(2) is synthetic_stream(2)

    def test_own_video_is_encoded(self, encoded):
        video = synthetic_video(4, seed=7)
        result = run_mpeg2(build_machine(presets.preset("GBAVIII", 4)), video)
        assert len(encoded) == 1 and encoded[0] is video
        stream = encode_sequence(video)
        assert stream != synthetic_stream(4)
        assert result.stream_bits == 8 * len(stream)
        gops, _stats = decode_sequence(stream)
        assert_frames_match(
            result,
            {(gop.index, index): frame for gop in gops for index, frame in enumerate(gop.frames)},
        )

    @pytest.mark.parametrize("preset_name", ["GBAVIII", "BFBA"])
    def test_synthetic_video_matches_the_shared_stream(self, preset_name):
        spec = presets.preset(preset_name, 4)
        own = run_mpeg2(build_machine(spec), synthetic_video(4))
        shared = run_mpeg2(build_machine(spec), frame_count=4)
        assert result_surface(own) == result_surface(shared)
