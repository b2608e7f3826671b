"""Tests for the SoC software API and handshake channels."""

import random
from collections import Counter

import pytest

from repro.options import presets
from repro.sim import fabric
from repro.sim.fabric import build_machine
from repro.sim.hsregs import HandshakeRegisters
from repro.sim.kernel import KERNEL_BACKENDS
from repro.soc.api import SocAPI
from repro.soc.handshake import (
    BfbaChannel,
    FpaDistributor,
    GbaviChannel,
    GlobalChannel,
    make_channel,
)


def run_pair(machine, sender_program, receiver_program, sender="A", receiver="B"):
    sender_process = machine.pe(sender).run(sender_program)
    receiver_process = machine.pe(receiver).run(receiver_program)
    machine.sim.run()
    return sender_process.value, receiver_process.value


class TestSocAPI:
    def test_default_memory_local(self):
        machine = build_machine(presets.preset("GBAVIII", 4))
        api = SocAPI(machine, "A")
        assert api.default_memory == "SRAM_A"

    def test_default_memory_shared_when_no_local(self):
        machine = build_machine(presets.preset("GGBA", 4))
        api = SocAPI(machine, "A")
        assert api.default_memory == "GLOBAL_SRAM_G"

    def test_resolve_flat_address(self):
        machine = build_machine(presets.preset("GBAVIII", 4))
        api = SocAPI(machine, "A")
        assert api.resolve(0x400) == ("SRAM_A", 0x400)
        assert api.resolve(("GLOBAL_SRAM_G", 2)) == ("GLOBAL_SRAM_G", 2)

    def test_mem_read_moves_data(self):
        """Example 3: mem_read(64, src, dst) copies between memories."""
        machine = build_machine(presets.preset("GBAVIII", 4))
        machine.memory("GLOBAL_SRAM_G").write(0, list(range(64)))
        api = SocAPI(machine, "B")
        target = api.alloc(64)

        def program():
            values = yield from api.mem_read(64, ("GLOBAL_SRAM_G", 0), target)
            return values

        process = machine.pe("B").run(program())
        machine.sim.run()
        assert process.value == list(range(64))
        assert machine.memory("SRAM_B").read(target[1], 64) == list(range(64))

    def test_api_overhead_charged(self):
        machine = build_machine(presets.preset("GBAVIII", 4))
        api = SocAPI(machine, "A")
        target = api.alloc(4)

        def program():
            yield from api.mem_write([1, 2, 3, 4], target)

        machine.pe("A").run(program())
        machine.sim.run()
        expected = int(api.api_call_instructions * api.pe.cycles_per_instruction)
        assert api.pe.stats.compute_cycles >= expected

    def test_var_write_read(self):
        machine = build_machine(presets.preset("GBAVIII", 4))
        api = SocAPI(machine, "A")

        def program():
            yield from api.var_write("FLAG", 1)
            value = yield from api.var_read("FLAG")
            return value

        process = machine.pe("A").run(program())
        machine.sim.run()
        assert process.value == 1

    def test_var_wait_crosses_pes(self):
        machine = build_machine(presets.preset("GBAVIII", 4))
        api_a, api_b = SocAPI(machine, "A"), SocAPI(machine, "B")

        def setter():
            yield from api_a.compute(5000)
            yield from api_a.var_write("GO", 1)

        def waiter():
            yield from api_b.var_wait("GO", 1)
            return machine.sim.now

        _s, wake_time = run_pair(machine, setter(), waiter())
        assert wake_time >= 2000  # not before the setter's compute phase
        assert api_b.pe.stats.handshake_polls >= 2

    def test_reg_wait_uses_notification(self):
        machine = build_machine(presets.preset("BFBA", 4))
        api_a, api_b = SocAPI(machine, "A"), SocAPI(machine, "B")
        hs_device = machine.hsregs_for("A", "B").name

        def setter():
            yield from api_a.compute(4000)
            yield from api_a.reg_write(hs_device, "DONE_RV", 1)
            return machine.sim.now

        def waiter():
            yield from api_b.reg_wait(hs_device, "DONE_RV", 1)
            return machine.sim.now

        write_time, wake = run_pair(machine, setter(), waiter())
        assert wake >= write_time
        assert wake - write_time <= 150  # woken promptly by the change event

    def test_scattered_access_traffic(self):
        machine = build_machine(presets.preset("GBAVIII", 4))
        api = SocAPI(machine, "A")
        buffer = api.alloc(16)

        def program():
            yield from api.scattered_access(buffer, 40)

        machine.pe("A").run(program())
        machine.sim.run()
        segment = machine.home_segment[api.pe.name]
        assert segment.stats.transactions == 5  # 40 ops in groups of 8


class _CompositeWaitRegisters(HandshakeRegisters):
    """Handshake registers with a plain watcher list: a write fires every
    watcher event waiting for the new value and keeps the others, and a
    watcher stays listed until a write fires it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.watcher_events = {"DONE_OP": [], "DONE_RV": []}

    def write(self, register, value):
        changed = self.read(register) != value & 1
        super().write(register, value)
        if changed:
            value &= 1
            events, self.watcher_events[register] = self.watcher_events[register], []
            for wanted, event in events:
                if wanted == value:
                    event.succeed(value)
                else:
                    self.watcher_events[register].append((wanted, event))

    def watch(self, register, value):
        event = self.sim.event()
        if self.read(register) == value:
            event.succeed(value)
        else:
            self.watcher_events[register].append((value, event))
        return event


class _CompositeWaitAPI(SocAPI):
    """The reference poll: a watcher event raced against a ``Timeout``
    through ``AnyOf``."""

    def reg_wait(self, hs_device, register, value):
        block = self.machine.devices[hs_device].target
        sim = self.machine.sim
        interval = self.poll_interval
        while True:
            if self.poll_probe_instructions:
                yield from self.pe.compute(self.poll_probe_instructions)
            observed = yield from self.reg_read(hs_device, register)
            self.pe.stats.handshake_polls += 1
            if observed == value:
                return
            waiter = block.watch(register, value)
            if waiter.triggered:
                continue
            yield sim.any_of([waiter, sim.timeout(interval)])
            interval = min(interval * 2, self.poll_interval_max)


def _logged(program, log, sim, name):
    """Run ``program``, logging ``(cycle, name)`` at every resume."""
    value = None
    while True:
        try:
            item = program.send(value)
        except StopIteration as stop:
            return stop.value
        value = yield item
        log.append((sim.now, name))


def _poll_run(seed, kernel, reference, monkeypatch):
    """A seeded random schedule on GBAVI: PE A writes both registers of
    HS_REGS_A at random times while B, C and D poll them with random
    intervals.  Half of A's writes skip the bus and A resumes in the same
    cycle, between a woken poll's two hops.  Returns the wake log, as
    (cycle, position among that cycle's wakes, PE), and each poller's
    handshake_polls."""
    rng = random.Random(seed)
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(fabric, "HandshakeRegisters", _CompositeWaitRegisters)
        machine = build_machine(presets.preset("GBAVI", 4), kernel=kernel)
    api_type = _CompositeWaitAPI if reference else SocAPI
    apis = {ban: api_type(machine, ban) for ban in "ABCD"}
    sim = machine.sim
    log = []

    block = machine.devices["HS_REGS_A"].target

    def writer():
        for _ in range(60):
            yield from apis["A"].stall(rng.randrange(0, 300))
            register = rng.choice(("DONE_OP", "DONE_RV"))
            if rng.randrange(2):
                yield from apis["A"].reg_write("HS_REGS_A", register, rng.randrange(2))
            else:
                block.write(register, rng.randrange(2))
                yield 0

    def poller(api):
        api.poll_interval = rng.randrange(1, 40)
        api.poll_interval_max = api.poll_interval * rng.choice((1, 2, 8))
        while True:
            register = rng.choice(("DONE_OP", "DONE_RV"))
            yield from api.reg_wait("HS_REGS_A", register, rng.randrange(2))

    machine.pe("A").run(_logged(writer(), log, sim, "A"))
    for ban in "BCD":
        machine.pe(ban).run(_logged(poller(apis[ban]), log, sim, ban))
    sim.run(until=20_000)
    per_cycle = Counter()
    wakes = []
    for cycle, name in log:
        wakes.append((cycle, per_cycle[cycle], name))
        per_cycle[cycle] += 1
    return wakes, [apis[ban].pe.stats.handshake_polls for ban in "BCD"]


class TestPollWakeOrder:
    """reg_wait's single poll event resumes pollers exactly where the
    composite wait did, in time and in same-cycle order."""

    @pytest.mark.parametrize("kernel", KERNEL_BACKENDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_same_wakes_as_composite_wait(self, seed, kernel, monkeypatch):
        wakes, polls = _poll_run(seed, kernel, False, monkeypatch)
        ref_wakes, ref_polls = _poll_run(seed, kernel, True, monkeypatch)
        assert sum(polls) > 100  # the pollers really did wait
        assert polls == ref_polls
        assert wakes == ref_wakes

    @pytest.mark.parametrize("kernel", KERNEL_BACKENDS)
    def test_timed_out_polls_leave_no_watchers(self, kernel):
        machine = build_machine(presets.preset("GBAVI", 4), kernel=kernel)
        api = SocAPI(machine, "B")
        block = machine.devices["HS_REGS_A"].target

        def waiter():
            yield from api.reg_wait("HS_REGS_A", "DONE_OP", 1)  # never written

        api.pe.run(waiter())
        machine.sim.run(until=200_000)
        assert api.pe.stats.handshake_polls >= 1000
        assert len(block._watchers["DONE_OP"]) <= 1


@pytest.mark.parametrize(
    "preset_name,channel_cls",
    [("GBAVI", GbaviChannel), ("BFBA", BfbaChannel), ("GBAVIII", GlobalChannel)],
)
class TestChannels:
    def test_single_transfer(self, preset_name, channel_cls):
        machine = build_machine(presets.preset(preset_name, 4))
        channel = channel_cls(SocAPI(machine, "A"), SocAPI(machine, "B"), 32)
        payload = [i * 3 for i in range(32)]

        def sender():
            yield from channel.send(payload)

        def receiver():
            values = yield from channel.recv()
            yield from channel.release()
            return values

        _s, received = run_pair(machine, sender(), receiver())
        assert received == payload

    def test_pipelined_transfers_preserve_order(self, preset_name, channel_cls):
        machine = build_machine(presets.preset(preset_name, 4))
        channel = channel_cls(SocAPI(machine, "A"), SocAPI(machine, "B"), 16)
        batches = [[k * 100 + i for i in range(16)] for k in range(5)]

        def sender():
            for batch in batches:
                yield from channel.send(batch)

        def receiver():
            out = []
            for _ in batches:
                values = yield from channel.recv()
                out.append(list(values))
                yield from channel.release()
            return out

        _s, received = run_pair(machine, sender(), receiver())
        assert received == batches
        assert channel.transfers == 5

    def test_oversized_send_rejected(self, preset_name, channel_cls):
        machine = build_machine(presets.preset(preset_name, 4))
        channel = channel_cls(SocAPI(machine, "A"), SocAPI(machine, "B"), 8)

        def sender():
            yield from channel.send(list(range(9)))

        process = machine.pe("A").run(sender())
        machine.sim.run()
        with pytest.raises(ValueError):
            process.value


class TestMakeChannel:
    def test_selects_by_topology(self):
        for preset_name, kind in [
            ("BFBA", "BFBA"),
            ("GBAVI", "GBAVI"),
            ("GBAVIII", "GLOBAL"),
            ("GGBA", "GLOBAL"),
        ]:
            machine = build_machine(presets.preset(preset_name, 4))
            channel = make_channel(SocAPI(machine, "A"), SocAPI(machine, "B"), 8)
            assert channel.kind == kind, preset_name

    def test_hybrid_prefers_fifo_but_honours_override(self):
        machine = build_machine(presets.preset("HYBRID", 4))
        assert make_channel(SocAPI(machine, "A"), SocAPI(machine, "B"), 8).kind == "BFBA"
        machine = build_machine(presets.preset("HYBRID", 4))
        assert (
            make_channel(SocAPI(machine, "A"), SocAPI(machine, "B"), 8, prefer="GLOBAL").kind
            == "GLOBAL"
        )

    def test_non_adjacent_on_bfba_falls_through(self):
        machine = build_machine(presets.preset("BFBA", 4))
        with pytest.raises(LookupError):
            make_channel(SocAPI(machine, "A"), SocAPI(machine, "C"), 8)


class TestFpaDistributor:
    def test_distribute_and_collect(self):
        machine = build_machine(presets.preset("GBAVIII", 4))
        apis = {ban: SocAPI(machine, ban) for ban in machine.pe_order}
        workers = {ban: apis[ban] for ban in ("B", "C", "D")}
        distributor = FpaDistributor(apis["A"], workers, chunk_words=16, result_words=16)
        chunks = {ban: [ord(ban)] * 16 for ban in workers}

        def dist_program():
            for ban in workers:
                yield from distributor.deliver(ban, chunks[ban])
            results = {}
            for ban in workers:
                results[ban] = yield from distributor.collect(ban)
            return results

        def worker_program(ban):
            def body():
                values = yield from distributor.fetch(ban)
                yield from apis[ban].compute(1000)
                yield from distributor.complete(ban, [v + 1 for v in values])
            return body

        dist_process = machine.pe("A").run(dist_program())
        for ban in workers:
            machine.pe(ban).run(worker_program(ban)())
        machine.sim.run()
        assert dist_process.value == {ban: [ord(ban) + 1] * 16 for ban in workers}
        # Step trace covers deliver/fetch/complete/collect for each worker.
        labels = [label.split(":")[0] for label, _cycle in distributor.trace]
        assert labels.count("1") == 3 and labels.count("5") == 3
