#!/usr/bin/env python
"""Extensions in action: the DMA engine and VCD waveform export.

Section IV.C.3 notes a DMA device "can be supported in GBAVIII" for the raw
data distribution the paper does with a PE; this example measures the
offload win, then records the GBAVI handshake of Figure 11 as a standard
VCD file you can open in GTKWave.
"""

import os

from repro import build_machine, presets
from repro.sim import DmaEngine, GrantTrace, vcd_from_machine
from repro.soc.api import SocAPI
from repro.soc.handshake import GbaviChannel


def dma_demo() -> None:
    print("DMA offload (GBAVIII, 4096-word distribution copy + compute):")
    for use_dma in (False, True):
        machine = build_machine(presets.preset("GBAVIII", 4))
        api = SocAPI(machine, "A")
        machine.memory("GLOBAL_SRAM_G").write(0, list(range(4096)))

        def program():
            if use_dma:
                dma = DmaEngine(machine)
                done = dma.copy(("GLOBAL_SRAM_G", 0), ("GLOBAL_SRAM_G", 8192), 4096)
                yield from api.compute(40_000)   # useful work, overlapped
                yield done
            else:
                values = yield from api.read(("GLOBAL_SRAM_G", 0), 4096)
                yield from api.mem_write(values, ("GLOBAL_SRAM_G", 8192))
                yield from api.compute(40_000)

        machine.pe("A").run(program())
        machine.sim.run()
        assert machine.memory("GLOBAL_SRAM_G").read(8192, 4) == [0, 1, 2, 3]
        print("  %-28s %6d cycles" % (
            "DMA + overlapped compute:" if use_dma else "PE-driven copy + compute:",
            machine.sim.now,
        ))


def waveform_demo() -> None:
    machine = build_machine(presets.preset("GBAVI", 4))
    machine.attach_probe(GrantTrace())
    channel = GbaviChannel(SocAPI(machine, "A"), SocAPI(machine, "B"), 64)

    def sender():
        yield from channel.send(list(range(64)))

    def receiver():
        yield from channel.recv()

    machine.pe("A").run(sender())
    machine.pe("B").run(receiver())
    machine.sim.run()

    path = os.path.join(os.path.dirname(__file__), "figure11_handshake.vcd")
    with open(path, "w") as handle:
        handle.write(vcd_from_machine(machine))
    print("\nFigure 11's handshake recorded to %s" % path)
    print("protocol steps observed:")
    for label, cycle in channel.trace:
        print("  cycle %5d  %s" % (cycle, label))


if __name__ == "__main__":
    dma_demo()
    waveform_demo()
