#!/usr/bin/env python
"""Quickstart: generate a bus system and simulate an application on it.

Mirrors the paper's flow end to end:

1. describe a Bus System with the user options of Figure 18 (here: the
   4-PE GBAVIII preset -- global arbiter + global memory, Figure 5);
2. run BusSyn to get synthesizable Verilog, a generation-time/gate-count
   report (Table V's columns), and a structural lint check;
3. build the simulation machine from that netlist and run the OFDM
   transmitter on it in functional-parallel style (Table II, case 3).
"""

from repro import BusSyn, presets
from repro.apps.ofdm import OfdmParameters, run_ofdm


def main() -> None:
    # -- 1. user options -------------------------------------------------
    spec = presets.preset("GBAVIII", pe_count=4)
    print("Bus System: %s  (%d PEs, %.0f MB total memory)" % (
        spec.name, spec.pe_count, spec.total_memory_bytes / 2**20))

    # -- 2. generate Verilog ----------------------------------------------
    generated = BusSyn().generate(spec)
    print("\nGeneration report:")
    print(" ", generated.report.row())
    errors = generated.lint_errors()
    print("  lint: %s" % ("clean" if not errors else errors))
    files = generated.files()
    print("  %d Verilog modules; top is %s" % (len(files), generated.top_name))
    top_file = "%s.v" % generated.top_name
    print("\nFirst lines of %s:" % top_file)
    for line in files[top_file].splitlines()[:12]:
        print("   ", line)

    # -- 3. simulate the OFDM transmitter on the generated system ----------
    machine = generated.build_machine()
    result = run_ofdm(machine, "FPA", OfdmParameters(packets=4))
    print("\nOFDM transmitter, FPA style, %d packets:" % result.packets)
    print("  throughput: %.4f Mbps over %d bus cycles (%.2f ms at 100 MHz)"
          % (result.throughput_mbps, result.cycles, result.seconds * 1e3))
    print("  (paper's Table II case 3: 4.5599 Mbps on their MPC755 testbed)")


if __name__ == "__main__":
    main()
