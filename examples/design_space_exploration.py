#!/usr/bin/env python
"""Design space exploration: the paper's core value proposition.

"This methodology gives the designer a great benefit in fast design space
exploration of bus architectures across a variety of performance impacting
factors such as bus types, processor types and software programming
style."  This example drives the production DSE engine (repro.dse,
docs/dse.md) over the same nine (bus, style) cases the original sweep
used: the spec expands into a deduplicated queue, each config is
generated (gate cost) and simulated (throughput), and the Pareto view is
printed.  Point ``repro dse --spec`` at a JSON file with more axes (PE
count, bus widths, arbiter policy, subsystem count, workload) for the
full-scale version of this loop, with an on-disk artifact cache and
parallel shards.
"""

from repro.dse.engine import run_sweep
from repro.dse.pareto import format_frontier_lines
from repro.dse.spec import example_spec


def main() -> None:
    # No cache directory: the example is self-contained and side-effect
    # free (the CLI's .repro/dse store is the production path).
    summary = run_sweep(example_spec(), jobs=1, cache_dir=None)
    rows = [
        (
            row["options"]["bus"],
            row["options"]["style"],
            row["throughput"],
            row["gate_count"],
            row["generation_time_ms"],
        )
        for row in summary["results"]
    ]

    print("%-8s %-5s %12s %12s %12s" % ("bus", "style", "Mbps", "bus gates", "gen [ms]"))
    for bus_name, style, mbps, gates, gen_ms in sorted(
        rows, key=lambda r: (-r[2], r[0], r[1])
    ):
        print("%-8s %-5s %12.4f %12d %12.1f" % (bus_name, style, mbps, gates, gen_ms))

    # Pareto frontier on (throughput up, gates down) -- the engine's
    # general dominance frontier, one config a line.
    print()
    for line in format_frontier_lines(summary["frontier"]):
        print(line)
    total_ms = sum(r[4] for r in rows)
    print("\nTotal generation time for %d bus systems: %.0f ms" % (len(rows), total_ms))
    print("(The paper: 'designed in a matter of seconds instead of weeks'.)")


if __name__ == "__main__":
    main()
