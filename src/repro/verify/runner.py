"""The ``repro verify`` sweep: the netlist's pin-level findings + monitored runs.

For every architecture under test this runs, per scheduler backend:

1. **structural** -- generate the Verilog bus system and extract its
   :class:`FabricGraph` (:func:`repro.verify.graph.graph_from_design`);
   every dropped or misrouted wire is a finding.  The machines below are
   built from that same graph, so they simulate what was generated;
2. **runtime** -- run the OFDM workload twice, once bare and once with
   :class:`~repro.verify.monitors.ProtocolMonitor` attached to every
   arbiter/segment/FIFO/bridge, and require (a) zero protocol findings
   and (b) cycle-identical results, proving the monitors observe without
   perturbing (the free-when-off contract);

then asserts backend parity on cycle counts and on the per-segment
totals of the bare run's :class:`~repro.sim.stats.BusStats` carried by
every case row (:func:`~repro.sim.stats.segment_totals`).  In these
fault-free sweeps each segment's transactions must also equal its
arbiter's grants, and its held cycles the arbiter's busy cycles.  Cases
fan out over the parallel experiment runner, so ``repro verify --jobs N``
sweeps architectures concurrently with deterministic results.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..apps.ofdm import OfdmParameters, run_ofdm
from ..core.busyn import BusSyn
from ..faults.chaos import CHAOS_STYLES, case_spec
from ..options import presets
from ..sim.kernel import KERNEL_BACKENDS
from ..sim.stats import segment_totals
from .graph import graph_from_design

__all__ = [
    "VERIFY_ARCHITECTURES",
    "SMOKE_ARCHITECTURES",
    "run_verify_case",
    "run_verify",
    "format_verify_summary",
]

# Every preset.
VERIFY_ARCHITECTURES = [
    "BFBA",
    "GBAVI",
    "GBAVII",
    "GBAVIII",
    "HYBRID",
    "SPLITBA",
    "GGBA",
    "CCBA",
]

# CI's quick pass: one distributed-memory and one shared-memory family
# member, still covering chains/bridges (BFBA) and shared-bus arbitration
# (SPLITBA's two subsystems plus a system bridge).
SMOKE_ARCHITECTURES = ["BFBA", "SPLITBA"]


def run_verify_case(
    case: Tuple[str, str],
    packets: int = 2,
    pe_count: int = 4,
    data_width: Optional[int] = None,
) -> Dict[str, Any]:
    """Run one ``(arch, backend)`` verification case; picklable."""
    arch, backend = case
    style = CHAOS_STYLES[arch]
    generated = BusSyn().generate(case_spec(arch, pe_count, data_width))
    structural = [str(finding) for finding in graph_from_design(generated.design()).findings]

    bare_machine = generated.build_machine(kernel=backend)
    baseline = run_ofdm(bare_machine, style, OfdmParameters(packets=packets))
    # Fault-free sweep: every retired tenure is exactly one arbiter grant,
    # and a segment is held exactly while its arbiter is busy.
    tenure_findings = []
    for name, segment in sorted(bare_machine.segments.items()):
        stats, arbiter = segment.stats, segment.arbiter
        if stats.transactions != arbiter.grants:
            tenure_findings.append(
                "%s: BusStats transactions %d != arbiter grants %d"
                % (name, stats.transactions, arbiter.grants)
            )
        if stats.held_cycles != arbiter.busy_cycles:
            tenure_findings.append(
                "%s: BusStats held cycles %d != arbiter busy cycles %d"
                % (name, stats.held_cycles, arbiter.busy_cycles)
            )

    monitored_machine = generated.build_machine(kernel=backend)
    monitor = monitored_machine.attach_monitors(fail_fast=False)
    monitored = run_ofdm(monitored_machine, style, OfdmParameters(packets=packets))
    runtime = [str(finding) for finding in monitor.finalize()]
    if monitored.cycles != baseline.cycles:
        runtime.append(
            "%s/%s: monitors perturbed the run (%d cycles != baseline %d)"
            % (arch, backend, monitored.cycles, baseline.cycles)
        )

    return {
        "arch": arch,
        "style": style,
        "backend": backend,
        "cycles": baseline.cycles,
        "monitored_cycles": monitored.cycles,
        "throughput_mbps": baseline.throughput_mbps,
        "grants": monitor.grants_observed,
        "transfers": monitor.transfers_opened,
        "counters": segment_totals(bare_machine.segments),
        "structural_findings": structural,
        "runtime_findings": runtime + tenure_findings,
    }


def run_verify(
    archs: Optional[Sequence[str]] = None,
    backends: Sequence[str] = KERNEL_BACKENDS,
    packets: int = 2,
    pe_count: int = 4,
    jobs: int = 1,
    data_width: Optional[int] = None,
) -> Dict[str, Any]:
    """Sweep the verification matrix; returns a JSON-able summary."""
    from ..experiments.runner import run_cases

    archs = [str(arch).upper() for arch in (archs or VERIFY_ARCHITECTURES)]
    for arch in archs:
        if arch not in presets.PRESETS:
            # OptionError -> exit 2 in the CLI, with the did-you-mean
            # candidate list (core/netlist.py style), not a traceback.
            from ..core.netlist import _did_you_mean
            from ..options.schema import OptionError

            known = sorted(presets.PRESETS)
            raise OptionError(
                "unknown architecture %r%s; known architectures: %s"
                % (arch, _did_you_mean(arch, known), ", ".join(known))
            )
        # Bad PE counts and widths exit 2 here, before any case runs.
        case_spec(arch, pe_count, data_width)
    cases = [(arch, backend) for arch in archs for backend in backends]
    results, _telemetry = run_cases(
        run_verify_case,
        cases,
        jobs=jobs,
        kwargs={"packets": packets, "pe_count": pe_count, "data_width": data_width},
    )
    by_key = {(row["arch"], row["backend"]): row for row in results}
    failures: List[str] = []
    for arch in archs:
        for backend in backends:
            row = by_key[(arch, backend)]
            failures.extend(
                "%s/%s structural: %s" % (arch, backend, text)
                for text in row["structural_findings"]
            )
            failures.extend(
                "%s/%s runtime: %s" % (arch, backend, text)
                for text in row["runtime_findings"]
            )
        reference = by_key[(arch, backends[0])]
        for backend in backends[1:]:
            other = by_key[(arch, backend)]
            if other["cycles"] != reference["cycles"]:
                failures.append(
                    "%s: cycles diverge across backends (%s=%d, %s=%d)"
                    % (
                        arch,
                        backends[0],
                        reference["cycles"],
                        backend,
                        other["cycles"],
                    )
                )
            if other["counters"] != reference["counters"]:
                failures.append(
                    "%s: counter totals diverge between %s and %s"
                    % (arch, backends[0], backend)
                )
    return {
        "packets": packets,
        "pe_count": pe_count,
        "data_width": data_width,
        "backends": list(backends),
        "architectures": archs,
        "cases": results,
        "failures": failures,
        "ok": not failures,
    }


def format_verify_summary(summary: Dict[str, Any]) -> List[str]:
    """Human-readable digest of a :func:`run_verify` summary."""
    width = summary.get("data_width")
    lines = [
        "verify sweep: packets=%d pes=%d backends=%s%s"
        % (
            summary["packets"],
            summary["pe_count"],
            "/".join(summary["backends"]),
            " data_width=%d" % width if width else "",
        )
    ]
    for row in summary["cases"]:
        status = (
            "ok"
            if not (row["structural_findings"] or row["runtime_findings"])
            else "FAIL"
        )
        lines.append(
            "  %-8s %-4s %-8s  %8d cycles  %6d grants  %6d transfers  "
            "structural %d  runtime %d  %s"
            % (
                row["arch"],
                row["style"],
                row["backend"],
                row["cycles"],
                row["grants"],
                row["transfers"],
                len(row["structural_findings"]),
                len(row["runtime_findings"]),
                status,
            )
        )
    if summary["failures"]:
        lines.append("verification FAILURES:")
        lines.extend("  - %s" % failure for failure in summary["failures"])
    else:
        lines.append(
            "netlist and machine are structurally equivalent; all protocol "
            "monitors green and bit-identical to baseline"
        )
    return lines
