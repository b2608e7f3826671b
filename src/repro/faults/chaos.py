"""Chaos harness: seeded fault sweeps across architectures and backends.

For every architecture under test the harness runs three modes on each
scheduler backend:

* ``baseline`` -- no fault machinery at all (the seed behaviour);
* ``empty``    -- an **empty** fault plan installed, which must be
  bit-identical to baseline (the hooks' zero-cost contract);
* ``faulted``  -- the seeded scenario compiled and installed.

and then asserts the chaos invariants:

1. no deadlock -- every case runs to completion (a stuck bus surfaces as a
   :class:`~repro.faults.plan.BusTimeoutError`, not a hang);
2. no silent data loss -- each faulted case's
   :class:`~repro.faults.report.ResilienceReport` accounts for 100% of its
   injected faults (``unaccounted == 0``);
3. empty-plan identity -- ``empty`` matches ``baseline`` cycle-for-cycle;
4. backend parity -- ``faulted`` outcomes (cycles, episode ledger, all
   counters) are identical on every scheduler backend.

Every row also carries the per-segment transaction/grant/wait totals of
its run's :class:`~repro.sim.stats.BusStats`
(:func:`~repro.sim.stats.segment_totals`), which must be identical across
backends in *every* mode -- under injection a watchdog redelivery can
legitimately re-grant, so chaos gates grants by parity rather than by
the arbiter's own count.

Cases fan out over the parallel experiment runner, so ``repro chaos
--jobs N`` sweeps architectures concurrently with deterministic results.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..apps.ofdm import GROUP_OF_BAN, OfdmParameters, run_ofdm
from ..options import presets
from ..options.schema import BusSystemSpec, OptionError
from ..sim.fabric import build_machine
from ..sim.pe import ProgramError
from ..sim.kernel import KERNEL_BACKENDS
from ..sim.stats import segment_totals
from .injector import RecoveryPolicy, install_faults
from .plan import SCENARIOS, compile_plan, empty_plan

__all__ = [
    "CHAOS_ARCHITECTURES",
    "CHAOS_STYLES",
    "case_spec",
    "run_chaos_case",
    "run_chaos",
    "format_chaos_summary",
]

# The five generated architectures of the paper (Figures 3-7); baselines
# (GGBA/CCBA) are reachable via --arch but not swept by default.
CHAOS_ARCHITECTURES = ["BFBA", "GBAVI", "GBAVIII", "HYBRID", "SPLITBA"]

# Programming style per architecture (BFBA/GBAVI have no shared memory, so
# only PPA is defined for them -- same mapping as Table II).
CHAOS_STYLES = {
    "BFBA": "PPA",
    "GBAVI": "PPA",
    "GBAVII": "FPA",
    "GBAVIII": "FPA",
    "HYBRID": "FPA",
    "SPLITBA": "FPA",
    "GGBA": "FPA",
    "CCBA": "FPA",
}

MODES = ("baseline", "empty", "faulted")


def case_spec(arch: str, pe_count: int, data_width: Optional[int] = None) -> BusSystemSpec:
    """The preset a chaos or verify case runs OFDM on.

    Raises :class:`OptionError` for a PE count or data width the preset
    cannot take, and for fewer PEs than the architecture's programming
    style needs (PPA pipelines Table I's groups over one PE each), so a
    sweep can reject bad options before it fans out.
    """
    spec = presets.preset(arch, pe_count)
    if data_width is not None:
        spec.set_data_width(data_width)
        spec.validate()
    if CHAOS_STYLES[arch] == "PPA" and pe_count < len(GROUP_OF_BAN):
        raise OptionError(
            "%s runs PPA, which needs at least %d PEs (got %d)"
            % (arch, len(GROUP_OF_BAN), pe_count)
        )
    return spec


def run_chaos_case(
    case: Tuple[str, str, str, str],
    packets: int = 4,
    seed: int = 0,
    scenario: str = "smoke",
    pe_count: int = 4,
) -> Dict[str, Any]:
    """Run one ``(arch, style, backend, mode)`` chaos case; picklable."""
    arch, style, backend, mode = case
    machine = build_machine(case_spec(arch, pe_count), kernel=backend)
    injector = None
    monitor = None
    if mode != "baseline":
        if mode == "faulted":
            plan = compile_plan(machine, SCENARIOS[scenario], seed)
        else:
            plan = empty_plan()
            # The empty-plan case doubles as the protocol-assertion case:
            # monitors are free-when-off and observe-only, so this mode must
            # stay bit-identical to baseline *and* violation-free.  (The
            # faulted mode deliberately breaks protocol -- e.g. withdraws
            # grants -- so monitors only arm when no faults are planned.)
            monitor = machine.attach_monitors(fail_fast=False)
        injector = install_faults(machine, plan, RecoveryPolicy())
    died = False
    try:
        result = run_ofdm(machine, style, OfdmParameters(packets=packets))
        cycles, throughput = result.cycles, result.throughput_mbps
    except ProgramError:
        # A dead PE stops the run untimed; it is reported below.
        cycles = throughput = None
        died = True
    # An unfinished PE, dead or deadlocked, is the crash signal -- check it
    # in every mode, baseline included.  Once a program died, the PEs the
    # stopped run cut short are not failures of their own.
    unfinished = [
        "%s: PE %s did not complete" % (arch, name)
        for name, pe in sorted(machine.pes.items())
        if pe.finished_at is None and (pe.program_error is not None or not died)
    ]
    if monitor is not None:
        unfinished += [
            "%s: protocol %s" % (arch, finding)
            for finding in monitor.finalize()
        ]
    out: Dict[str, Any] = {
        "arch": arch,
        "style": style,
        "backend": backend,
        "mode": mode,
        "cycles": cycles,
        "throughput_mbps": throughput,
        "counters": segment_totals(machine.segments),
        "invariant_failures": unfinished,
    }
    if injector is not None:
        report = injector.resilience_report()
        report.name = "%s/%s %s" % (arch, style, backend)
        out["resilience"] = report.as_dict()
        out["invariant_failures"] = unfinished + report.check()
    return out


def run_chaos(
    seed: int = 0,
    scenario: str = "smoke",
    archs: Optional[Sequence[str]] = None,
    backends: Sequence[str] = KERNEL_BACKENDS,
    packets: int = 4,
    pe_count: int = 4,
    jobs: int = 1,
) -> Dict[str, Any]:
    """Sweep the chaos matrix; returns a JSON-able summary with failures."""
    from ..experiments.runner import run_cases

    if scenario not in SCENARIOS:
        raise ValueError(
            "unknown scenario %r (expected one of %s)"
            % (scenario, ", ".join(sorted(SCENARIOS)))
        )
    archs = [str(arch).upper() for arch in (archs or CHAOS_ARCHITECTURES)]
    for arch in archs:
        # OptionError (not KeyError at CHAOS_STYLES time): the CLI turns
        # it into exit 2 with the candidate list, matching every other
        # unknown-name path (core/netlist.py style).
        if arch not in presets.PRESETS or arch not in CHAOS_STYLES:
            from ..core.netlist import _did_you_mean

            known = sorted(set(presets.PRESETS) & set(CHAOS_STYLES))
            raise OptionError(
                "unknown architecture %r%s; known architectures: %s"
                % (arch, _did_you_mean(arch, known), ", ".join(known))
            )
        # Bad PE counts exit 2 here, before any case runs.
        case_spec(arch, pe_count)
    cases: List[Tuple[str, str, str, str]] = []
    for arch in archs:
        style = CHAOS_STYLES[arch]
        for backend in backends:
            for mode in MODES:
                cases.append((arch, style, backend, mode))
    results, _telemetry = run_cases(
        run_chaos_case,
        cases,
        jobs=jobs,
        kwargs={
            "packets": packets,
            "seed": seed,
            "scenario": scenario,
            "pe_count": pe_count,
        },
    )
    by_key = {
        (row["arch"], row["backend"], row["mode"]): row for row in results
    }
    failures: List[str] = []
    for arch in archs:
        for backend in backends:
            baseline = by_key[(arch, backend, "baseline")]
            empty = by_key[(arch, backend, "empty")]
            faulted = by_key[(arch, backend, "faulted")]
            failures.extend(baseline["invariant_failures"])
            failures.extend(empty["invariant_failures"])
            if empty["cycles"] != baseline["cycles"]:
                failures.append(
                    "%s/%s: empty fault plan changed cycles (%s != baseline %s)"
                    % (arch, backend, empty["cycles"], baseline["cycles"])
                )
            if empty["resilience"]["injected"] != 0:
                failures.append(
                    "%s/%s: empty plan injected %d fault(s)"
                    % (arch, backend, empty["resilience"]["injected"])
                )
            failures.extend(faulted["invariant_failures"])
            if faulted["resilience"]["injected"] == 0:
                failures.append(
                    "%s/%s: seeded scenario %r fired no faults (scenario too "
                    "small for this run?)" % (arch, backend, scenario)
                )
        # Backend parity: identical cycle counts and identical fault
        # episode ledgers (sites, cycles, outcomes) on every backend.
        reference_backend = backends[0]
        for mode in MODES:
            reference = by_key[(arch, reference_backend, mode)]
            for backend in backends[1:]:
                other = by_key[(arch, backend, mode)]
                if other["cycles"] != reference["cycles"]:
                    failures.append(
                        "%s/%s: cycles diverge across backends (%s=%s, %s=%s)"
                        % (
                            arch,
                            mode,
                            reference_backend,
                            reference["cycles"],
                            backend,
                            other["cycles"],
                        )
                    )
                if other["counters"] != reference["counters"]:
                    failures.append(
                        "%s/%s: counter totals diverge between %s and %s"
                        % (arch, mode, reference_backend, backend)
                    )
                if mode == "faulted":
                    ref_res = dict(reference["resilience"], name="")
                    other_res = dict(other["resilience"], name="")
                    if ref_res != other_res:
                        failures.append(
                            "%s: fault outcomes diverge between %s and %s"
                            % (arch, reference_backend, backend)
                        )
    return {
        "scenario": scenario,
        "seed": seed,
        "packets": packets,
        "pe_count": pe_count,
        "backends": list(backends),
        "architectures": archs,
        "cases": results,
        "failures": failures,
        "ok": not failures,
    }


def format_chaos_summary(summary: Dict[str, Any]) -> List[str]:
    """Human-readable digest of a :func:`run_chaos` summary."""
    lines = [
        "chaos sweep: scenario=%s seed=%s packets=%d backends=%s"
        % (
            summary["scenario"],
            summary["seed"],
            summary["packets"],
            "/".join(summary["backends"]),
        )
    ]
    for row in summary["cases"]:
        if row["mode"] != "faulted":
            continue
        resilience = row["resilience"]
        lines.append(
            "  %-8s %-4s %-8s  %8s cycles  planned %2d fired %2d "
            "recovered %2d residual %2d accounted %2d dormant %2d"
            % (
                row["arch"],
                row["style"],
                row["backend"],
                row["cycles"],
                resilience["planned"],
                resilience["injected"],
                resilience["recovered"],
                resilience["residual"],
                resilience["accounted"],
                resilience["dormant"],
            )
        )
    if summary["failures"]:
        lines.append("invariant FAILURES:")
        lines.extend("  - %s" % failure for failure in summary["failures"])
    else:
        lines.append(
            "all invariants hold: empty-plan bit-identity, zero silent data "
            "loss, backend parity"
        )
    return lines
