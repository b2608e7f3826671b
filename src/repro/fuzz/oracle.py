"""The composed oracle: four independent checks on one sampled config.

Each fuzz case is judged by every harness the repo has grown, composed
into one verdict:

* ``structural`` -- generate the Verilog bus system and require its
  pin-level extraction (:func:`repro.verify.graph.graph_from_design`) to
  find nothing; every machine below is built from that netlist, once
  generated per case;
* ``protocol`` -- run the workload with
  :class:`~repro.verify.monitors.ProtocolMonitor` armed on every
  arbiter/segment/FIFO/bridge; any protocol finding, unfinished PE, or
  monitor-induced cycle perturbation fails the check;
* ``resilience`` -- compile a seeded fault plan (``fault_scale`` smoke
  scenarios worth), install it, run, and require the
  :class:`~repro.faults.report.ResilienceReport` accounting invariant
  (injected == recovered + residual + accounted) plus PE completion;
  a ``fault_scale`` of 0 skips the check (the shrinker's "no fault plan
  needed" direction);
* ``parity`` -- run the bare workload on the heap and compiled kernels
  and require identical run fingerprints (cycles, throughput,
  per-segment bus totals).

Every check is exception-safe: a raised :class:`BusTimeoutError` (or any
other error) becomes a deterministic ``exception:`` finding rather than a
crashed fuzz run.  Verdicts are plain JSON-able dicts so they cache in
the DSE artifact store (kind ``"fuzz"``, keyed by case hash +
:data:`ORACLE_VERSION`, read back only under the generator version that
judged them) and diff cleanly inside corpus entries.
"""

from __future__ import annotations

import gc
from typing import Any, Dict, List, Optional

from ..core.busyn import BusSyn
from ..dse.engine import simulate_config
from ..dse.spec import DseConfig, build_config_spec
from ..obs.ledger import content_hash
from ..sim.kernel import KERNEL_BACKENDS
from ..sim.stats import segment_totals

__all__ = [
    "ORACLE_VERSION",
    "ORACLE_CHECKS",
    "PARITY_BACKENDS",
    "oracle_cache_key",
    "run_fingerprint",
    "evaluate_case",
]

#: Bump when the oracle's judgement surface changes; cached verdicts from
#: older oracles then read as misses instead of stale acquittals.
#: Version 2: data_width propagates into the generated RTL and the
#: structural extractor reads true widths, so every width-divergence
#: verdict from version 1 is void.
ORACLE_VERSION = 2

ORACLE_CHECKS = ("structural", "protocol", "resilience", "parity")

#: All registered scheduler backends, in registry order (heap, compiled)
#: -- the parity check runs the bare workload on each.
PARITY_BACKENDS = tuple(KERNEL_BACKENDS)

def oracle_cache_key(case: Dict[str, Any]) -> str:
    """Artifact-store key for one case's verdict.

    The scheduler backend stays out of the key on purpose: verdicts are
    backend-invariant (the parity check itself proves it), so a verdict
    computed under ``--kernel compiled`` serves a later heap run.
    """
    return content_hash(
        {
            "oracle": ORACLE_VERSION,
            "options": case["options"],
            "fault_seed": case["fault_seed"],
            "fault_scale": case["fault_scale"],
        }
    )


def run_fingerprint(config: DseConfig, machine, metric: Dict[str, Any]) -> str:
    """Deterministic fingerprint of one finished run.

    Hashes the simulated-cycle count, the workload metric, per-PE finish
    cycles and the per-segment bus totals -- everything the backend-parity
    suite guarantees bit-identical across heap and compiled, and nothing
    wall-clock.
    """
    return content_hash(
        {
            "cycles": metric["cycles"],
            "metric_name": metric["name"],
            "metric_value": metric["value"],
            "sim_now": machine.sim.now,
            "pe_finish": {
                name: pe.finished_at for name, pe in sorted(machine.pes.items())
            },
            "counters": segment_totals(machine.segments),
        }
    )


def _findings_from_error(error: BaseException) -> List[str]:
    return ["exception: %s: %s" % (type(error).__name__, error)]


def _check_structural(generated) -> List[str]:
    from ..verify.graph import graph_from_design

    return [str(finding) for finding in graph_from_design(generated.design()).findings]


def _unfinished_pes(machine) -> List[str]:
    return [
        "PE %s did not complete" % name
        for name, pe in sorted(machine.pes.items())
        if pe.finished_at is None
    ]


def _check_protocol(
    config: DseConfig, generated, kernel: str, baseline_cycles: Optional[int] = None
) -> List[str]:
    if baseline_cycles is None:
        # Normally the parity check's run for this kernel is the baseline
        # (monitors are free-when-off); only a parity-stage error forces a
        # dedicated bare run here.
        bare = generated.build_machine(kernel=kernel)
        baseline_cycles = simulate_config(config, bare)["cycles"]

    monitored = generated.build_machine(kernel=kernel)
    monitor = monitored.attach_monitors(fail_fast=False)
    metric = simulate_config(config, monitored)
    findings = [str(finding) for finding in monitor.finalize()]
    findings.extend(_unfinished_pes(monitored))
    if metric["cycles"] != baseline_cycles:
        findings.append(
            "monitors perturbed the run (%d cycles != baseline %d)"
            % (metric["cycles"], baseline_cycles)
        )
    return findings


def _check_resilience(
    config: DseConfig, generated, fault_seed: int, fault_scale: int, kernel: str
) -> List[str]:
    from ..faults.injector import RecoveryPolicy, install_faults
    from ..faults.plan import SMOKE_SCENARIO, compile_plan

    if fault_scale <= 0:
        return []
    scenario = (
        SMOKE_SCENARIO if fault_scale == 1 else SMOKE_SCENARIO.scaled(fault_scale)
    )
    machine = generated.build_machine(kernel=kernel)
    plan = compile_plan(machine, scenario, fault_seed)
    injector = install_faults(machine, plan, RecoveryPolicy())
    simulate_config(config, machine)
    report = injector.resilience_report()
    report.name = config.label()
    return report.check() + _unfinished_pes(machine)


def _check_parity(config: DseConfig, generated) -> Dict[str, Any]:
    fingerprints: Dict[str, str] = {}
    cycles: Dict[str, int] = {}
    findings: List[str] = []
    for backend in PARITY_BACKENDS:
        try:
            machine = generated.build_machine(kernel=backend)
            metric = simulate_config(config, machine)
            fingerprints[backend] = run_fingerprint(config, machine, metric)
            cycles[backend] = metric["cycles"]
        except Exception as error:  # noqa: BLE001 -- deterministic finding
            fingerprints[backend] = None
            findings.extend(
                "%s: %s" % (backend, text) for text in _findings_from_error(error)
            )
    if len(set(fingerprints.values())) > 1:
        findings.append(
            "run fingerprints diverge across backends: %s"
            % ", ".join(
                "%s=%s" % (backend, (value or "error")[:12])
                for backend, value in sorted(fingerprints.items())
            )
        )
    return {"fingerprints": fingerprints, "cycles": cycles, "findings": findings}


def evaluate_case(case: Dict[str, Any], kernel: str = "heap") -> Dict[str, Any]:
    """Run the full oracle stack on one case; returns its verdict dict.

    ``kernel`` drives the protocol and resilience checks (the parity
    check always runs all of :data:`PARITY_BACKENDS`).
    """
    config = DseConfig.from_options(case["options"])
    checks: Dict[str, List[str]] = {}
    parity = {"fingerprints": {}, "cycles": {}, "findings": []}

    try:
        generated = BusSyn().generate(build_config_spec(config))
    except Exception as error:  # noqa: BLE001 -- deterministic finding
        # Nothing to check or build: every check reports why.
        checks = {name: _findings_from_error(error) for name in ORACLE_CHECKS}
    else:
        try:
            checks["structural"] = _check_structural(generated)
        except Exception as error:  # noqa: BLE001
            checks["structural"] = _findings_from_error(error)
        try:
            parity = _check_parity(config, generated)
        except Exception as error:  # noqa: BLE001
            parity["findings"] = _findings_from_error(error)
        checks["parity"] = parity["findings"]
        try:
            checks["protocol"] = _check_protocol(
                config, generated, kernel, baseline_cycles=parity["cycles"].get(kernel)
            )
        except Exception as error:  # noqa: BLE001
            checks["protocol"] = _findings_from_error(error)
        try:
            checks["resilience"] = _check_resilience(
                config, generated, case["fault_seed"], case["fault_scale"], kernel
            )
        except Exception as error:  # noqa: BLE001
            checks["resilience"] = _findings_from_error(error)

    # Every check built and dropped whole machines, and a machine's object
    # graph is cyclic: collect them now, so a campaign's peak memory is one
    # case's rather than however many the collector's thresholds let pile up.
    gc.collect()
    failed = sorted(name for name, findings in checks.items() if findings)
    return {
        "oracle_version": ORACLE_VERSION,
        "key": case.get("key") or oracle_cache_key(case),
        "options": case["options"],
        "fault_seed": case["fault_seed"],
        "fault_scale": case["fault_scale"],
        "label": config.label(),
        "ok": not failed,
        "failed_checks": failed,
        "checks": checks,
        "fingerprints": parity["fingerprints"],
    }
