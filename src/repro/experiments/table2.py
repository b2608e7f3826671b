"""Table II: OFDM transmitter throughput over nine bus/style cases.

Paper rows (Mbps): BFBA/PPA 2.6504, GBAVI/PPA 2.1087, GBAVIII/FPA 4.5599,
GBAVIII/PPA 2.2567, Hybrid/FPA 4.5599, Hybrid/PPA 2.6504, SplitBA/FPA
5.1132, GGBA/FPA 4.3913, GGBA/PPA 2.1880.  (The printed table's style
column labels cases 2 and 9 "FPA", but the text's observations (A) and (D)
compare them as PPA cases -- GBAVI and BFBA have no shared memory for FPA
-- so we treat them as the PPA typo the text implies.)

Shape assertions enforced (DESIGN.md section 2):

* SplitBA-FPA is the best case, and beats GGBA-FPA by double digits
  (paper: 16.44 %);
* FPA beats PPA on every architecture that supports both;
* Hybrid-FPA equals GBAVIII-FPA and Hybrid-PPA equals BFBA-PPA (the
  hybrid exercises exactly the corresponding half of its hardware);
* PPA ordering: BFBA > GBAVIII > GGBA > GBAVI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..apps.ofdm import OfdmParameters, run_ofdm
from ..options import presets
from ..sim.fabric import build_machine
from .runner import run_cases

__all__ = [
    "Table2Row",
    "TABLE2_PAPER",
    "TABLE2_CASES",
    "run_table2",
    "run_table2_telemetry",
    "run_table2_case",
    "check_table2_shape",
]

# (case number, preset, style) as in the paper's Table II.
TABLE2_CASES: List[Tuple[int, str, str]] = [
    (1, "BFBA", "PPA"),
    (2, "GBAVI", "PPA"),
    (3, "GBAVIII", "FPA"),
    (4, "GBAVIII", "PPA"),
    (5, "HYBRID", "FPA"),
    (6, "HYBRID", "PPA"),
    (7, "SPLITBA", "FPA"),
    (8, "GGBA", "FPA"),
    (9, "GGBA", "PPA"),
]

TABLE2_PAPER: Dict[Tuple[str, str], float] = {
    ("BFBA", "PPA"): 2.6504,
    ("GBAVI", "PPA"): 2.1087,
    ("GBAVIII", "FPA"): 4.5599,
    ("GBAVIII", "PPA"): 2.2567,
    ("HYBRID", "FPA"): 4.5599,
    ("HYBRID", "PPA"): 2.6504,
    ("SPLITBA", "FPA"): 5.1132,
    ("GGBA", "FPA"): 4.3913,
    ("GGBA", "PPA"): 2.1880,
}


@dataclass
class Table2Row:
    case: int
    bus_system: str
    style: str
    throughput_mbps: float
    cycles: int
    paper_mbps: float

    def text(self) -> str:
        return "%2d  %-8s %-4s  %8.4f Mbps  (paper: %.4f)" % (
            self.case,
            self.bus_system,
            self.style,
            self.throughput_mbps,
            self.paper_mbps,
        )


def run_table2_case(
    case: Tuple[int, str, str],
    packets: int = 8,
    pe_count: int = 4,
    telemetry: bool = False,
    kernel: Optional[str] = None,
) -> Table2Row:
    """Simulate one Table II case (a ``TABLE2_CASES`` entry); picklable.

    ``telemetry=True`` attaches the observability layer and records a
    :class:`~repro.obs.report.RunReport` (drained by the runner into the
    case telemetry); ``kernel`` selects the scheduler backend; rows are
    bit-identical either way.
    """
    number, bus_name, style = case
    machine = build_machine(presets.preset(bus_name, pe_count), kernel=kernel)
    if telemetry:
        from ..obs import Observability
        from ..obs.report import record_run

        machine.attach_observability(Observability())
    start = time.perf_counter()
    result = run_ofdm(machine, style, OfdmParameters(packets=packets))
    if telemetry:
        record_run(
            machine.run_report(
                wall_seconds=time.perf_counter() - start,
                name="table2:%d %s/%s" % (number, bus_name, style),
            )
        )
    return Table2Row(
        number,
        bus_name,
        style,
        result.throughput_mbps,
        result.cycles,
        TABLE2_PAPER[(bus_name, style)],
    )


def run_table2(
    packets: int = 8,
    pe_count: int = 4,
    cases: Optional[List[Tuple[int, str, str]]] = None,
    jobs: int = 1,
    kernel: Optional[str] = None,
) -> List[Table2Row]:
    """Simulate every Table II case; returns rows in case order.

    ``jobs > 1`` fans the independent cases out over worker processes via
    :func:`repro.experiments.runner.run_cases`; row order and values are
    identical to a sequential run.  Use :func:`run_table2_telemetry` to
    also receive the per-case :class:`~repro.experiments.runner.CaseTelemetry`.
    """
    rows, _telemetry = run_table2_telemetry(
        packets=packets,
        pe_count=pe_count,
        cases=cases,
        jobs=jobs,
        telemetry=False,
        kernel=kernel,
    )
    return rows


def run_table2_telemetry(
    packets: int = 8,
    pe_count: int = 4,
    cases: Optional[List[Tuple[int, str, str]]] = None,
    jobs: int = 1,
    telemetry: bool = True,
    kernel: Optional[str] = None,
):
    """(rows, telemetry) for Table II; ``telemetry=True`` attaches RunReports."""
    return run_cases(
        run_table2_case,
        list(cases or TABLE2_CASES),
        jobs=jobs,
        kwargs={
            "packets": packets,
            "pe_count": pe_count,
            "telemetry": telemetry,
            "kernel": kernel,
        },
    )


def check_table2_shape(rows: List[Table2Row]) -> List[str]:
    """Verify the paper's qualitative claims; returns failure strings."""
    value = {(row.bus_system, row.style): row.throughput_mbps for row in rows}
    failures: List[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    best = max(rows, key=lambda row: row.throughput_mbps)
    expect(
        (best.bus_system, best.style) == ("SPLITBA", "FPA"),
        "best case is %s/%s, expected SplitBA/FPA" % (best.bus_system, best.style),
    )
    expect(
        value[("SPLITBA", "FPA")] > 1.10 * value[("GGBA", "FPA")],
        "SplitBA-FPA should beat GGBA-FPA by double digits (paper: 16.44%%), "
        "got %.1f%%" % ((value[("SPLITBA", "FPA")] / value[("GGBA", "FPA")] - 1) * 100),
    )
    for bus_name in ("GBAVIII", "HYBRID", "GGBA"):
        expect(
            value[(bus_name, "FPA")] > value[(bus_name, "PPA")],
            "%s: FPA should beat PPA" % bus_name,
        )
    expect(
        abs(value[("HYBRID", "FPA")] - value[("GBAVIII", "FPA")])
        <= 0.02 * value[("GBAVIII", "FPA")],
        "Hybrid-FPA should match GBAVIII-FPA (paper: identical)",
    )
    expect(
        abs(value[("HYBRID", "PPA")] - value[("BFBA", "PPA")])
        <= 0.02 * value[("BFBA", "PPA")],
        "Hybrid-PPA should match BFBA-PPA (paper: identical)",
    )
    ppa_order = [
        value[("BFBA", "PPA")],
        value[("GBAVIII", "PPA")],
        value[("GGBA", "PPA")],
        value[("GBAVI", "PPA")],
    ]
    expect(
        all(a > b for a, b in zip(ppa_order, ppa_order[1:])),
        "PPA ordering should be BFBA > GBAVIII > GGBA > GBAVI, got %s" % ppa_order,
    )
    return failures


def main(jobs: int = 1, kernel: Optional[str] = None) -> list:  # pragma: no cover - CLI convenience
    rows = run_table2(jobs=jobs, kernel=kernel)
    print("Table II -- OFDM transmitter throughput")
    for row in rows:
        print(row.text())
    failures = check_table2_shape(rows)
    print("shape check:", "OK" if not failures else failures)
    return rows

if __name__ == "__main__":  # pragma: no cover
    main()
