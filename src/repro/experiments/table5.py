"""Table V: generation time and gate count of the generator itself.

For each of the five generated bus architectures at 1/8/16/24 processors,
BusSyn's wall-clock generation time (milliseconds) and the NAND2 gate
estimate of the generated bus logic.  Shape assertions:

* every generation finishes in well under one second (the paper's point:
  "a matter of seconds instead of weeks");
* every generated design is structurally clean (zero lint errors);
* gate counts grow close to linearly with PE count;
* per-PE cost ordering: Hybrid > GBAVIII > {GBAVI, BFBA} > SplitBA.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.busyn import BusSyn
from ..options import presets
from .runner import run_cases

__all__ = [
    "Table5Row",
    "TABLE5_PAPER",
    "run_table5",
    "run_table5_telemetry",
    "run_table5_case",
    "check_table5_shape",
]

# Paper values: {bus: {pe_count: (time_ms, gates)}}
TABLE5_PAPER: Dict[str, Dict[int, Tuple[float, int]]] = {
    "BFBA": {1: (509, 800), 8: (534, 6401), 16: (546, 12793), 24: (578, 19188)},
    "GBAVI": {1: (417, 872), 8: (432, 5809), 16: (457, 13751), 24: (506, 21156)},
    "GBAVIII": {1: (513, 2070), 8: (534, 14746), 16: (563, 30798), 24: (590, 48395)},
    "HYBRID": {1: (763, 2973), 8: (859, 21869), 16: (928, 44847), 24: (983, 69697)},
    "SPLITBA": {8: (413, 4207), 16: (440, 8605), 24: (491, 16110)},
}

TABLE5_BUSES = ["BFBA", "GBAVI", "GBAVIII", "HYBRID", "SPLITBA"]
TABLE5_PE_COUNTS = [1, 8, 16, 24]


@dataclass
class Table5Row:
    bus_system: str
    pe_count: int
    generation_time_ms: float
    gate_count: int
    lint_errors: int
    paper_gates: Optional[int]

    def text(self) -> str:
        paper = str(self.paper_gates) if self.paper_gates else "N/A"
        return "%-8s %2d PEs  %7.1f ms  %7d gates (paper: %s)" % (
            self.bus_system,
            self.pe_count,
            self.generation_time_ms,
            self.gate_count,
            paper,
        )


def run_table5_case(case: Tuple[str, int], telemetry: bool = False) -> Table5Row:
    """Generate one ``(bus, pe_count)`` Table V entry; picklable."""
    bus_name, pe_count = case
    start = time.perf_counter()
    generated = BusSyn().generate(presets.preset(bus_name, pe_count))
    if telemetry:
        # Generation runs no simulator; the RunReport carries wall time and
        # generator outputs in ``extras`` so `repro stats 5` aggregates too.
        from ..obs.report import RunReport, record_run

        record_run(
            RunReport(
                name="table5:%s/%d" % (bus_name, pe_count),
                wall_seconds=time.perf_counter() - start,
                extras={
                    "generation_time_ms": generated.report.generation_time_ms,
                    "gate_count": generated.report.gate_count,
                    "lint_errors": len(generated.lint_errors()),
                },
            )
        )
    paper = TABLE5_PAPER.get(bus_name, {}).get(pe_count)
    return Table5Row(
        bus_name,
        pe_count,
        generated.report.generation_time_ms,
        generated.report.gate_count,
        len(generated.lint_errors()),
        paper[1] if paper else None,
    )


def run_table5(
    buses: Optional[List[str]] = None,
    pe_counts: Optional[List[int]] = None,
    jobs: int = 1,
    kernel: Optional[str] = None,
) -> List[Table5Row]:
    rows, _telemetry = run_table5_telemetry(
        buses=buses, pe_counts=pe_counts, jobs=jobs, telemetry=False,
        kernel=kernel,
    )
    return rows


def run_table5_telemetry(
    buses: Optional[List[str]] = None,
    pe_counts: Optional[List[int]] = None,
    jobs: int = 1,
    telemetry: bool = True,
    kernel: Optional[str] = None,
):
    """(rows, telemetry) for Table V; ``telemetry=True`` attaches RunReports.

    ``kernel`` is accepted for interface symmetry with Tables II-IV but has
    no effect: Table V measures architecture *generation* and never builds a
    Simulator, so its rows are scheduler-backend-independent by construction.
    """
    cases = [
        (bus_name, pe_count)
        for bus_name in (buses or TABLE5_BUSES)
        for pe_count in (pe_counts or TABLE5_PE_COUNTS)
        if not (bus_name == "SPLITBA" and pe_count < 2)  # N/A in the paper too
    ]
    return run_cases(
        run_table5_case, cases, jobs=jobs, kwargs={"telemetry": telemetry}
    )


def check_table5_shape(rows: List[Table5Row]) -> List[str]:
    failures: List[str] = []
    by_bus: Dict[str, List[Table5Row]] = {}
    for row in rows:
        by_bus.setdefault(row.bus_system, []).append(row)
        if row.generation_time_ms > 10_000:
            failures.append(
                "%s @ %d PEs took %.0f ms (> 10 s)"
                % (row.bus_system, row.pe_count, row.generation_time_ms)
            )
        if row.lint_errors:
            failures.append(
                "%s @ %d PEs has %d lint errors"
                % (row.bus_system, row.pe_count, row.lint_errors)
            )

    # Near-linear gate scaling in PE count.
    per_pe: Dict[str, float] = {}
    for bus_name, bus_rows in by_bus.items():
        scalable = [row for row in bus_rows if row.pe_count >= 8]
        if len(scalable) >= 2:
            slopes = [
                (b.gate_count - a.gate_count) / (b.pe_count - a.pe_count)
                for a, b in zip(scalable, scalable[1:])
            ]
            if max(slopes) > 1.3 * min(slopes):
                failures.append("%s gate scaling is not near-linear" % bus_name)
            per_pe[bus_name] = sum(slopes) / len(slopes)

    ordering = ["HYBRID", "GBAVIII", "GBAVI", "SPLITBA"]
    if all(bus in per_pe for bus in ordering):
        values = [per_pe[bus] for bus in ordering]
        if not all(a > b for a, b in zip(values, values[1:])):
            failures.append(
                "per-PE gate ordering should be Hybrid > GBAVIII > GBAVI > SplitBA, got %s"
                % {bus: round(per_pe[bus]) for bus in ordering}
            )
    if "BFBA" in per_pe and "GBAVIII" in per_pe:
        if not per_pe["GBAVIII"] > per_pe["BFBA"] > per_pe.get("SPLITBA", 0):
            failures.append("BFBA per-PE cost should sit between GBAVIII and SplitBA")
    return failures


def main(jobs: int = 1, kernel: Optional[str] = None) -> list:  # pragma: no cover
    rows = run_table5(jobs=jobs, kernel=kernel)
    print("Table V -- generation time and gate count")
    for row in rows:
        print(row.text())
    failures = check_table5_shape(rows)
    print("shape check:", "OK" if not failures else failures)
    return rows

if __name__ == "__main__":  # pragma: no cover
    main()
