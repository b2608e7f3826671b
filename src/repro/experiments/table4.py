"""Table IV: database example execution time, GGBA vs SplitBA.

Paper rows: GGBA 2,241,100 ns; SplitBA 1,317,804 ns -- a 41 % reduction in
application execution time, the paper's headline number.  Shape assertion:
SplitBA reduces execution time by 30-55 % relative to GGBA, with all 41
tasks completing on both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..apps.database import run_database
from ..options import presets
from ..sim.fabric import build_machine
from .runner import run_cases

__all__ = [
    "Table4Row",
    "TABLE4_PAPER",
    "run_table4",
    "run_table4_telemetry",
    "run_table4_case",
    "check_table4_shape",
]

TABLE4_PAPER: Dict[str, float] = {
    "GGBA": 2_241_100.0,
    "SPLITBA": 1_317_804.0,
}

TABLE4_CASES = ["GGBA", "SPLITBA"]


@dataclass
class Table4Row:
    case: int
    bus_system: str
    execution_time_ns: float
    tasks_completed: int
    lock_contentions: int
    paper_ns: float

    def text(self) -> str:
        return "%2d  %-8s  %12.0f ns  (paper: %.0f)  tasks=%d" % (
            self.case,
            self.bus_system,
            self.execution_time_ns,
            self.paper_ns,
            self.tasks_completed,
        )


def run_table4_case(
    case: Tuple[int, str],
    client_count: int = 40,
    pe_count: int = 4,
    telemetry: bool = False,
    kernel: Optional[str] = None,
) -> Table4Row:
    """Simulate one ``(case number, bus)`` Table IV entry; picklable."""
    number, bus_name = case
    machine = build_machine(presets.preset(bus_name, pe_count), kernel=kernel)
    if telemetry:
        from ..obs import Observability
        from ..obs.report import record_run

        machine.attach_observability(Observability())
    start = time.perf_counter()
    result = run_database(machine, client_count=client_count)
    if telemetry:
        record_run(
            machine.run_report(
                wall_seconds=time.perf_counter() - start,
                name="table4:%d %s" % (number, bus_name),
            )
        )
    return Table4Row(
        number,
        bus_name,
        result.execution_time_ns,
        result.tasks_completed,
        result.lock_contentions,
        TABLE4_PAPER[bus_name],
    )


def run_table4(
    client_count: int = 40,
    pe_count: int = 4,
    cases: Optional[List[str]] = None,
    jobs: int = 1,
    kernel: Optional[str] = None,
) -> List[Table4Row]:
    rows, _telemetry = run_table4_telemetry(
        client_count=client_count,
        pe_count=pe_count,
        cases=cases,
        jobs=jobs,
        telemetry=False,
        kernel=kernel,
    )
    return rows


def run_table4_telemetry(
    client_count: int = 40,
    pe_count: int = 4,
    cases: Optional[List[str]] = None,
    jobs: int = 1,
    telemetry: bool = True,
    kernel: Optional[str] = None,
):
    """(rows, telemetry) for Table IV; ``telemetry=True`` attaches RunReports."""
    numbered = list(enumerate(cases or TABLE4_CASES, start=15))
    return run_cases(
        run_table4_case,
        numbered,
        jobs=jobs,
        kwargs={
            "client_count": client_count,
            "pe_count": pe_count,
            "telemetry": telemetry,
            "kernel": kernel,
        },
    )


def check_table4_shape(rows: List[Table4Row]) -> List[str]:
    value = {row.bus_system: row for row in rows}
    failures: List[str] = []
    for row in rows:
        if row.tasks_completed != 41:
            failures.append(
                "%s completed %d tasks, expected 41" % (row.bus_system, row.tasks_completed)
            )
    reduction = 1 - value["SPLITBA"].execution_time_ns / value["GGBA"].execution_time_ns
    if not 0.30 <= reduction <= 0.55:
        failures.append(
            "SplitBA reduction vs GGBA is %.1f%%, expected ~41%% (30-55%% band)"
            % (reduction * 100)
        )
    return failures


def main(jobs: int = 1, kernel: Optional[str] = None) -> list:  # pragma: no cover
    rows = run_table4(jobs=jobs, kernel=kernel)
    print("Table IV -- database example execution time")
    for row in rows:
        print(row.text())
    reduction = 1 - rows[1].execution_time_ns / rows[0].execution_time_ns
    print("reduction: %.1f%% (paper: 41%%)" % (reduction * 100))
    failures = check_table4_shape(rows)
    print("shape check:", "OK" if not failures else failures)
    return rows

if __name__ == "__main__":  # pragma: no cover
    main()
