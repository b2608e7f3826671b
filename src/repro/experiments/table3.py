"""Table III: MPEG2 decoder throughput over five bus systems (FPA).

Paper rows (Mbps): BFBA 0.8594, GBAVI 0.8271, GBAVIII 1.1444, Hybrid
1.1650, CCBA 1.0083.  Shape assertions:

* Hybrid is best and beats CCBA by double digits (paper: 15.54 %);
* GBAVIII also beats CCBA (the 3- vs 5-cycle read-arbitration margin);
* BFBA and GBAVI trail badly (sequential BAN-to-BAN relay), GBAVI last.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..apps.mpeg2.codec import decode_sequence, synthetic_stream
from ..apps.mpeg2.parallel import run_mpeg2
from ..options import presets
from ..sim.fabric import build_machine
from .runner import run_cases

__all__ = [
    "Table3Row",
    "TABLE3_PAPER",
    "TABLE3_CASES",
    "run_table3",
    "run_table3_telemetry",
    "run_table3_case",
    "check_table3_shape",
]

TABLE3_CASES = ["BFBA", "GBAVI", "GBAVIII", "HYBRID", "CCBA"]

TABLE3_PAPER: Dict[str, float] = {
    "BFBA": 0.8594,
    "GBAVI": 0.8271,
    "GBAVIII": 1.1444,
    "HYBRID": 1.1650,
    "CCBA": 1.0083,
}


@dataclass
class Table3Row:
    case: int
    bus_system: str
    throughput_mbps: float
    cycles: int
    paper_mbps: float
    frames_correct: bool

    def text(self) -> str:
        return "%2d  %-8s  %8.4f Mbps  (paper: %.4f)  decode %s" % (
            self.case,
            self.bus_system,
            self.throughput_mbps,
            self.paper_mbps,
            "OK" if self.frames_correct else "MISMATCH",
        )


@lru_cache(maxsize=2)
def _reference_decode(frame_count: int):
    """The serial decode of the shared ``frame_count``-frame stream, by
    ``(gop, frame)`` -- computed once per process.  Deterministic, so every
    worker derives the identical reference; within one process (the
    sequential path) it is shared by all cases."""
    reference_gops, _stats = decode_sequence(synthetic_stream(frame_count))
    return {
        (gop.index, index): frame
        for gop in reference_gops
        for index, frame in enumerate(gop.frames)
    }


def run_table3_case(
    case: Tuple[int, str],
    frame_count: int = 16,
    pe_count: int = 4,
    telemetry: bool = False,
    kernel: Optional[str] = None,
) -> Table3Row:
    """Simulate one ``(case number, bus)`` Table III entry; picklable."""
    number, bus_name = case
    reference = _reference_decode(frame_count)
    machine = build_machine(presets.preset(bus_name, pe_count), kernel=kernel)
    if telemetry:
        from ..obs import Observability
        from ..obs.report import record_run

        machine.attach_observability(Observability())
    start = time.perf_counter()
    result = run_mpeg2(machine, frame_count=frame_count)
    if telemetry:
        record_run(
            machine.run_report(
                wall_seconds=time.perf_counter() - start,
                name="table3:%d %s" % (number, bus_name),
            )
        )
    correct = len(result.frames) == len(reference) and all(
        np.allclose(result.frames[key].y, reference[key].y, atol=0.51)
        and np.allclose(result.frames[key].cb, reference[key].cb, atol=0.51)
        for key in reference
    )
    return Table3Row(
        number,
        bus_name,
        result.throughput_mbps,
        result.cycles,
        TABLE3_PAPER[bus_name],
        correct,
    )


def run_table3(
    frame_count: int = 16,
    pe_count: int = 4,
    cases: Optional[List[str]] = None,
    jobs: int = 1,
    kernel: Optional[str] = None,
) -> List[Table3Row]:
    """Simulate the Table III cases, verifying decoded frames bit-exactly
    (to the 8-bit output rounding) against a serial reference decode."""
    rows, _telemetry = run_table3_telemetry(
        frame_count=frame_count,
        pe_count=pe_count,
        cases=cases,
        jobs=jobs,
        telemetry=False,
        kernel=kernel,
    )
    return rows


def run_table3_telemetry(
    frame_count: int = 16,
    pe_count: int = 4,
    cases: Optional[List[str]] = None,
    jobs: int = 1,
    telemetry: bool = True,
    kernel: Optional[str] = None,
):
    """(rows, telemetry) for Table III; ``telemetry=True`` attaches RunReports."""
    numbered = list(enumerate(cases or TABLE3_CASES, start=10))
    return run_cases(
        run_table3_case,
        numbered,
        jobs=jobs,
        kwargs={
            "frame_count": frame_count,
            "pe_count": pe_count,
            "telemetry": telemetry,
            "kernel": kernel,
        },
    )


def check_table3_shape(rows: List[Table3Row]) -> List[str]:
    value = {row.bus_system: row.throughput_mbps for row in rows}
    failures: List[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    for row in rows:
        expect(row.frames_correct, "%s decoded frames mismatch" % row.bus_system)
    expect(
        max(value, key=value.get) == "HYBRID",
        "Hybrid should be the best case (paper: 1.1650)",
    )
    expect(
        value["HYBRID"] > 1.05 * value["CCBA"],
        "Hybrid should beat CCBA by double digits (paper: 15.54%%), got %.1f%%"
        % ((value["HYBRID"] / value["CCBA"] - 1) * 100),
    )
    expect(value["GBAVIII"] > value["CCBA"], "GBAVIII should beat CCBA (3 vs 5 cycle grant)")
    expect(
        value["CCBA"] > value["BFBA"] > value["GBAVI"],
        "relay architectures should trail: CCBA > BFBA > GBAVI",
    )
    return failures


def main(jobs: int = 1, kernel: Optional[str] = None) -> list:  # pragma: no cover
    rows = run_table3(jobs=jobs, kernel=kernel)
    print("Table III -- MPEG2 decoder throughput")
    for row in rows:
        print(row.text())
    failures = check_table3_shape(rows)
    print("shape check:", "OK" if not failures else failures)
    return rows

if __name__ == "__main__":  # pragma: no cover
    main()
