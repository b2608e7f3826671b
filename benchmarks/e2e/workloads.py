"""The four end-to-end workloads: what each round runs and how it is checked.

Each workload is defined here and nowhere else -- none reads
``bench_spec()`` or ``corpus/`` -- so a change under ``src/`` cannot move
the yardstick.  :func:`prepare` builds a round's inputs and returns
``(call, check)``: ``call()`` is the public entry-point call that is timed
(or traced), and ``check(result)`` returns the round's shape problems,
output fingerprints and model error against the paper.

Every round runs with ``jobs=1`` and ``kernel="compiled"``.  The inputs
are fixed: the paper's cases, a pinned sweep and a pinned fuzz campaign.
Inputs drawn from a seed moved a round's cost by more than the bounds:
16-case fuzz campaigns at seeds 1-9 took 0.5x to 1.8x the time of the
pinned one, and shuffling the order of the Table II cases spread
``peak_rss_mb`` over 53-62 MB.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Tuple

from repro.dse.engine import run_sweep, sweep_fingerprint
from repro.dse.spec import SweepSpec
from repro.experiments.table2 import TABLE2_CASES, check_table2_shape, run_table2
from repro.experiments.table3 import check_table3_shape, run_table3
from repro.experiments.table4 import check_table4_shape, run_table4
from repro.experiments.table5 import check_table5_shape, run_table5
from repro.fuzz.runner import run_fuzz
from repro.obs.ledger import content_hash

KERNEL = "compiled"

#: The pinned sweep: 6 buses x {2, 4, 8} PEs x {PPA, FPA} x {32, 64} bits
#: x 3 arbiter policies at 1 packet -- 126 legal configs.  Many short
#: simulations, so per-config generation, machine build and artifact-store
#: writes weigh more here than in any other workload.
DSE_SPEC = {
    "name": "e2e",
    "axes": {
        "bus": ["GBAVIII", "BFBA", "SPLITBA", "HYBRID", "GGBA", "CCBA"],
        "pes": [2, 4, 8],
        "style": ["PPA", "FPA"],
        "data_width": [32, 64],
        "arbiter_policy": ["fcfs", "round_robin", "priority"],
        "packets": [1],
    },
}
DSE_CONFIGS = 126

#: The pinned fuzz campaign (the seed CI fuzzes with).
FUZZ_SEED = 2003
FUZZ_BUDGET = 16

Check = Callable[[Any], Dict[str, Any]]


def _mean_relative_error(pairs: List[Tuple[float, float]]) -> float:
    return statistics.fmean(abs(model - paper) / paper for model, paper in pairs)


def _rows_hash(rows: List[Any], drop: Tuple[str, ...] = ()) -> str:
    return content_hash(
        {"rows": [{k: v for k, v in asdict(row).items() if k not in drop} for row in rows]}
    )


def _table2(smoke: bool, scratch: str) -> Tuple[Callable[[], Any], Check]:
    cases = TABLE2_CASES[:2] if smoke else TABLE2_CASES

    def call():
        return run_table2(packets=1 if smoke else 8, cases=cases, jobs=1, kernel=KERNEL)

    def check(rows):
        return {
            "problems": [] if smoke else check_table2_shape(rows),
            "fingerprints": {"table2": _rows_hash(rows)},
            "model_error": {
                "table2": _mean_relative_error(
                    [(row.throughput_mbps, row.paper_mbps) for row in rows]
                )
            },
        }

    return call, check


def _tables345(smoke: bool, scratch: str) -> Tuple[Callable[[], Any], Check]:
    def call():
        return (
            run_table3(frame_count=2 if smoke else 16, jobs=1, kernel=KERNEL),
            run_table4(client_count=10 if smoke else 40, jobs=1, kernel=KERNEL),
            run_table5(pe_counts=[1] if smoke else None, jobs=1, kernel=KERNEL),
        )

    def check(result):
        rows3, rows4, rows5 = result
        problems = []
        if not smoke:
            problems = (
                check_table3_shape(rows3) + check_table4_shape(rows4) + check_table5_shape(rows5)
            )
        return {
            "problems": problems,
            "fingerprints": {
                "table3": _rows_hash(rows3),
                "table4": _rows_hash(rows4),
                # Generation time is a host measurement, not an output.
                "table5": _rows_hash(rows5, drop=("generation_time_ms",)),
            },
            "model_error": {
                "table3": _mean_relative_error(
                    [(row.throughput_mbps, row.paper_mbps) for row in rows3]
                ),
                "table4": _mean_relative_error(
                    [(row.execution_time_ns, row.paper_ns) for row in rows4]
                ),
                "table5": _mean_relative_error(
                    [(row.gate_count, row.paper_gates) for row in rows5 if row.paper_gates]
                ),
            },
        }

    return call, check


def _dse(smoke: bool, scratch: str) -> Tuple[Callable[[], Any], Check]:
    spec = SweepSpec.from_dict(DSE_SPEC)
    cache_dir = os.path.join(scratch, "dse-cache")

    def call():
        return run_sweep(
            spec, jobs=1, kernel=KERNEL, budget=4 if smoke else None, cache_dir=cache_dir
        )

    def check(summary):
        problems = []
        if summary["errors"]:
            problems.append("%d DSE error row(s)" % summary["errors"])
        expected = 4 if smoke else DSE_CONFIGS
        if summary["configs"] != expected:
            problems.append("%d configs swept, expected %d" % (summary["configs"], expected))
        if summary["cache_stats"]["hits"]:
            problems.append("a cold sweep hit the artifact cache")
        return {
            "problems": problems,
            "fingerprints": {"sweep": sweep_fingerprint(summary)},
            "model_error": {},
        }

    return call, check


def _fuzz(smoke: bool, scratch: str) -> Tuple[Callable[[], Any], Check]:
    corpus_dir = os.path.join(scratch, "corpus")
    os.makedirs(corpus_dir)
    cache_dir = os.path.join(scratch, "fuzz-cache")

    def call():
        return run_fuzz(
            seed=FUZZ_SEED,
            budget=2 if smoke else FUZZ_BUDGET,
            jobs=1,
            kernel=KERNEL,
            corpus_dir=corpus_dir,
            cache_dir=cache_dir,
            write_findings=False,
        )

    def check(summary):
        problems = [
            "fuzz verdict failed: %s [%s]" % (row["label"], ", ".join(row["failed_checks"]))
            for row in summary["results"]
            if not row["ok"]
        ]
        # Not fuzz_fingerprint: that also covers the oracle version, which
        # a legitimate oracle change bumps.
        surface = {key: summary[key] for key in ("seed", "draws", "sampled", "skipped", "results")}
        return {
            "problems": problems,
            "fingerprints": {"campaign": content_hash(surface)},
            "model_error": {},
        }

    return call, check


_PREPARE = {"table2": _table2, "tables345": _tables345, "dse": _dse, "fuzz": _fuzz}


def prepare(workload: str, smoke: bool, scratch: str) -> Tuple[Callable[[], Any], Check]:
    """``(call, check)`` for one round of ``workload``; ``scratch`` is an
    empty directory the round may write into."""
    return _PREPARE[workload](smoke, scratch)
