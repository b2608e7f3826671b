"""The bench harness: what no other check measures, gated in one place.

``repro bench`` keeps the kernel microbenches, the compiled-vs-heap A/B,
Table II ``--jobs`` timing and backend parity; the paper tables, the DSE
sweep and the fuzz campaign are timed by ``benchmarks/e2e``.  Every gate
the harness applies lands in its ``failures`` list, which is what
``repro report --check`` reads back from the ledger.
"""

import json

from repro.bench.harness import DEFAULT_BASELINES, run_harness
from repro.obs.ledger import environment
from repro.sim.kernel import KERNEL_BACKENDS


def test_smoke_run_gates_the_full_size_int_yield_of_each_backend(tmp_path):
    with open(DEFAULT_BASELINES) as handle:
        baselines = json.load(handle)
    # A floor no host reaches: each backend's full-size int_yield, timed
    # under --smoke because the floor is enforced, must fail it.
    for entry in baselines["ci_floor"].values():
        entry["int_yield_events_per_sec"] = 1e15
    path = tmp_path / "baselines.json"
    path.write_text(json.dumps(baselines))

    report, failures = run_harness(
        smoke=True, enforce_floor=True, rounds=1, baselines_path=str(path)
    )

    assert not {"run_report", "counters", "dse_sweep", "vs_seed"} & set(report)
    assert report["failures"] == failures == [
        "ci floor: %s int_yield %.0f ev/s is >20%% below the %.0f reference "
        "in baselines.json"
        % (kernel, report["kernel"][kernel]["int_yield"]["events_per_sec"], 1e15)
        for kernel in KERNEL_BACKENDS
    ]
    assert all(
        report["kernel"][kernel]["int_yield"]["procs"] == 64
        for kernel in KERNEL_BACKENDS
    )
    env = environment()
    assert {key: report["provenance"][key] for key in env} == env
