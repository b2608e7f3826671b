"""One benchmark round in a fresh interpreter (started by ``run.py``).

``repro`` is a CLI, so every round starts cold: Table III's reference
decode, the BusSyn memo and the compiled run loops are rebuilt each time,
as a user's invocation would.  Prints one JSON line: ``setup_s`` (first
statement to the workload call: imports and input construction),
``wall_s`` (the workload call), ``peak_rss_mb`` (``ru_maxrss`` after the
call), the simulator events processed, and the output check.  With
``--pstats`` the call runs under cProfile -- enabled around the call and
nowhere else -- and the round adds per-layer self time.

    python benchmarks/e2e/round.py WORKLOAD [--smoke] [--pstats FILE] --scratch DIR
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--pstats", help="trace the call with cProfile and dump stats here")
    parser.add_argument("--scratch", required=True, help="directory for the round's files")
    args = parser.parse_args(argv)

    import workloads
    from repro.sim.kernel import total_events_processed

    scratch = tempfile.mkdtemp(prefix=args.workload + "-", dir=args.scratch)
    try:
        call, check = workloads.prepare(args.workload, args.smoke, scratch)
        setup_s = time.perf_counter() - _START
        profiler = None
        if args.pstats:
            import cProfile

            profiler = cProfile.Profile()
        events = total_events_processed()
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        result = call()
        if profiler is not None:
            profiler.disable()
        wall_s = time.perf_counter() - start
        events = total_events_processed() - events
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
            "events": events,
        }
        record.update(check(result))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if profiler is not None:
        import marshal

        import layers

        stats = layers.profile_stats(profiler)
        with open(args.pstats, "wb") as handle:
            marshal.dump(stats, handle)  # the format pstats.Stats(path) reads
        record["layers"] = layers.attribute(stats, layers.Classifier())
    print(json.dumps(record))


if __name__ == "__main__":
    main()
