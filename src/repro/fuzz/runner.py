"""The fuzz loop: corpus replay, budgeted sweep, shrink, corpus write.

``run_fuzz`` is what ``repro fuzz --budget N --seed S --jobs J`` drives:

1. **Corpus replay** -- every checked-in entry is re-judged *fresh* (the
   artifact cache is deliberately bypassed on reads here: a cached
   verdict predates the current working tree, and the whole point of
   replay is to judge today's code).  An ``open`` entry passing means the
   bug got fixed (flip its status); a ``fixed`` entry failing is a
   regression.
2. **Budgeted sweep** -- ``budget`` unique legal cases sampled from the
   seeded generator, sharded by case hash over the experiment process
   pool (same discipline as ``repro dse``), each judged by the composed
   oracle with verdicts memoized in the artifact cache (kind ``"fuzz"``,
   keyed by case + oracle version -- a re-run of the same seed is all
   cache hits).
3. **Shrink + corpus** -- every failing case is greedily shrunk in the
   parent process (shrink steps share the cache-backed evaluator), and
   each *new* minimal repro is written to the corpus; a minimal case
   whose file already exists is reported as known, never overwritten
   (so a triaged ``fixed`` entry cannot be silently re-opened).

The summary's hashed surface -- sampled cases, skip counters, replay
outcomes, verdict rows, findings with full shrink traces -- is
bit-identical across ``--jobs`` values, scheduler backends and cache
states; everything wall-clock or cache-dependent sits under
ledger-scrubbed keys, exactly like the DSE sweep.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..dse.cache import DEFAULT_CACHE_DIR, ArtifactCache
from ..dse.engine import shard_of
from ..experiments.runner import run_cases
from ..obs.ledger import content_hash, scrub_timings
from .corpus import DEFAULT_CORPUS_DIR, build_entry, load_corpus, write_entry
from .generator import FuzzProfile, sample_cases
from .oracle import ORACLE_VERSION, evaluate_case, oracle_cache_key
from .shrink import shrink_case

__all__ = [
    "run_fuzz",
    "run_fuzz_shard",
    "shrink_fuzz_case",
    "replay_corpus",
    "fuzz_fingerprint",
    "format_fuzz_lines",
]


@contextmanager
def _frozen_heap() -> Iterator[None]:
    """Collect once, then freeze what survives for the loop inside.

    ``evaluate_case`` collects after every case to keep peak memory at one
    case's worth; with the interpreter's startup heap frozen, those
    collections walk only what the cases made since."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _cached_evaluator(
    cache: Optional[ArtifactCache], kernel: str, use_cache: bool = True
) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
    def evaluate(case: Dict[str, Any]) -> Dict[str, Any]:
        key = oracle_cache_key(case)
        if cache is not None and use_cache:
            stored = cache.get_json("fuzz", key)
            if stored is not None:
                return stored
        verdict = evaluate_case(case, kernel=kernel)
        if cache is not None:
            cache.put_json("fuzz", key, verdict)
        return verdict

    return evaluate


def run_fuzz_shard(
    shard: Tuple[int, List[Dict[str, Any]]],
    cache_dir: Optional[str] = None,
    kernel: str = "heap",
    use_cache: bool = True,
) -> Dict[str, Any]:
    """Judge one shard of cases (module-level: pool-worker addressable)."""
    shard_index, cases = shard
    cache = ArtifactCache(cache_dir) if cache_dir else None
    evaluate = _cached_evaluator(cache, kernel, use_cache=use_cache)
    start = time.perf_counter()
    with _frozen_heap():
        verdicts = [evaluate(case) for case in cases]
    hits = cache.hits if cache is not None else 0
    return {
        "shard": shard_index,
        "cases": len(cases),
        "hits": hits,
        "misses": len(cases) - hits,
        "seconds": time.perf_counter() - start,
        "verdicts": verdicts,
    }


def shrink_fuzz_case(
    payload: Dict[str, Any],
    cache_dir: Optional[str] = None,
    kernel: str = "heap",
    use_cache: bool = True,
) -> Dict[str, Any]:
    """Shrink one failing case (module-level: pool-worker addressable).

    ``payload`` is ``{"case": ..., "verdict": ...}``; shrink-step verdicts
    go through the shared artifact cache, so concurrent shrinks that
    converge onto the same minimal config share their candidate
    evaluations.
    """
    cache = ArtifactCache(cache_dir) if cache_dir else None
    evaluate = _cached_evaluator(cache, kernel, use_cache=use_cache)
    with _frozen_heap():
        return shrink_case(
            payload["case"], verdict=payload["verdict"], evaluate=evaluate, kernel=kernel
        )


def replay_corpus(
    corpus_dir: str,
    kernel: str = "heap",
    cache: Optional[ArtifactCache] = None,
) -> Dict[str, Any]:
    """Re-judge every corpus entry against the current tree.

    Cache reads are bypassed (fresh verdicts only -- see module
    docstring); fresh verdicts are still *written* so the sweep benefits.
    """
    evaluate = _cached_evaluator(cache, kernel, use_cache=False)
    rows: List[Dict[str, Any]] = []
    regressions = 0
    fixed = 0
    with _frozen_heap():
        for entry in load_corpus(corpus_dir):
            verdict = evaluate(entry["case"])
            expected_fail = entry["status"] == "open"
            stable = verdict["ok"] != expected_fail
            if not stable:
                if entry["status"] == "fixed":
                    regressions += 1
                else:
                    fixed += 1
            rows.append(
                {
                    "file": entry["file"],
                    "key": entry["key"],
                    "status": entry["status"],
                    "label": verdict["label"],
                    "ok": verdict["ok"],
                    "failed_checks": verdict["failed_checks"],
                    "stable": stable,
                }
            )
    return {
        "entries": len(rows),
        "stable": sum(1 for row in rows if row["stable"]),
        "regressions": regressions,
        "now_fixed": fixed,
        "rows": rows,
    }


def run_fuzz(
    seed: int,
    budget: int,
    jobs: int = 1,
    kernel: str = "heap",
    profile: Optional[FuzzProfile] = None,
    corpus_dir: str = DEFAULT_CORPUS_DIR,
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
    use_cache: bool = True,
    write_findings: bool = True,
    progress=None,
) -> Dict[str, Any]:
    """Run the full fuzz loop; returns the summary dict.

    ``write_findings=False`` leaves the corpus untouched (dry-run mode
    for tests and triage).  Exit-status policy lives in the CLI: any
    replay instability or new finding is a nonzero exit there, not an
    exception here.
    """
    profile = profile or FuzzProfile()
    start = time.perf_counter()
    cache = ArtifactCache(cache_dir) if cache_dir else None

    replay = replay_corpus(corpus_dir, kernel=kernel, cache=cache)
    if progress and replay["entries"]:
        progress(
            "corpus replay: %d entr(ies), %d stable, %d regression(s), %d now fixed"
            % (
                replay["entries"],
                replay["stable"],
                replay["regressions"],
                replay["now_fixed"],
            )
        )

    cases, skipped, draws = sample_cases(seed, budget, profile)
    if progress:
        progress(
            "fuzz seed %d: %d case(s) sampled from %d draw(s) (%d skipped), "
            "kernel=%s, cache=%s"
            % (
                seed,
                len(cases),
                draws,
                sum(skipped.values()),
                kernel,
                cache_dir if (cache_dir and use_cache) else "off",
            )
        )

    shards = max(1, min(jobs, len(cases))) if cases else 1
    buckets: List[List[Dict[str, Any]]] = [[] for _ in range(shards)]
    for case in cases:
        buckets[shard_of(case["key"], shards)].append(case)
    shard_results, _telemetry = run_cases(
        run_fuzz_shard,
        [(index, bucket) for index, bucket in enumerate(buckets)],
        jobs=jobs,
        kwargs={"cache_dir": cache_dir, "kernel": kernel, "use_cache": use_cache},
    )
    verdicts = [v for shard in shard_results for v in shard["verdicts"]]
    verdicts.sort(key=lambda verdict: verdict["key"])
    failures = [verdict for verdict in verdicts if not verdict["ok"]]

    # One shrink per failure *signature* (bus + failing-check set), not per
    # failing case: a systemic bug fails dozens of sampled configs, and
    # shrinking each one converges onto the same minimal repro anyway.
    # The representative is the lexically-smallest case key (deterministic
    # across jobs/backends); the other members ride along in the finding.
    groups: Dict[Tuple[str, Tuple[str, ...]], List[Dict[str, Any]]] = {}
    for verdict in failures:
        signature = (verdict["options"]["bus"], tuple(verdict["failed_checks"]))
        groups.setdefault(signature, []).append(verdict)
    representatives = [members[0] for _signature, members in sorted(groups.items())]
    if progress and representatives:
        progress(
            "%d failing case(s) in %d signature group(s): shrinking..."
            % (len(failures), len(representatives))
        )
    payloads = [
        {
            "case": {
                "options": verdict["options"],
                "fault_seed": verdict["fault_seed"],
                "fault_scale": verdict["fault_scale"],
                "key": verdict["key"],
            },
            "verdict": verdict,
        }
        for verdict in representatives
    ]
    shrink_results, _shrink_telemetry = run_cases(
        shrink_fuzz_case,
        payloads,
        jobs=jobs,
        kwargs={"cache_dir": cache_dir, "kernel": kernel, "use_cache": use_cache},
    )

    known_keys = {entry["key"] for entry in load_corpus(corpus_dir)}
    findings: List[Dict[str, Any]] = []
    for (signature, members), payload, shrunk in zip(
        sorted(groups.items()), payloads, shrink_results
    ):
        minimal_key = shrunk["case"]["key"]
        new = minimal_key not in known_keys
        finding = {
            "original_key": payload["case"]["key"],
            "original_label": payload["verdict"]["label"],
            "members": [member["key"] for member in members],
            "key": minimal_key,
            "label": shrunk["verdict"]["label"],
            "failed_checks": shrunk["verdict"]["failed_checks"],
            "new": new,
            "case": shrunk["case"],
            "verdict": shrunk["verdict"],
            "shrink": {
                "adopted": shrunk["adopted"],
                "evaluations": shrunk["evaluations"],
                "illegal_skipped": shrunk["illegal_skipped"],
                "exhausted": shrunk["exhausted"],
                "trace": shrunk["trace"],
            },
        }
        if new and write_findings:
            entry = build_entry(
                shrunk,
                original_case=payload["case"],
                found_by={
                    "seed": seed,
                    "budget": budget,
                    "profile": profile.hash(),
                    "oracle_version": ORACLE_VERSION,
                },
            )
            finding["file"] = write_entry(entry, corpus_dir)
            known_keys.add(minimal_key)
        findings.append(finding)
        if progress:
            progress(
                "  %s/%s -> %s %s (%d member(s), %d step(s), %d eval(s), "
                "%d illegal skipped)"
                % (
                    signature[0],
                    "+".join(signature[1]),
                    "NEW" if new else "known",
                    minimal_key[:12],
                    len(members),
                    shrunk["adopted"],
                    shrunk["evaluations"],
                    shrunk["illegal_skipped"],
                )
            )

    hits = sum(shard["hits"] for shard in shard_results)
    misses = sum(shard["misses"] for shard in shard_results)
    lookups = hits + misses
    seconds = time.perf_counter() - start
    return {
        "seed": seed,
        "budget": budget,
        "kernel": kernel,
        "oracle_version": ORACLE_VERSION,
        "profile": profile.as_dict(),
        "profile_hash": profile.hash(),
        "draws": draws,
        "sampled": len(cases),
        "skipped": skipped,
        "replay": replay,
        "results": [
            {
                "key": verdict["key"],
                "label": verdict["label"],
                "ok": verdict["ok"],
                "failed_checks": verdict["failed_checks"],
            }
            for verdict in verdicts
        ],
        "failures": len(failures),
        "findings": findings,
        "new_findings": sum(1 for finding in findings if finding["new"]),
        # Nondeterministic tail (ledger-scrubbed keys).
        "seconds": seconds,
        "configs_per_sec": (len(cases) / seconds) if seconds > 0 else 0.0,
        "cache_stats": {
            "enabled": bool(cache_dir and use_cache),
            "dir": cache_dir,
            "hits": hits,
            "misses": misses,
            "hit_ratio": (hits / lookups) if lookups else 0.0,
        },
        "shard_stats": {
            "jobs": jobs,
            "shards": [
                {
                    "shard": shard["shard"],
                    "cases": shard["cases"],
                    "hits": shard["hits"],
                    "misses": shard["misses"],
                    "seconds": shard["seconds"],
                }
                for shard in shard_results
            ],
        },
    }


def fuzz_fingerprint(summary: Dict[str, Any]) -> str:
    """Content hash of a fuzz summary's deterministic surface.

    Covers the sampled queue, skip counters, replay outcomes, every
    verdict row and every finding (shrink trace included); excludes the
    backend label (verdicts are backend-invariant -- the parity oracle
    enforces it) and all ledger-scrubbed wall-clock / cache-state keys.
    Equal fingerprints across ``--jobs``, kernels and cold/warm caches
    are the determinism contract (docs/fuzzing.md).
    """
    surface = {
        key: summary[key]
        for key in (
            "seed",
            "budget",
            "oracle_version",
            "profile_hash",
            "draws",
            "sampled",
            "skipped",
            "replay",
            "results",
            "failures",
            "findings",
            "new_findings",
        )
    }
    return content_hash(scrub_timings(surface))


def format_fuzz_lines(summary: Dict[str, Any]) -> List[str]:
    """Human-readable fuzz outcome for the CLI."""
    lines: List[str] = []
    cache_stats = summary["cache_stats"]
    lines.append(
        "seed %d: %d case(s) from %d draw(s) in %.2f s, cache %s: "
        "%d hit(s) / %d miss(es)"
        % (
            summary["seed"],
            summary["sampled"],
            summary["draws"],
            summary["seconds"],
            "on" if cache_stats["enabled"] else "off",
            cache_stats["hits"],
            cache_stats["misses"],
        )
    )
    if summary["skipped"]:
        lines.append(
            "illegal draws: "
            + ", ".join(
                "%s=%d" % (reason, count)
                for reason, count in sorted(summary["skipped"].items())
            )
        )
    replay = summary["replay"]
    if replay["entries"]:
        lines.append(
            "corpus replay: %d entr(ies), %d stable, %d regression(s), %d now fixed"
            % (
                replay["entries"],
                replay["stable"],
                replay["regressions"],
                replay["now_fixed"],
            )
        )
        for row in replay["rows"]:
            if not row["stable"]:
                verdict = "REGRESSION" if row["status"] == "fixed" else "now fixed"
                lines.append(
                    "  %s %s (%s): %s" % (row["file"], row["label"], row["status"], verdict)
                )
    else:
        lines.append("corpus replay: empty corpus")
    if summary["failures"]:
        lines.append(
            "%d failing case(s) in %d signature group(s), %d new finding(s):"
            % (summary["failures"], len(summary["findings"]), summary["new_findings"])
        )
        for finding in summary["findings"]:
            lines.append(
                "  %s %s %s [%s] (%d case(s), shrunk from %s in %d step(s))"
                % (
                    "NEW" if finding["new"] else "known",
                    finding["key"][:12],
                    finding["label"],
                    ", ".join(finding["failed_checks"]),
                    len(finding["members"]),
                    finding["original_label"],
                    finding["shrink"]["adopted"],
                )
            )
    else:
        lines.append("no failing cases")
    lines.append("fingerprint %s" % fuzz_fingerprint(summary)[:16])
    return lines
