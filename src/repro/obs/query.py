"""Query, diff and regression-gate the run ledger (``repro report``).

Three capabilities over :mod:`repro.obs.ledger` records:

* **filter/aggregate** -- slice records by verb x backend x architecture x
  revision and summarize each group (run count, latest hash/revision,
  simulated cycles); sweep verbs (``dse``/``fuzz``) additionally get
  :func:`coverage_rows` -- skip-reason totals from the shared legality
  map plus artifact-cache hit/miss totals;
* **diff** -- field-by-field comparison of two records' hashed bodies,
  addressed by content-hash prefix; identical hashes are identical runs by
  construction, so a diff is always a behaviour difference;
* **check** -- regression gates for CI: chaos/verify records must report
  ``ok``, fuzz records must have a stable corpus replay and no untriaged
  findings, and bench records must carry no harness ``failures`` (the
  harness applies its own gates; the record keeps their verdict).
  :func:`check_regressions` returns machine-readable findings; the CLI
  exits non-zero when any exist.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .ledger import Ledger

__all__ = [
    "filter_records",
    "aggregate_records",
    "coverage_rows",
    "diff_bodies",
    "envelope_pairs",
    "check_regressions",
]


# ----------------------------------------------------------------------
# Filtering and aggregation
# ----------------------------------------------------------------------


def filter_records(
    records: List[Dict[str, Any]],
    verb: Optional[str] = None,
    backend: Optional[str] = None,
    arch: Optional[str] = None,
    rev: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Slice ledger records; ``arch`` also matches multi-arch records whose
    body lists architectures (table/chaos/verify sweeps)."""
    out = []
    for record in records:
        body = record.get("body", {})
        if verb is not None and body.get("verb") != verb:
            continue
        if backend is not None and not _matches_multi(body, "backend", backend):
            continue
        if arch is not None and not _matches_multi(body, "arch", arch):
            continue
        if rev is not None and body.get("git_rev") != rev:
            continue
        out.append(record)
    return out


def _matches_multi(body: Dict[str, Any], field: str, wanted: str) -> bool:
    value = body.get(field)
    if value == wanted:
        return True
    if isinstance(value, list) and wanted in value:
        return True
    summary = body.get("summary")
    if isinstance(summary, dict):
        plural = {"backend": "backends", "arch": "architectures"}[field]
        listed = summary.get(plural)
        if isinstance(listed, list) and wanted in listed:
            return True
    return False


def aggregate_records(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Group by (verb, arch, backend); one summary row per group.

    Rows are sorted by group key; ``sim_cycles`` is the latest record's
    (None for verbs without a single simulated run).
    """
    groups: Dict[Tuple[str, str, str], List[Dict[str, Any]]] = {}
    for record in records:
        body = record.get("body", {})
        key = (
            str(body.get("verb")),
            _scalar(body.get("arch")),
            _scalar(body.get("backend")),
        )
        groups.setdefault(key, []).append(record)
    rows = []
    for key in sorted(groups):
        members = groups[key]
        last = members[-1]
        body = last.get("body", {})
        rows.append(
            {
                "verb": key[0],
                "arch": key[1],
                "backend": key[2],
                "runs": len(members),
                "distinct_hashes": len({m.get("hash") for m in members}),
                "last_hash": last.get("hash", "")[:12],
                "last_rev": body.get("git_rev"),
                "options_hash": body.get("options_hash"),
                "sim_cycles": body.get("sim_cycles"),
            }
        )
    return rows


#: Verbs whose summaries carry generator/expander skip-reason counters and
#: whose envelopes carry artifact-cache hit/miss measurements.
COVERAGE_VERBS = ("dse", "fuzz")


def coverage_rows(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-verb coverage totals for the sweep verbs (``dse``, ``fuzz``).

    Aggregates, across every matching record, the *evaluated* config
    count, the skip-reason counters (why legality filtering rejected
    draws/expansions -- the legality map the fuzzer and DSE expander
    share), and the artifact-cache hit/miss totals read back from the
    envelope's scrubbed measurements.  One row per verb, sorted.
    """
    totals: Dict[str, Dict[str, Any]] = {}
    for record in records:
        body = record.get("body", {})
        verb = body.get("verb")
        if verb not in COVERAGE_VERBS:
            continue
        summary = body.get("summary") or {}
        if not isinstance(summary, dict):
            continue
        row = totals.setdefault(
            verb,
            {
                "verb": verb,
                "runs": 0,
                "evaluated": 0,
                "skipped": {},
                "cache_hits": 0,
                "cache_misses": 0,
            },
        )
        row["runs"] += 1
        evaluated = summary.get("sampled", summary.get("configs"))
        if isinstance(evaluated, int):
            row["evaluated"] += evaluated
        skipped = summary.get("skipped")
        if isinstance(skipped, dict):
            for reason, count in skipped.items():
                if isinstance(count, int):
                    row["skipped"][str(reason)] = (
                        row["skipped"].get(str(reason), 0) + count
                    )
        cache = (
            record.get("envelope", {}).get("measurements", {}).get("cache_stats")
        )
        if isinstance(cache, dict):
            row["cache_hits"] += int(cache.get("hits") or 0)
            row["cache_misses"] += int(cache.get("misses") or 0)
    rows = []
    for verb in sorted(totals):
        row = totals[verb]
        lookups = row["cache_hits"] + row["cache_misses"]
        row["cache_hit_ratio"] = (row["cache_hits"] / lookups) if lookups else 0.0
        row["skipped"] = dict(sorted(row["skipped"].items()))
        rows.append(row)
    return rows


def _scalar(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, list):
        return ",".join(str(item) for item in value)
    return str(value)


# ----------------------------------------------------------------------
# Diff
# ----------------------------------------------------------------------


def diff_bodies(
    a: Dict[str, Any], b: Dict[str, Any]
) -> List[Tuple[str, Any, Any]]:
    """Field-by-field diff of two records' hashed bodies.

    Returns ``(dotted.path, value_a, value_b)`` for every leaf that
    differs, with ``None`` standing in for an absent side.
    """
    diffs: List[Tuple[str, Any, Any]] = []
    _walk_diff(a.get("body", {}), b.get("body", {}), "", diffs)
    return diffs


def envelope_pairs(a: Dict[str, Any], b: Dict[str, Any]) -> List[Tuple[str, Any, Any]]:
    """``(field, value_a, value_b)`` for what the two runs cost, which their
    hashes leave out: ``wall_seconds`` and ``peak_rss_mb`` (None if absent)."""
    return [
        (field, a.get("envelope", {}).get(field), b.get("envelope", {}).get(field))
        for field in ("wall_seconds", "peak_rss_mb")
    ]


def _walk_diff(a: Any, b: Any, path: str, out: List[Tuple[str, Any, Any]]) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            where = "%s.%s" % (path, key) if path else str(key)
            _walk_diff(a.get(key), b.get(key), where, out)
        return
    if isinstance(a, list) and isinstance(b, list):
        for index in range(max(len(a), len(b))):
            where = "%s[%d]" % (path, index)
            item_a = a[index] if index < len(a) else None
            item_b = b[index] if index < len(b) else None
            _walk_diff(item_a, item_b, where, out)
        return
    if a != b:
        out.append((path, a, b))


# ----------------------------------------------------------------------
# Regression gates
# ----------------------------------------------------------------------


def check_regressions(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """CI regression findings over a ledger; empty means gates pass.

    Per record: chaos/verify summaries must report ``ok``; fuzz records
    must have a stable corpus replay and zero new findings; bench records
    must have an empty ``failures`` list -- the bench harness's gates
    (``repro.bench.harness``) are the only ones, and are not re-derived
    here.
    """
    findings: List[Dict[str, Any]] = []

    def flag(record, field, message, value=None, threshold=None):
        findings.append(
            {
                "hash": record.get("hash", "")[:12],
                "verb": record.get("body", {}).get("verb"),
                "field": field,
                "value": value,
                "threshold": threshold,
                "message": message,
            }
        )

    for record in records:
        body = record.get("body", {})
        verb = body.get("verb")
        summary = body.get("summary") or {}
        if not isinstance(summary, dict):
            continue
        if verb in ("chaos", "verify") and summary.get("ok") is False:
            flag(
                record,
                "summary.ok",
                "%s run reported failures: %s"
                % (verb, _scalar(summary.get("failures"))),
                value=False,
                threshold=True,
            )
        if verb == "fuzz":
            _check_fuzz(record, summary, flag)
        if verb == "bench" and summary.get("failures"):
            flag(
                record,
                "summary.failures",
                "bench harness failures: %s" % _scalar(summary["failures"]),
                value=summary["failures"],
                threshold=[],
            )
    return findings


def _check_fuzz(record, summary, flag):
    """Fuzz gates: corpus statuses must match reality; no new findings.

    Mirrors the ``repro fuzz`` exit-status policy (cli.py): a ``fixed``
    entry failing again is a regression, an ``open`` entry passing means
    the corpus status is stale, and a new minimal repro means the sweep
    found a bug that is not yet triaged.
    """
    replay = summary.get("replay") or {}
    regressions = replay.get("regressions") or 0
    if regressions:
        flag(
            record,
            "replay.regressions",
            "fuzz corpus replay: %d fixed entr(ies) failing again" % regressions,
            value=regressions,
            threshold=0,
        )
    now_fixed = replay.get("now_fixed") or 0
    if now_fixed:
        flag(
            record,
            "replay.now_fixed",
            "fuzz corpus replay: %d open entr(ies) now passing "
            "(flip their status to fixed)" % now_fixed,
            value=now_fixed,
            threshold=0,
        )
    new_findings = summary.get("new_findings") or 0
    if new_findings:
        flag(
            record,
            "new_findings",
            "fuzz sweep shrank %d new minimal failing config(s)" % new_findings,
            value=new_findings,
            threshold=0,
        )


def find_record(ledger: Ledger, hash_prefix: str) -> Dict[str, Any]:
    """``Ledger.find`` that raises ``LookupError`` instead of returning None."""
    record = ledger.find(hash_prefix)
    if record is None:
        raise LookupError("no ledger record matches hash prefix %r" % hash_prefix)
    return record
