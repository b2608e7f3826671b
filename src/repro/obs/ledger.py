"""Append-only, content-addressed run ledger.

Fleet telemetry needs evidence that survives *across* runs: which
configuration ran, on which backend, at which revision, and what came out.
Every CLI verb that runs something (``simulate``, ``table``, ``bench``,
``chaos``, ``verify``, ``dse``, ``fuzz``) appends one :func:`build_record`
RunRecord here; ``repro report`` (:mod:`repro.obs.query`) filters, diffs
and regression-gates the accumulated records.

Records are split into two parts:

* a **hashed body** -- verb, options + options hash, backend, architecture,
  git revision, simulated cycles, metrics-registry snapshot, and the
  verb's own summary (RunReport / ResilienceReport / verify findings),
  with all wall-clock measurements recursively scrubbed out
  (:func:`scrub_timings`).  The record's identity is the SHA-256 of this
  body's canonical JSON: the same options + seed + backend + revision
  produce the same hash on every machine, every time of day.
* a **non-hashed envelope** -- timestamp, host, pid, wall seconds, peak
  resident memory, the :func:`environment` (Python and NumPy versions,
  the CPUs the process may run on, whether bytecode is written), and the
  scrubbed-out measurements.  Everything nondeterministic lives
  here, so determinism is testable (``tests/test_ledger.py``) and a re-run
  that changes the hash is a *behaviour* change, never a timing wobble.

On disk a ledger directory holds ``records.jsonl`` (one record per line,
append-only) and ``index.jsonl`` (one ``{hash, verb, offset}`` line per
record -- the content-addressed index; ``offset`` is the byte offset of the
record line, so lookup by hash prefix is one index scan plus one seek).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import socket
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "RECORD_VERSION",
    "DEFAULT_LEDGER_DIR",
    "TIMING_KEYS",
    "scrub_timings",
    "canonical_json",
    "content_hash",
    "options_hash",
    "git_revision",
    "environment",
    "build_record",
    "Ledger",
]

#: Bump when the hashed-body layout changes; validate.py refuses unknown
#: versions so stale tooling fails loudly instead of misreading records.
RECORD_VERSION = 1

DEFAULT_LEDGER_DIR = os.path.join(".repro", "ledger")

#: Keys (at any nesting depth) holding wall-clock measurements.  They are
#: moved out of the hashed body into the envelope: simulated cycles are
#: deterministic, host seconds are not.
TIMING_KEYS = frozenset(
    [
        "wall_seconds",
        "seconds",
        "all_seconds",
        "events_per_second",
        "generation_time_ms",
        "sequential_seconds",
        "parallel_seconds",
        "sequential_all",
        "parallel_all",
        "events_per_sec",
        "measured_events_per_sec",
        # The bench section of wall-clock ratios (see bench/harness.py).
        "ab",
        # DSE sweep nondeterminism: cache state and scheduling are host
        # facts, not design facts (see dse/engine.py).
        "cached",
        "cache_stats",
        "shard_stats",
        "configs_per_sec",
    ]
)


def scrub_timings(value: Any) -> Any:
    """Deep-copy ``value`` with every :data:`TIMING_KEYS` entry removed."""
    if isinstance(value, dict):
        return {
            key: scrub_timings(item)
            for key, item in value.items()
            if key not in TIMING_KEYS
        }
    if isinstance(value, (list, tuple)):
        return [scrub_timings(item) for item in value]
    return value


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def content_hash(body: Dict[str, Any]) -> str:
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def options_hash(options: Any) -> str:
    """Short hash identifying a configuration (options dict or namespace)."""
    if hasattr(options, "__dict__") and not isinstance(options, dict):
        options = {
            key: value
            for key, value in vars(options).items()
            if not key.startswith("_")
        }
    return content_hash(_jsonable(options))[:12]


def _jsonable(value: Any) -> Any:
    """Best-effort conversion to JSON-serializable structures."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [_jsonable(item) for item in items]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "as_dict"):
        return _jsonable(value.as_dict())
    if hasattr(value, "__dict__"):
        return _jsonable(
            {k: v for k, v in vars(value).items() if not k.startswith("_")}
        )
    return repr(value)


_GIT_REVISION_CACHE: Dict[str, str] = {}


def git_revision(cwd: Optional[str] = None) -> str:
    """Short git revision of ``cwd`` (or the process cwd); ``"unknown"``
    outside a work tree or without a git binary."""
    key = cwd or os.getcwd()
    cached = _GIT_REVISION_CACHE.get(key)
    if cached is not None:
        return cached
    try:
        rev = (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=key,
                capture_output=True,
                timeout=10,
            )
            .stdout.decode("ascii", "replace")
            .strip()
        )
    except (OSError, subprocess.SubprocessError):
        rev = ""
    rev = rev or "unknown"
    _GIT_REVISION_CACHE[key] = rev
    return rev


def environment() -> Dict[str, Any]:
    """What a wall-clock number depends on besides the code: the Python and
    NumPy versions, the CPUs this process may run on (its affinity), and
    whether imports may write bytecode -- without it, every fresh process
    compiles ``src/`` again."""
    from importlib import metadata

    try:
        numpy_version: Optional[str] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpus": len(os.sched_getaffinity(0)),
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
    }


def _peak_rss_mb() -> float:
    """Peak resident MB of this process or its largest reaped child (the
    ``--jobs`` workers); ``ru_maxrss`` counts KB on Linux."""
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024.0


def build_record(
    verb: str,
    options: Any = None,
    backend: Optional[str] = None,
    arch: Optional[str] = None,
    summary: Any = None,
    registry: Any = None,
    sim_cycles: Optional[int] = None,
    wall_seconds: float = 0.0,
    rev: Optional[str] = None,
) -> Dict[str, Any]:
    """Assemble one versioned RunRecord (hashed body + envelope).

    ``summary`` is the verb's own result payload (a RunReport dict, a
    chaos/verify summary, table rows, ...); its timing keys are scrubbed
    into the envelope's ``measurements``.  ``registry`` is an optional
    :class:`~repro.obs.metrics.MetricsRegistry` to snapshot.
    """
    options_payload = _jsonable(options) if options is not None else None
    summary_payload = _jsonable(summary) if summary is not None else None
    body: Dict[str, Any] = {
        "verb": verb,
        "backend": backend,
        "arch": arch,
        "options": options_payload,
        "options_hash": options_hash(options) if options is not None else None,
        "git_rev": rev if rev is not None else git_revision(),
        "sim_cycles": sim_cycles,
        "metrics": _jsonable(registry.as_dict()) if registry is not None else None,
        "summary": scrub_timings(summary_payload),
    }
    record = {
        "version": RECORD_VERSION,
        "hash": content_hash(body),
        "body": body,
        "envelope": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "wall_seconds": wall_seconds,
            "peak_rss_mb": _peak_rss_mb(),
            **environment(),
            "measurements": _timing_residue(summary_payload),
        },
    }
    return record


def _timing_residue(value: Any, path: str = "") -> Dict[str, Any]:
    """Flat ``{dotted.path: value}`` of every scrubbed timing key."""
    residue: Dict[str, Any] = {}
    if isinstance(value, dict):
        for key, item in value.items():
            where = "%s.%s" % (path, key) if path else str(key)
            if key in TIMING_KEYS:
                residue[where] = item
            else:
                residue.update(_timing_residue(item, where))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            residue.update(_timing_residue(item, "%s[%d]" % (path, index)))
    return residue


class Ledger:
    """One ledger directory: append-only records plus a hash index."""

    def __init__(self, root: str = DEFAULT_LEDGER_DIR):
        self.root = root
        self.records_path = os.path.join(root, "records.jsonl")
        self.index_path = os.path.join(root, "index.jsonl")

    # -- writing ---------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> str:
        """Append one record; returns its content hash."""
        os.makedirs(self.root, exist_ok=True)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with open(self.records_path, "a") as handle:
            handle.seek(0, os.SEEK_END)
            offset = handle.tell()
            handle.write(line + "\n")
        index_entry = {
            "hash": record["hash"],
            "verb": record["body"]["verb"],
            "offset": offset,
        }
        with open(self.index_path, "a") as handle:
            handle.write(
                json.dumps(index_entry, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
        return record["hash"]

    def write(
        self,
        verb: str,
        **kwargs: Any,
    ) -> str:
        """``append(build_record(verb, **kwargs))`` in one call."""
        return self.append(build_record(verb, **kwargs))

    # -- reading ---------------------------------------------------------
    @property
    def exists(self) -> bool:
        return os.path.exists(self.records_path)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        if not self.exists:
            return
        with open(self.records_path) as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except ValueError:
                    raise ValueError(
                        "%s:%d: not valid JSON" % (self.records_path, number)
                    )

    def records(self) -> List[Dict[str, Any]]:
        return list(self)

    def index(self) -> List[Dict[str, Any]]:
        if not os.path.exists(self.index_path):
            return []
        entries = []
        with open(self.index_path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    entries.append(json.loads(line))
        return entries

    def find(self, hash_prefix: str) -> Optional[Dict[str, Any]]:
        """Look up one record by (a prefix of) its content hash.

        Uses the index to seek directly into ``records.jsonl``.  Raises
        ``LookupError`` when the prefix is ambiguous.
        """
        matches = [
            entry for entry in self.index() if entry["hash"].startswith(hash_prefix)
        ]
        hashes = {entry["hash"] for entry in matches}
        if not matches:
            return None
        if len(hashes) > 1:
            raise LookupError(
                "hash prefix %r is ambiguous (%d records)"
                % (hash_prefix, len(hashes))
            )
        # Last write wins for identical re-runs (same hash appended twice).
        entry = matches[-1]
        with open(self.records_path) as handle:
            handle.seek(entry["offset"])
            return json.loads(handle.readline())
