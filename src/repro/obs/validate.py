"""Validate observability artifacts: ``python -m repro.obs.validate PATH``.

``PATH`` selects the check by shape:

* a Chrome ``trace_event`` JSON file (``trace.json``) -- structural
  contract via :func:`repro.obs.tracer.validate_chrome_trace`, including
  the Perfetto counter-track rules (``"C"`` events carry numeric,
  non-negative samples);
* a ledger ``records.jsonl`` file, or a ledger *directory* containing one
  -- RunRecord contract via :func:`validate_ledger_records` (schema
  version, content-hash integrity, monotonic envelope timestamps), with
  each failure naming the offending record and field.

Exit status 0 when every check passes; 1 otherwise, printing each
failure.  CI runs this against the captured trace and the accumulated
ledger before uploading them as artifacts.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional

from .ledger import RECORD_VERSION, content_hash
from .tracer import validate_chrome_trace

__all__ = ["main", "validate_ledger_records"]


def validate_ledger_records(records: List[Dict[str, Any]]) -> List[str]:
    """Contract checks on ledger RunRecords; returns failure strings.

    Each failure names the record (index + hash prefix) and the field:
    unknown schema version, missing sections, a content hash that does
    not match the hashed body (tampering or a serializer drift), and an
    envelope timestamp running backwards relative to the previous
    record (the ledger is append-only).
    """
    failures: List[str] = []
    last_timestamp: Optional[str] = None
    for index, record in enumerate(records):
        label = "record %d (%s)" % (index, str(record.get("hash", "?"))[:12])
        if not isinstance(record, dict):
            failures.append("record %d: not an object" % index)
            continue
        version = record.get("version")
        if version != RECORD_VERSION:
            failures.append(
                "%s: version: unknown schema version %r (expected %d)"
                % (label, version, RECORD_VERSION)
            )
            continue
        body = record.get("body")
        envelope = record.get("envelope")
        if not isinstance(body, dict):
            failures.append("%s: body: missing or not an object" % label)
            continue
        if not isinstance(envelope, dict):
            failures.append("%s: envelope: missing or not an object" % label)
            continue
        if not body.get("verb"):
            failures.append("%s: body.verb: missing" % label)
        recorded_hash = record.get("hash")
        actual = content_hash(body)
        if recorded_hash != actual:
            failures.append(
                "%s: hash: %r does not match the hashed body (%s...)"
                % (label, recorded_hash, actual[:12])
            )
        timestamp = envelope.get("timestamp")
        if not isinstance(timestamp, str) or not timestamp:
            failures.append("%s: envelope.timestamp: missing" % label)
        elif last_timestamp is not None and timestamp < last_timestamp:
            # ISO-8601 timestamps sort lexically; an append-only ledger
            # can never run backwards.
            failures.append(
                "%s: envelope.timestamp: %s precedes previous record's %s"
                % (label, timestamp, last_timestamp)
            )
        if isinstance(timestamp, str):
            last_timestamp = timestamp
    return failures


def _validate_ledger_path(path: str) -> int:
    records: List[Dict[str, Any]] = []
    try:
        with open(path) as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError as error:
                    print("%s:%d: not valid JSON: %s" % (path, number, error))
                    return 1
    except OSError as error:
        print("%s: unreadable ledger: %s" % (path, error))
        return 1
    failures = validate_ledger_records(records)
    if failures:
        for failure in failures:
            print("%s: %s" % (path, failure))
        return 1
    print("%s: OK (%d ledger record(s))" % (path, len(records)))
    return 0


def _validate_trace_path(path: str) -> int:
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, ValueError) as error:
        print("%s: unreadable trace: %s" % (path, error))
        return 1
    failures = validate_chrome_trace(document)
    if failures:
        for failure in failures:
            print("%s: %s" % (path, failure))
        return 1
    events = document["traceEvents"]
    timed = sum(1 for event in events if event.get("ph") != "M")
    counters = sum(1 for event in events if event.get("ph") == "C")
    print(
        "%s: OK (%d events, %d timed, %d counter samples)"
        % (path, len(events), timed, counters)
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(
            "usage: python -m repro.obs.validate TRACE.json | LEDGER_DIR "
            "| records.jsonl"
        )
        return 2
    path = argv[0]
    if os.path.isdir(path):
        return _validate_ledger_path(os.path.join(path, "records.jsonl"))
    if path.endswith(".jsonl"):
        return _validate_ledger_path(path)
    return _validate_trace_path(path)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
