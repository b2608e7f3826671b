"""On-disk content-addressed artifact cache (``.repro/dse/``).

One store of JSON documents shared by every DSE stage and worker
process: ``result`` rows (one per swept config, keyed by its canonical
options hash) and ``fuzz`` verdicts (one per fuzz case).  Generated
designs are not stored: generating one again takes a few milliseconds.

Layout: ``<root>/objects/<kind>/<key[:2]>/<key>.json`` -- the two-char
fan-out keeps directories small at hundreds of thousands of artifacts.
Each envelope records the artifact schema and the generator version
(:data:`~repro.core.busyn.GENERATOR_VERSION`) it was written under; an
artifact from another reads as a miss, so a row holding an older
generator's gate count is never served.  Writes are atomic (unique temp
file + ``os.replace``) so overlapping sweeps and pool workers never
observe a torn artifact; a corrupt file reads as a miss, never an error.
"""

from __future__ import annotations

import json
import os
from typing import Any, Optional

from ..core.busyn import GENERATOR_VERSION

__all__ = ["DEFAULT_CACHE_DIR", "ArtifactCache"]

#: Default store location, next to the run ledger under ``.repro/``.
DEFAULT_CACHE_DIR = os.path.join(".repro", "dse")

#: Bump when an artifact schema changes; stale-versioned artifacts read
#: as misses so a layout change can never resurrect incompatible payloads.
ARTIFACT_VERSION = 1


class ArtifactCache:
    """Content-addressed get/put of JSON artifacts."""

    def __init__(self, root: str = DEFAULT_CACHE_DIR):
        self.root = root
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self._tmp_serial = 0

    # -- paths -----------------------------------------------------------
    def path(self, kind: str, key: str) -> str:
        if len(key) < 3 or any(c not in "0123456789abcdef" for c in key):
            raise ValueError("artifact key must be a hex content hash, got %r" % key)
        return os.path.join(self.root, "objects", kind, key[:2], key + ".json")

    def _write_atomic(self, path: str, data: bytes) -> None:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        self._tmp_serial += 1
        tmp = "%s.%d.%d.tmp" % (path, os.getpid(), self._tmp_serial)
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
        self.puts += 1

    # -- JSON artifacts --------------------------------------------------
    def get_json(self, kind: str, key: str) -> Optional[Any]:
        """The stored payload, or None on miss / corruption / a stale
        artifact schema or generator version."""
        try:
            with open(self.path(kind, key)) as handle:
                envelope = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("version") != ARTIFACT_VERSION
            or envelope.get("generator") != GENERATOR_VERSION
        ):
            self.misses += 1
            return None
        self.hits += 1
        return envelope.get("payload")

    def put_json(self, kind: str, key: str, payload: Any) -> str:
        path = self.path(kind, key)
        envelope = {
            "version": ARTIFACT_VERSION,
            "generator": GENERATOR_VERSION,
            "key": key,
            "payload": payload,
        }
        data = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
        self._write_atomic(path, data.encode("utf-8") + b"\n")
        return path
