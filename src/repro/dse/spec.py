"""Declarative sweep specifications for design-space exploration.

A sweep spec is a small JSON document (or dict) with two ways of naming
configurations:

* ``axes`` -- a cartesian product over sweep dimensions (bus type, PE
  count, subsystem count, bus widths, Bi-FIFO depth, arbiter policy,
  application / programming style, workload size);
* ``cases`` -- an explicit list of per-config overrides (the shape of the
  original nine-case example).

Expansion normalizes every combination into a :class:`DseConfig` with a
*canonical options dict*: dimensions that do not apply to a combination
(a Bi-FIFO depth on a bus without FIFOs, a programming style for a
non-OFDM app) are normalized to ``None`` before hashing, so equivalent
combinations collapse to one queue entry.  Illegal combinations (FPA or
the database app on an architecture without a shared memory, PPA away
from four PEs, SplitBA below two PEs) are *skipped* with a counted reason
rather than raised -- a sweep over thousands of products is expected to
contain holes.

The config's identity is ``DseConfig.key()``: the SHA-256 of the
canonical-JSON options (:func:`repro.obs.ledger.content_hash` -- the same
discipline the run ledger uses), which keys the artifact cache and the
dedup; shards are assigned by ``DseConfig.family_key()``, the same hash
without the arbiter policy.  The scheduler backend is deliberately *not*
part of the identity: heap and compiled runs are bit-identical by the
parity suite, so their artifacts are interchangeable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..obs.ledger import canonical_json, content_hash
from ..options import presets
from ..options.schema import (
    BANSpec,
    BusSpec,
    BusSubsystemSpec,
    BusSystemSpec,
    MemorySpec,
    OptionError,
)

__all__ = [
    "AXIS_NAMES",
    "DEFAULTS",
    "DEFAULT_STYLE",
    "FPA_ARCHS",
    "FIFO_ARCHS",
    "DseConfig",
    "SweepSpec",
    "normalize_options",
    "build_config_spec",
    "smoke_spec",
    "example_spec",
]

#: Recognized sweep dimensions, in canonical (sorted) order.
AXIS_NAMES = (
    "app",
    "arbiter_policy",
    "bus",
    "data_width",
    "fifo_depth",
    "frames",
    "packets",
    "pes",
    "style",
    "subsystems",
)

#: Single-value defaults used for any dimension a spec leaves out.
DEFAULTS: Dict[str, Any] = {
    "app": "ofdm",
    "arbiter_policy": "fcfs",
    "bus": "GBAVIII",
    "data_width": 64,
    "fifo_depth": 1024,
    "frames": 4,
    "packets": 4,
    "pes": 4,
    "style": "auto",
    "subsystems": None,
}

#: Default programming style per architecture (same mapping as Table II
#: and the chaos harness): FPA where a shared memory exists, else PPA.
DEFAULT_STYLE = {
    "BFBA": "PPA",
    "GBAVI": "PPA",
    "GBAVII": "FPA",
    "GBAVIII": "FPA",
    "HYBRID": "FPA",
    "SPLITBA": "FPA",
    "GGBA": "FPA",
    "CCBA": "FPA",
}

#: Architectures carrying a shared (global) memory -- the FPA prerequisite.
FPA_ARCHS = frozenset(["GBAVII", "GBAVIII", "HYBRID", "SPLITBA", "GGBA", "CCBA"])

#: Architectures whose preset builders take a Bi-FIFO depth.
FIFO_ARCHS = frozenset(["BFBA", "HYBRID"])

#: Architectures supporting a subsystem-count axis (SplitBA generalizes to
#: N bridged subsystems; every other preset is single-subsystem).
MULTI_SUBSYSTEM_ARCHS = frozenset(["SPLITBA"])


@dataclass(frozen=True)
class DseConfig:
    """One fully-normalized point of the design space."""

    bus: str
    pes: int = 4
    subsystems: Optional[int] = None
    app: str = "ofdm"
    style: Optional[str] = "FPA"
    packets: Optional[int] = 4
    frames: Optional[int] = None
    data_width: int = 64
    fifo_depth: Optional[int] = None
    arbiter_policy: str = "fcfs"
    score_resilience: bool = False
    score_verify: bool = False
    seed: Optional[int] = None

    def options(self) -> Dict[str, Any]:
        """The canonical (sorted-key, JSON-scalar) option surface."""
        return {
            "app": self.app,
            "arbiter_policy": self.arbiter_policy,
            "bus": self.bus,
            "data_width": self.data_width,
            "fifo_depth": self.fifo_depth,
            "frames": self.frames,
            "packets": self.packets,
            "pes": self.pes,
            "score_resilience": self.score_resilience,
            "score_verify": self.score_verify,
            "seed": self.seed,
            "style": self.style,
            "subsystems": self.subsystems,
        }

    def key(self) -> str:
        """Content hash identifying this config (cache + dedup key)."""
        return content_hash(self.options())

    def family_key(self) -> str:
        """Content hash of the config's *policy family*: its options apart
        from ``arbiter_policy``.  Siblings of one family run the same
        workload on buses that differ only in their arbiters, so a shard
        may serve one sibling's contention-free run to the rest
        (``repro.dse.engine``); the shard assignment keys on it."""
        options = self.options()
        del options["arbiter_policy"]
        return content_hash(options)

    def spec_fields(self) -> Tuple[Any, ...]:
        """The fields :func:`build_config_spec` reads: configs equal in
        them share one bus system spec (the workload and scoring fields
        only drive the simulation)."""
        return (self.bus, self.pes, self.subsystems, self.data_width, self.fifo_depth,
                self.arbiter_policy)

    def sort_key(self) -> str:
        """Deterministic queue order, independent of axis listing order."""
        return canonical_json(self.options())

    @classmethod
    def from_options(cls, options: Dict[str, Any]) -> "DseConfig":
        return cls(**{k: options[k] for k in options if k in cls.__dataclass_fields__})

    def label(self) -> str:
        parts = ["%s/%d" % (self.bus, self.pes)]
        if self.subsystems is not None:
            parts.append("x%d" % self.subsystems)
        parts.append(self.app if self.style is None else "%s-%s" % (self.app, self.style))
        return " ".join(parts)


def _normalize(raw: Dict[str, Any], score: Dict[str, Any], seed: int):
    """Turn one raw combination into a canonical config or a skip reason.

    Returns ``(config, None)`` or ``(None, reason)``.
    """
    bus = str(raw["bus"]).upper()
    if bus not in presets.PRESETS:
        return None, "unknown-bus"
    app = str(raw["app"]).lower()
    if app not in ("ofdm", "mpeg2", "database"):
        return None, "unknown-app"
    pes = int(raw["pes"])
    if pes < 1:
        return None, "pes-out-of-range"

    style: Optional[str] = None
    packets: Optional[int] = None
    frames: Optional[int] = None
    if app == "ofdm":
        style = str(raw["style"]).upper()
        if style == "AUTO":
            style = DEFAULT_STYLE[bus]
        if style not in ("PPA", "FPA"):
            return None, "unknown-style"
        if style == "FPA" and bus not in FPA_ARCHS:
            return None, "fpa-needs-shared-memory"
        if style == "PPA" and pes != 4:
            return None, "ppa-needs-4-pes"
        packets = int(raw["packets"])
    elif app == "mpeg2":
        frames = int(raw["frames"])
    elif bus not in FPA_ARCHS:
        return None, "database-needs-shared-memory"

    subsystems: Optional[int] = None
    if bus in MULTI_SUBSYSTEM_ARCHS:
        subsystems = raw["subsystems"]
        subsystems = 2 if subsystems is None else int(subsystems)
        if not 1 <= subsystems <= pes:
            return None, "subsystems-exceed-pes"
        if pes < 2:
            return None, "splitba-needs-2-pes"

    fifo_depth = int(raw["fifo_depth"]) if bus in FIFO_ARCHS else None
    if fifo_depth is not None and fifo_depth <= 0:
        return None, "fifo-depth-not-positive"

    resilience = bool(score.get("resilience", False))
    config = DseConfig(
        bus=bus,
        pes=pes,
        subsystems=subsystems,
        app=app,
        style=style,
        packets=packets,
        frames=frames,
        data_width=int(raw["data_width"]),
        fifo_depth=fifo_depth,
        arbiter_policy=str(raw["arbiter_policy"]),
        score_resilience=resilience,
        score_verify=bool(score.get("verify", False)),
        # The seed only matters when a seeded fault plan is scored; keep it
        # out of the identity otherwise so unrelated sweeps share artifacts.
        seed=int(seed) if resilience else None,
    )
    try:
        build_config_spec(config)
    except OptionError:
        return None, "option-error"
    return config, None


def normalize_options(
    raw: Dict[str, Any],
    score: Optional[Dict[str, Any]] = None,
    seed: int = 0,
):
    """Normalize a (possibly partial) raw option dict into a legal config.

    The public face of :func:`_normalize` -- missing dimensions are filled
    from :data:`DEFAULTS` first, so callers (the architecture fuzzer's
    sampler and shrinker, ``repro.fuzz``) can pass just the dimensions
    they care about.  Returns ``(config, None)`` for a legal combination
    and ``(None, skip_reason)`` otherwise; a legal return is guaranteed
    buildable (``build_config_spec`` validated it).
    """
    merged = dict(DEFAULTS)
    merged.update(raw)
    return _normalize(merged, score or {}, seed)


@dataclass
class SweepSpec:
    """A declarative sweep: axes product plus explicit cases."""

    name: str = "sweep"
    axes: Dict[str, List[Any]] = field(default_factory=dict)
    cases: List[Dict[str, Any]] = field(default_factory=list)
    score: Dict[str, bool] = field(default_factory=dict)
    seed: int = 0

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepSpec":
        known = {"name", "axes", "cases", "score", "seed"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise OptionError(
                "sweep spec: unknown top-level key(s) %s (expected %s)"
                % (", ".join(unknown), ", ".join(sorted(known)))
            )
        axes = dict(data.get("axes") or {})
        bad_axes = sorted(set(axes) - set(AXIS_NAMES))
        if bad_axes:
            raise OptionError(
                "sweep spec: unknown axis name(s) %s (expected %s)"
                % (", ".join(bad_axes), ", ".join(AXIS_NAMES))
            )
        for axis, values in axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise OptionError(
                    "sweep spec: axis %r must be a non-empty list" % axis
                )
        cases = list(data.get("cases") or [])
        for case in cases:
            bad = sorted(set(case) - set(AXIS_NAMES))
            if bad:
                raise OptionError(
                    "sweep spec: case %r has unknown key(s) %s"
                    % (case, ", ".join(bad))
                )
        return cls(
            name=str(data.get("name", "sweep")),
            axes=axes,
            cases=cases,
            score=dict(data.get("score") or {}),
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        with open(path) as handle:
            try:
                data = json.load(handle)
            except ValueError as error:
                raise OptionError("sweep spec %s: not valid JSON (%s)" % (path, error))
        if not isinstance(data, dict):
            raise OptionError("sweep spec %s: expected a JSON object" % path)
        return cls.from_dict(data)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "axes": self.axes,
            "cases": self.cases,
            "score": self.score,
            "seed": self.seed,
        }

    def _raw_combinations(self) -> Iterable[Dict[str, Any]]:
        for case in self.cases:
            raw = dict(DEFAULTS)
            raw.update(case)
            yield raw
        if self.axes:
            names = [axis for axis in AXIS_NAMES if axis in self.axes]
            values = [list(self.axes[axis]) for axis in names]
            counters = [0] * len(names)
            while True:
                raw = dict(DEFAULTS)
                for axis, index in zip(names, counters):
                    raw[axis] = self.axes[axis][index]
                yield raw
                position = len(names) - 1
                while position >= 0:
                    counters[position] += 1
                    if counters[position] < len(values[position]):
                        break
                    counters[position] = 0
                    position -= 1
                if position < 0:
                    break

    def expand(self) -> Tuple[List[DseConfig], Dict[str, int], int]:
        """The deduplicated, deterministically ordered work queue.

        Returns ``(configs, skipped, duplicates)`` where ``skipped`` counts
        combinations dropped per reason and ``duplicates`` counts raw
        combinations that normalized onto an already-queued config.
        """
        seen: Dict[str, DseConfig] = {}
        skipped: Dict[str, int] = {}
        duplicates = 0
        for raw in self._raw_combinations():
            config, reason = _normalize(raw, self.score, self.seed)
            if config is None:
                skipped[reason] = skipped.get(reason, 0) + 1
                continue
            key = config.key()
            if key in seen:
                duplicates += 1
                continue
            seen[key] = config
        configs = sorted(seen.values(), key=DseConfig.sort_key)
        return configs, skipped, duplicates


def _splitba_n(pe_count: int, subsystems: int, data_width: int) -> BusSystemSpec:
    """SplitBA generalized to ``subsystems`` bridged halves (chained).

    The preset splits into exactly two subsystems (Figure 7); the DSE
    subsystem-count axis extends the same construction to N chunks, each
    with its own shared-memory BAN and arbiter, bridged in a chain.
    """
    letters = presets.ban_letters(pe_count)
    chunks: List[List[str]] = [[] for _ in range(subsystems)]
    for index, letter in enumerate(letters):
        chunks[index * subsystems // pe_count].append(letter)
    subs = []
    for index, chunk in enumerate(chunks, start=1):
        bans = [
            BANSpec(name=letter, cpu_type="MPC755", memories=[]) for letter in chunk
        ]
        bans.append(
            BANSpec(
                name="G%d" % index,
                cpu_type="NONE",
                memories=[MemorySpec("SRAM", 20, data_width, name="GLOBAL_SRAM_G%d" % index)],
                is_global_resource=True,
            )
        )
        subs.append(
            BusSubsystemSpec(name="SUB%d" % index, bans=bans, buses=[BusSpec("SPLITBA")])
        )
    return BusSystemSpec(name="SPLITBA", subsystems=subs)


def build_config_spec(config: DseConfig) -> BusSystemSpec:
    """The validated :class:`BusSystemSpec` for one config.

    Builds the preset (or the generalized N-subsystem SplitBA), then
    applies the width / arbiter-policy axes onto every bus spec -- the
    policy is written into ``BusSpec.arbiter_policy`` so it is part of
    the generated system, not just a simulation override.  Reads only
    :meth:`DseConfig.spec_fields`.
    """
    if config.bus == "SPLITBA" and config.subsystems not in (None, 2):
        spec = _splitba_n(config.pes, config.subsystems, config.data_width)
    else:
        kwargs: Dict[str, Any] = {}
        if config.fifo_depth is not None and config.bus in FIFO_ARCHS:
            kwargs["fifo_depth"] = config.fifo_depth
        spec = presets.preset(config.bus, config.pes, **kwargs)
    spec.set_data_width(config.data_width)
    for subsystem in spec.subsystems:
        for bus in subsystem.buses:
            bus.arbiter_policy = config.arbiter_policy
    spec.validate()
    return spec


def smoke_spec() -> SweepSpec:
    """The bounded built-in sweep behind ``repro dse --smoke`` (CI)."""
    return SweepSpec.from_dict(
        {
            "name": "smoke",
            "axes": {
                "bus": ["GBAVIII", "BFBA", "SPLITBA", "GGBA"],
                "pes": [2, 4],
                "style": ["PPA", "FPA"],
                "packets": [1],
            },
        }
    )


def example_spec() -> SweepSpec:
    """The original nine-case example as a tiny sweep spec."""
    return SweepSpec.from_dict(
        {
            "name": "example",
            "cases": [
                {"bus": "BFBA", "style": "PPA"},
                {"bus": "GBAVI", "style": "PPA"},
                {"bus": "GBAVIII", "style": "PPA"},
                {"bus": "GBAVIII", "style": "FPA"},
                {"bus": "HYBRID", "style": "PPA"},
                {"bus": "HYBRID", "style": "FPA"},
                {"bus": "SPLITBA", "style": "FPA"},
                {"bus": "GGBA", "style": "PPA"},
                {"bus": "GGBA", "style": "FPA"},
            ],
        }
    )
