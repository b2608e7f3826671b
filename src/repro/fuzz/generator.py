"""Seeded sampling of random *legal* option sets.

The sampler draws raw dimension combinations from a :class:`FuzzProfile`
and funnels every draw through :func:`repro.dse.spec.normalize_options`
-- the same normalization + skip-reason legality the DSE queue uses -- so
every emitted case is canonical, deduplicated, and guaranteed buildable.
Illegal draws are not errors: they are counted per skip reason (the same
reason vocabulary as ``repro dse``) and surface in the fuzz summary and
ledger record, so coverage holes in the sampled space stay visible.

A case is a :class:`DseConfig` option surface plus two fuzz-only
dimensions: the fault-plan seed and the fault *scale* (how many smoke
scenarios worth of faults the oracle arms -- 0 means no plan, which is
what the shrinker reduces toward when faults are irrelevant to a
finding).  Sampling is pure ``random.Random("fuzz:<seed>")``: the same
seed always yields the same case list, byte for byte, which is what makes
``repro fuzz`` re-runs cache-hit for free.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs.ledger import content_hash
from ..dse.spec import DseConfig, normalize_options

__all__ = ["FuzzProfile", "case_key", "sample_cases"]

#: Draws per requested case before the sampler gives up.  Profiles whose
#: dimension pools are mostly-legal never get near this; it only guards
#: against a pathological profile (e.g. PPA-only at 2 PEs) spinning.
MAX_DRAW_FACTOR = 64


@dataclass(frozen=True)
class FuzzProfile:
    """The sampled design space: one value pool per dimension.

    CCBA is absent from the default bus pool only to keep seeded
    campaigns reproducible: adding a bus changes every seed's draws and
    fingerprints.  The oracle judges a CCBA case like any other (a custom
    profile, or ``repro verify --arch CCBA``).
    """

    buses: Tuple[str, ...] = (
        "BFBA",
        "GBAVI",
        "GBAVII",
        "GBAVIII",
        "HYBRID",
        "SPLITBA",
        "GGBA",
    )
    pes: Tuple[int, ...] = (1, 2, 3, 4, 6, 8)
    data_widths: Tuple[int, ...] = (32, 64, 128)
    fifo_depths: Tuple[int, ...] = (4, 16, 64, 256, 1024)
    arbiter_policies: Tuple[str, ...] = ("fcfs", "round_robin", "priority")
    styles: Tuple[str, ...] = ("PPA", "FPA", "auto")
    packets: Tuple[int, ...] = (1, 2)
    fault_scales: Tuple[int, ...] = (1, 2)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "buses": list(self.buses),
            "pes": list(self.pes),
            "data_widths": list(self.data_widths),
            "fifo_depths": list(self.fifo_depths),
            "arbiter_policies": list(self.arbiter_policies),
            "styles": list(self.styles),
            "packets": list(self.packets),
            "fault_scales": list(self.fault_scales),
        }

    def hash(self) -> str:
        return content_hash(self.as_dict())[:12]


def case_key(case: Dict[str, Any]) -> str:
    """Content hash identifying one fuzz case (cache + corpus + dedup key)."""
    return content_hash(
        {
            "options": case["options"],
            "fault_seed": case["fault_seed"],
            "fault_scale": case["fault_scale"],
        }
    )


def _draw_raw(rng: random.Random, profile: FuzzProfile) -> Dict[str, Any]:
    """One raw (pre-normalization) dimension combination."""
    pes = rng.choice(profile.pes)
    return {
        "bus": rng.choice(profile.buses),
        "pes": pes,
        # SplitBA is the only multi-subsystem family; normalize_options
        # ignores the axis everywhere else, so an unconditional draw keeps
        # the rng stream identical across buses (stable replay).
        "subsystems": rng.randint(1, max(1, pes)),
        "data_width": rng.choice(profile.data_widths),
        "fifo_depth": rng.choice(profile.fifo_depths),
        "arbiter_policy": rng.choice(profile.arbiter_policies),
        "app": "ofdm",
        "style": rng.choice(profile.styles),
        "packets": rng.choice(profile.packets),
    }


def sample_cases(
    seed: int,
    budget: int,
    profile: Optional[FuzzProfile] = None,
) -> Tuple[List[Dict[str, Any]], Dict[str, int], int]:
    """Sample ``budget`` unique legal cases; returns (cases, skipped, draws).

    ``skipped`` counts illegal draws per normalization skip reason;
    ``draws`` is the total number of raw combinations pulled (so the
    legal-density of the profile is measurable).  Duplicate draws (two
    raws normalizing onto one canonical config + fault tuple) count under
    the pseudo-reason ``"duplicate"``.
    """
    profile = profile or FuzzProfile()
    rng = random.Random("fuzz:%d" % seed)
    cases: List[Dict[str, Any]] = []
    seen: set = set()
    skipped: Dict[str, int] = {}
    draws = 0
    limit = budget * MAX_DRAW_FACTOR
    while len(cases) < budget and draws < limit:
        draws += 1
        raw = _draw_raw(rng, profile)
        fault_seed = rng.randrange(2**32)
        fault_scale = rng.choice(profile.fault_scales)
        config, reason = normalize_options(raw)
        if config is None:
            skipped[reason] = skipped.get(reason, 0) + 1
            continue
        case = {
            "options": config.options(),
            "fault_seed": fault_seed,
            "fault_scale": fault_scale,
        }
        key = case_key(case)
        if key in seen:
            skipped["duplicate"] = skipped.get("duplicate", 0) + 1
            continue
        seen.add(key)
        case["key"] = key
        cases.append(case)
    return cases, skipped, draws
