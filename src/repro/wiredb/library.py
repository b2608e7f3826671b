"""The Wire Library: section registry with lookup and expansion.

"The Wire Library contains all possible combinations of legal connections
between hardware blocks" -- here, a dict of named sections, each a list of
:class:`WireSpec`.  Sections are loaded from ASCII text (user libraries in
the paper's format) or produced on demand by the built-in generators for a
requested shape.

:func:`expand_chain` implements Example 8's serial-connection rule: a
group-vs-group spec yields one suffixed wire per consecutive member pair,
ring-closed (Figure 17a's ``w_data_4`` from the last BAN back to the
first).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from . import builtin
from .model import Endpoint, WireGroup, WireSpec
from .parser import parse_wire_text

__all__ = ["WireLibrary", "expand_chain", "default_wire_library"]


def expand_chain(spec: WireSpec) -> List[Tuple[str, Endpoint, Endpoint]]:
    """Expand a group-vs-group chain spec into suffixed point wires.

    Returns ``(wire_name_k, upstream_endpoint, downstream_endpoint)``
    triples: wire *k* joins member *k-1*'s ``end2`` port (the ``_up`` side)
    to member *k mod n*'s ``end1`` port (the ``_dn`` side).
    """
    if not spec.is_chain:
        raise ValueError("spec %s is not a group-vs-group chain" % spec.name)
    members = spec.end1.group_members
    count = len(members)
    wires = []
    for index in range(count):
        upstream_member = members[index]
        downstream_member = members[(index + 1) % count]
        name = "%s_%d" % (spec.name, index + 1)
        upstream = Endpoint(
            spec.end2.member_name(upstream_member),
            spec.end2.port,
            spec.end2.wire_msb,
            spec.end2.wire_lsb,
        )
        downstream = Endpoint(
            spec.end1.member_name(downstream_member),
            spec.end1.port,
            spec.end1.wire_msb,
            spec.end1.wire_lsb,
        )
        wires.append((name, upstream, downstream))
    return wires


class WireLibrary:
    """Named wire sections, with built-in generation for standard shapes."""

    def __init__(self, text: Optional[str] = None):
        self.sections: Dict[str, WireGroup] = {}
        if text:
            self.load_text(text)

    def load_text(self, text: str) -> List[str]:
        groups = parse_wire_text(text)
        for name, group in groups.items():
            if name in self.sections:
                raise ValueError("wire library already has section %r" % name)
            self.sections[name] = group
        return sorted(groups)

    def __contains__(self, name: str) -> bool:
        return name in self.sections

    def section(self, name: str) -> WireGroup:
        try:
            return self.sections[name]
        except KeyError:
            raise KeyError(
                "Wire Library has no section %r (have: %s)"
                % (name, ", ".join(sorted(self.sections)))
            )

    # -- built-in generation ------------------------------------------------
    def ban_section(
        self,
        kind: str,
        mem_aw: int = 20,
        with_ip_port: bool = False,
        data_width: int = 64,
        mem_data_width: int = 64,
    ) -> WireGroup:
        """Fetch (or generate and cache) the wire section for a BAN kind."""
        key = "ban_%s_aw%d_d%d_md%d%s" % (
            kind,
            mem_aw,
            data_width,
            mem_data_width,
            "_ip" if with_ip_port else "",
        )
        if key not in self.sections:
            text = builtin.ban_section(
                kind,
                mem_aw,
                with_ip_port,
                data_width=data_width,
                mem_data_width=mem_data_width,
            )
            group = list(parse_wire_text(text).values())[0]
            group.name = key
            self.sections[key] = group
        return self.sections[key]

    def global_ban_section(
        self,
        n_masters: int,
        mem_aw: int = 20,
        data_width: int = 64,
        mem_data_width: int = 64,
    ) -> WireGroup:
        key = "ban_global_n%d_aw%d_d%d_md%d" % (
            n_masters,
            mem_aw,
            data_width,
            mem_data_width,
        )
        if key not in self.sections:
            text = builtin.global_ban_section(
                n_masters, mem_aw, data_width=data_width, mem_data_width=mem_data_width
            )
            group = list(parse_wire_text(text).values())[0]
            group.name = key
            self.sections[key] = group
        return self.sections[key]

    def subsystem_section(
        self,
        kind: str,
        ban_names: List[str],
        global_ban: str = "G",
        data_width: int = 64,
    ) -> WireGroup:
        # The global BAN's instance label is part of the section's content
        # (its wires name BAN_<label>), so it must be part of the key:
        # sharing one library across many generated systems would otherwise
        # serve a section wired to another system's global BAN.
        key = "subsys_%s_%s_g%s_d%d" % (kind, "".join(ban_names), global_ban, data_width)
        if key not in self.sections:
            text = builtin.subsystem_section(
                kind, ban_names, global_ban, data_width=data_width
            )
            group = list(parse_wire_text(text).values())[0]
            group.name = key
            self.sections[key] = group
        return self.sections[key]


@lru_cache(maxsize=None)
def default_wire_library() -> WireLibrary:
    """The process's one Wire Library, shared with the sections it generates
    on first use for each shape.  A private one is ``WireLibrary()``."""
    return WireLibrary()
