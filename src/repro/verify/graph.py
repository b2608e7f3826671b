"""The bus fabric a generated design describes, extracted pin by pin.

:func:`graph_from_design` walks an elaborated :class:`~repro.hdl.ast.Design`
into a :class:`FabricGraph`: per subsystem, its BANs in instance order --
each PE with the bus its CPU and memory sit on, the shared bus it masters,
its handshake registers and the FIFO/handshake chain wires ending in it;
each global BAN with its shared bus, arbiter and memory -- and the bridges
joining the segments.  :class:`repro.sim.fabric.MachineBuilder` builds the
simulation machine from this graph, so the RTL and the machine agree by
construction.

Extraction walks the real module hierarchy pin by pin -- the CPU's
address/data buses into the CBI, the CBI/MBI bundles onto a segment's
wires, the MBI's SRAM pins into the memory, the arbiter's REQ/GNT pair
through the ABI onto the shared bus -- so a single dropped or misrouted
wire in the generated Verilog surfaces as a typed :class:`Finding`.  The
findings are the structural check of ``repro verify`` and the fuzz
oracle; a part they report unreachable (a bridge side on no segment, a
chain wire with one end) is left out of the graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..hdl.ast import Design, Instance, Module
from .findings import Finding

__all__ = ["SegmentNode", "BanNode", "SubsystemNode", "FabricGraph", "graph_from_design"]


_ARBITER_RE = re.compile(r"^arbiter_([a-z_]+)_n(\d+)$")
_ABI_RE = re.compile(r"^abi_n(\d+)_g(\d+)$")
_SRAM_RE = re.compile(r"^sram_aw(\d+)(?:_w\d+)?$")
_BIFIFO_RE = re.compile(r"^bififo_d(\d+)(?:_w\d+)?$")

# Chain (point-to-point) link pins of the BFBA family: the ``_up`` pin of
# one BAN and the ``_dn`` pin of its successor share a subsystem wire.
_FIFO_CHAIN = ("fifo_cs_up", "fifo_cs_dn")
_HS_CHAIN = ("done_op_cs_up", "done_op_cs_dn")


@dataclass(eq=False)
class SegmentNode:
    """One bus segment of the netlist."""

    ban: str = ""  # the BAN carrying it: a PE BAN's local bus, a global BAN's shared bus
    masters: List[str] = field(default_factory=list)  # BANs whose PEs master it directly
    data_width: Optional[int] = None
    arbiter_policy: Optional[str] = None  # None: no arbiter on this segment
    grant_cycles: Optional[int] = None


@dataclass(eq=False)
class BanNode:
    """One BAN instance of a subsystem."""

    name: str  # the instance's BAN name, upper-cased (``u_ban_a`` -> ``A``)
    cpu: Optional[str] = None  # CPU type of a PE BAN; None for a global BAN
    segment: Optional[SegmentNode] = None  # the bus its memory (and CPU) sit on
    shared: Optional[SegmentNode] = None  # the shared bus its PE masters
    memory_words: Optional[int] = None
    hs_regs: bool = False  # a bus-addressable handshake-register block
    fifo_from: Optional[str] = None  # BAN at the far end of the FIFO chain wire ending here
    fifo_depth: Optional[int] = None
    hs_from: Optional[str] = None  # likewise for the handshake chain wire


@dataclass
class SubsystemNode:
    name: str  # the instance's subsystem name, upper-cased (``u_sub1`` -> ``SUB1``)
    bans: List[BanNode] = field(default_factory=list)
    bridges: List[Tuple[SegmentNode, SegmentNode]] = field(default_factory=list)


@dataclass
class FabricGraph:
    subsystems: List[SubsystemNode] = field(default_factory=list)
    # System bridges between subsystem shared buses: (name, side a, side b),
    # named after their instances (``u_bb_sys_1`` -> ``BB_SYS_1``).
    bridges: List[Tuple[str, SegmentNode, SegmentNode]] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)

    def _finding(self, where: str, text: str, severity: str = "error") -> None:
        self.findings.append(Finding(severity, "structure", where, text))


def _conn_base(instance: Instance, port: str) -> Optional[str]:
    conn = instance.connection(port)
    if conn is None:
        return None
    base = conn.base_signal
    return base or None


@dataclass
class _BanInfo:
    """Per-BAN-module extraction, shared by every instance of the module."""

    kind: str  # 'pe' | 'global' | 'ip'
    cpu: Optional[str] = None
    mem_words: Optional[int] = None
    seg_width: Optional[int] = None
    hs_bus: int = 0
    has_hs_chain: bool = False
    fifo_depth: Optional[int] = None
    masters_global: bool = False
    exports_seg: bool = False
    # global-BAN fields
    policy: Optional[str] = None
    grant_cycles: Optional[int] = None
    findings: List[Finding] = field(default_factory=list)


def _pin_check(
    info: _BanInfo,
    module_name: str,
    label: str,
    left: Optional[str],
    right: Optional[str],
) -> bool:
    """One wire-level connectivity assertion; False (and a finding) on break."""
    if left is None and right is None:
        # Both sides omit the pin (e.g. the dh lane at data_width 32).
        return True
    if left is not None and left == right:
        return True
    info.findings.append(
        Finding(
            "error",
            "structure",
            module_name,
            "%s: pins land on different nets (%r vs %r)" % (label, left, right),
        )
    )
    return False


def _signal_width(module: Module, name: Optional[str]) -> Optional[int]:
    if name is None:
        return None
    return module.signal_width(name)


def _extract_ban(module: Module) -> _BanInfo:
    by_name = {inst.name: inst for inst in module.instances}
    by_kind: Dict[str, List[Instance]] = {}
    for inst in module.instances:
        for kind, pattern in (
            ("arb", _ARBITER_RE),
            ("abi", _ABI_RE),
            ("mem", _SRAM_RE),
            ("fifo", _BIFIFO_RE),
        ):
            if pattern.match(inst.module):
                by_kind.setdefault(kind, []).append(inst)
        if inst.module.startswith("mbi_"):
            by_kind.setdefault("mbi", []).append(inst)
        elif inst.module.startswith("cbi_"):
            by_kind.setdefault("cbi", []).append(inst)
        elif inst.module.startswith("sb_gbaviii_n"):
            by_kind.setdefault("sbg", []).append(inst)
        elif inst.module.startswith("sb_"):
            by_kind.setdefault("sb", []).append(inst)
        elif inst.module.startswith("hs_regs"):
            by_kind.setdefault("hs", []).append(inst)
        elif inst.module.startswith("bb_"):
            by_kind.setdefault("bb", []).append(inst)
        elif inst.module.startswith("gbi_"):
            by_kind.setdefault("gbi", []).append(inst)

    def one(kind: str) -> Optional[Instance]:
        items = by_kind.get(kind)
        return items[0] if items else None

    if one("arb") is not None:
        return _extract_global_ban(module, by_kind)
    if "u_cpu" not in by_name:
        return _BanInfo("ip")  # hardware-IP BAN: no bus structure inside
    return _extract_pe_ban(module, by_name["u_cpu"], by_kind)


def _extract_pe_ban(
    module: Module, cpu: Instance, by_kind: Dict[str, List[Instance]]
) -> _BanInfo:
    info = _BanInfo("pe", cpu=cpu.module.upper())
    name = module.name

    cbi = by_kind.get("cbi", [None])[0]
    if cbi is None:
        info.findings.append(
            Finding("error", "structure", name, "PE BAN has no CPU bus interface (CBI)")
        )
        return info
    # CPU <-> CBI: the processor's address and data buses must land on the
    # same wires on both modules.
    for pin in ("cpu_a", "cpu_d"):
        _pin_check(
            info, name, "CPU.%s <-> CBI.%s" % (pin, pin),
            _conn_base(cpu, pin), _conn_base(cbi, pin),
        )

    # Segment bundles: each SB pins down one {addr, dh, dl} wire bundle.
    sb_bundles = []
    for sb in by_kind.get("sb", []):
        sb_bundles.append(
            {
                "inst": sb,
                "addr": _conn_base(sb, "addr_local"),
                "dh": _conn_base(sb, "dh"),
                "dl": _conn_base(sb, "dl"),
            }
        )

    def attach(inst: Instance, label: str):
        """Locate ``inst``'s {addr,dh,dl} bundle on an SB; pin-check dh/dl."""
        addr = _conn_base(inst, "addr_local")
        for bundle in sb_bundles:
            if bundle["addr"] == addr and addr is not None:
                _pin_check(
                    info, name, "%s.dh on segment %s" % (label, addr),
                    _conn_base(inst, "dh"), bundle["dh"],
                )
                _pin_check(
                    info, name, "%s.dl on segment %s" % (label, addr),
                    _conn_base(inst, "dl"), bundle["dl"],
                )
                return bundle
        info.findings.append(
            Finding(
                "error", "structure", name,
                "%s address bundle %r reaches no bus segment" % (label, addr),
            )
        )
        return None

    cbi_bundle = attach(cbi, "CBI")
    if cbi_bundle is not None:
        dh = _signal_width(module, cbi_bundle["dh"]) or 0
        dl = _signal_width(module, cbi_bundle["dl"]) or 0
        info.seg_width = (dh + dl) or None

    mbi = by_kind.get("mbi", [None])[0]
    mem = by_kind.get("mem", [None])[0]
    if mbi is not None and mem is not None:
        mbi_bundle = attach(mbi, "MBI0")
        if mbi_bundle is not None and cbi_bundle is not None and mbi_bundle is not cbi_bundle:
            # Two SBs (GBAVI's sbc/sbm pair) must be fused by the BAN's
            # internal bus bridge, else CPU and memory sit on disjoint buses.
            fused = any(
                {_conn_base(bb, "a_addr"), _conn_base(bb, "b_addr")}
                == {cbi_bundle["addr"], mbi_bundle["addr"]}
                for bb in by_kind.get("bb", [])
            )
            if not fused:
                info.findings.append(
                    Finding(
                        "error", "structure", name,
                        "CBI (%s) and MBI0 (%s) sit on disjoint segments with "
                        "no internal bridge" % (cbi_bundle["addr"], mbi_bundle["addr"]),
                    )
                )
                mbi_bundle = None
        if mbi_bundle is not None:
            # MBI0 <-> MEM0 over the SRAM pin bundle.
            _pin_check(
                info, name, "MBI0.sram_addr <-> MEM0.sram_addr",
                _conn_base(mbi, "sram_addr"), _conn_base(mem, "sram_addr"),
            )
            _pin_check(
                info, name, "MBI0.sram_dq <-> MEM0.sram_dq",
                _conn_base(mbi, "sram_dq"), _conn_base(mem, "sram_dq"),
            )
            aw = int(_SRAM_RE.match(mem.module).group(1))
            dq = mem.connection("sram_dq")
            dq_width = _signal_width(module, dq.base_signal) if dq else None
            info.mem_words = (1 << aw) * (dq_width or 32) // 32

    for hs in by_kind.get("hs", []):
        hs_def_has_chain = module.port("done_op_cs_dn") is not None and (
            _conn_base(hs, "done_op_cs_dn") == "done_op_cs_dn"
        )
        if hs_def_has_chain:
            info.has_hs_chain = True
        else:
            info.hs_bus += 1

    fifo = by_kind.get("fifo", [None])[0]
    if fifo is not None:
        info.fifo_depth = int(_BIFIFO_RE.match(fifo.module).group(1))
        _pin_check(
            info, name, "FIFO.fifo_cs_dn on BAN chain port",
            _conn_base(fifo, "fifo_cs_dn"), "fifo_cs_dn",
        )

    for gbi in by_kind.get("gbi", []):
        if gbi.connection("g_req_b") is not None:
            # GBI_GBAVIII / GBI_SHARED: this BAN masters a shared bus.
            info.masters_global = True
            _pin_check(
                info, name, "GBI.g_addr on BAN shared-bus port",
                _conn_base(gbi, "g_addr"), "g_addr",
            )
            if cbi_bundle is not None:
                _pin_check(
                    info, name, "GBI.addr_local on CBI segment",
                    _conn_base(gbi, "addr_local"), cbi_bundle["addr"],
                )
        if gbi.connection("seg_addr") is not None:
            # GBI_GBAVI: the BAN's segment is exported for external bridging.
            info.exports_seg = True
            _pin_check(
                info, name, "GBI.seg_addr on BAN segment port",
                _conn_base(gbi, "seg_addr"), "seg_addr",
            )
    return info


def _extract_global_ban(module: Module, by_kind: Dict[str, List[Instance]]) -> _BanInfo:
    info = _BanInfo("global")
    name = module.name
    arb = by_kind["arb"][0]
    match = _ARBITER_RE.match(arb.module)
    info.policy = match.group(1)

    abi = by_kind.get("abi", [None])[0]
    if abi is None:
        info.findings.append(
            Finding("error", "structure", name, "global BAN has no ABI")
        )
    else:
        info.grant_cycles = int(_ABI_RE.match(abi.module).group(2))
        # Arbiter <-> ABI request/grant pair.
        _pin_check(
            info, name, "ARB.req_b <-> ABI0.arb_req_b",
            _conn_base(arb, "req_b"), _conn_base(abi, "arb_req_b"),
        )
        _pin_check(
            info, name, "ARB.gnt_b <-> ABI0.arb_gnt_b",
            _conn_base(arb, "gnt_b"), _conn_base(abi, "arb_gnt_b"),
        )

    sbg = by_kind.get("sbg", [None])[0]
    if sbg is None:
        info.findings.append(
            Finding("error", "structure", name, "global BAN has no shared-bus SB")
        )
        return info
    if abi is not None:
        # ABI <-> SB: the bus-side REQ/GNT lines ride the shared segment.
        _pin_check(
            info, name, "ABI0.bus_req_b <-> SBG.req_b",
            _conn_base(abi, "bus_req_b"), _conn_base(sbg, "req_b"),
        )
        _pin_check(
            info, name, "ABI0.bus_gnt_b <-> SBG.gnt_b",
            _conn_base(abi, "bus_gnt_b"), _conn_base(sbg, "gnt_b"),
        )

    dh = _signal_width(module, _conn_base(sbg, "dh")) or 0
    dl = _signal_width(module, _conn_base(sbg, "dl")) or 0
    info.seg_width = (dh + dl) or None

    mbi = by_kind.get("mbi", [None])[0]
    mem = by_kind.get("mem", [None])[0]
    if mbi is not None and mem is not None:
        on_bus = _pin_check(
            info, name, "MBI0.addr_local on shared segment",
            _conn_base(mbi, "addr_local"), _conn_base(sbg, "addr_local"),
        )
        _pin_check(
            info, name, "MBI0.dh on shared segment",
            _conn_base(mbi, "dh"), _conn_base(sbg, "dh"),
        )
        _pin_check(
            info, name, "MBI0.dl on shared segment",
            _conn_base(mbi, "dl"), _conn_base(sbg, "dl"),
        )
        _pin_check(
            info, name, "MBI0.sram_addr <-> MEM0.sram_addr",
            _conn_base(mbi, "sram_addr"), _conn_base(mem, "sram_addr"),
        )
        _pin_check(
            info, name, "MBI0.sram_dq <-> MEM0.sram_dq",
            _conn_base(mbi, "sram_dq"), _conn_base(mem, "sram_dq"),
        )
        if on_bus:
            aw = int(_SRAM_RE.match(mem.module).group(1))
            dq = mem.connection("sram_dq")
            dq_width = _signal_width(module, dq.base_signal) if dq else None
            info.mem_words = (1 << aw) * (dq_width or 32) // 32
    return info


def graph_from_design(design: Design) -> FabricGraph:
    """Extract the bus fabric of an elaborated (whole-system) design."""
    graph = FabricGraph()
    if design.top is None:
        graph._finding("<design>", "design has no top module")
        return graph
    top = design.module(design.top)
    info_cache: Dict[str, _BanInfo] = {}

    def ban_info(module_name: str) -> _BanInfo:
        if module_name not in info_cache:
            info = _extract_ban(design.module(module_name))
            info_cache[module_name] = info
            graph.findings.extend(info.findings)
        return info_cache[module_name]

    # (subsystem instance name, EXT port) -> shared node, for system bridges.
    exported_shared: Dict[Tuple[str, str], SegmentNode] = {}

    for sub_inst in top.instances:
        if not sub_inst.module.startswith("subsys_"):
            continue
        sub_mod = design.module(sub_inst.module)
        subsystem = SubsystemNode(sub_inst.name[len("u_"):].upper())
        graph.subsystems.append(subsystem)
        # net -> segment node reachable for bridging on that net.
        net_node: Dict[str, SegmentNode] = {}
        shared_nodes: Dict[str, SegmentNode] = {}
        # chain wires: net -> {'up'|'dn': BAN node}
        fifo_chain: Dict[str, Dict[str, BanNode]] = {}
        hs_chain: Dict[str, Dict[str, BanNode]] = {}
        local_bridges: List[Tuple[Optional[str], Optional[str], str]] = []

        def shared(net: Optional[str]) -> SegmentNode:
            key = net or "<unconnected>"
            if key not in shared_nodes:
                node = SegmentNode()
                shared_nodes[key] = node
                if net is not None:
                    net_node[net] = node
                    if sub_mod.port(net) is not None:
                        exported_shared[(sub_inst.name, net)] = node
            return shared_nodes[key]

        for inst in sub_mod.instances:
            if inst.name.startswith("u_ban_"):
                ban = BanNode(inst.name[len("u_ban_"):].upper())
                info = ban_info(inst.module)
                if info.kind == "global":
                    net = _conn_base(inst, "g_addr")
                    node = shared(net)
                    node.ban = ban.name
                    node.arbiter_policy = info.policy
                    node.grant_cycles = info.grant_cycles
                    node.data_width = info.seg_width
                    ban.segment = node
                    ban.memory_words = info.mem_words
                    subsystem.bans.append(ban)
                    continue
                if info.kind != "pe" or info.cpu is None:
                    continue
                ban.cpu = info.cpu
                subsystem.bans.append(ban)
                if info.masters_global:
                    net = _conn_base(inst, "g_addr")
                    ban.shared = shared(net)
                    ban.shared.masters.append(ban.name)
                if info.mem_words is not None:
                    ban.segment = SegmentNode(
                        ban.name, masters=[ban.name], data_width=info.seg_width
                    )
                    ban.memory_words = info.mem_words
                    ban.hs_regs = info.hs_bus > 0
                    if info.exports_seg:
                        seg_net = _conn_base(inst, "seg_addr")
                        if seg_net is not None:
                            net_node[seg_net] = ban.segment
                if info.fifo_depth is not None:
                    ban.fifo_depth = info.fifo_depth
                    _chain_ends(fifo_chain, sub_mod, inst, _FIFO_CHAIN, ban)
                if info.has_hs_chain:
                    _chain_ends(hs_chain, sub_mod, inst, _HS_CHAIN, ban)
            elif inst.module.startswith("bb_"):
                local_bridges.append(
                    (_conn_base(inst, "a_addr"), _conn_base(inst, "b_addr"), inst.name)
                )

        for net_a, net_b, bb_name in local_bridges:
            node_a = net_node.get(net_a) if net_a else None
            node_b = net_node.get(net_b) if net_b else None
            if node_a is None or node_b is None:
                graph._finding(
                    "%s.%s" % (sub_inst.name, bb_name),
                    "bridge side on net %r reaches no bus segment"
                    % (net_a if node_a is None else net_b),
                )
                continue
            subsystem.bridges.append((node_a, node_b))

        for label, chain, attribute in (
            ("FIFO", fifo_chain, "fifo_from"),
            ("handshake", hs_chain, "hs_from"),
        ):
            for net, ends in sorted(chain.items()):
                if "up" in ends and "dn" in ends:
                    setattr(ends["dn"], attribute, ends["up"].name)
                else:
                    graph._finding(
                        "%s.%s" % (sub_inst.name, net),
                        "%s chain wire has only one endpoint (%s)"
                        % (label, ", ".join(sorted(ends))),
                    )

    # System-level bridges between subsystem shared buses (SplitBA).
    for inst in top.instances:
        if inst.module.startswith("subsys_") or not inst.name.startswith("u_bb_sys"):
            continue
        sides: List[Optional[SegmentNode]] = []
        for pin in ("a_addr", "b_addr"):
            net = _conn_base(inst, pin)
            side = None
            if net is not None:
                for sub_inst in top.instances:
                    if not sub_inst.module.startswith("subsys_"):
                        continue
                    conn = sub_inst.connection("sub_addr")
                    if conn is not None and conn.base_signal == net:
                        side = exported_shared.get((sub_inst.name, "sub_addr"))
                        break
            sides.append(side)
        if sides[0] is None or sides[1] is None:
            graph._finding(
                inst.name,
                "system bridge side reaches no subsystem shared bus",
            )
            continue
        graph.bridges.append((inst.name[len("u_"):].upper(), sides[0], sides[1]))
    return graph


def _chain_ends(
    chain: Dict[str, Dict[str, BanNode]],
    sub_mod: Module,
    inst: Instance,
    pins: Tuple[str, str],
    ban: BanNode,
) -> None:
    """Record ``ban`` at the ends of the chain wires on its ``pins``; a
    pin tied to a subsystem port (a one-BAN chain) links nothing."""
    for end, pin in zip(("up", "dn"), pins):
        net = _conn_base(inst, pin)
        if net is not None and sub_mod.port(net) is None:
            chain.setdefault(net, {})[end] = ban
