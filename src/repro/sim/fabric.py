"""Bus fabric construction: from the generated netlist to a runnable machine.

The machine simulates what BusSyn generates: :class:`MachineBuilder` walks
the :class:`~repro.verify.graph.FabricGraph` extracted from the Verilog of
a :class:`BusSystemSpec` and turns it into a connected set of simulation
models -- PEs, bus segments, bridges, arbiters, memories, handshake
registers and Bi-FIFOs -- matching the topologies of Figures 3-9.

Topology summary (4-PE shape; all scale with PE count):

* **BFBA** (Fig 4)  -- one private bus segment per BAN; Bi-FIFO blocks and
  handshake registers linked point-to-point between adjacent BANs (ring).
* **GBAVI** (Fig 3) -- one bus segment per BAN; bus bridges join adjacent
  segments in a ring, so neighbour pairs communicate without disturbing
  other pairs.
* **GBAVIII** (Fig 5) -- a local segment per BAN (PE + local SRAM) plus one
  arbitrated global segment carrying the global SRAM; every PE masters both
  its local segment and the global segment directly (via its GBI).
* **Hybrid** (Fig 6) -- GBAVIII plus BFBA's point-to-point FIFO/handshake
  links.
* **SplitBA** (Fig 7) -- two GBAVIII-style shared segments, each with half
  the PEs and its own shared SRAM + arbiter, joined by a bus bridge.
* **GGBA** (Fig 9, baseline) -- a single arbitrated segment; one shared
  SRAM holds *everything* including each PE's program and local data.
* **CCBA** (Fig 8, baseline) -- a single PLB-style segment with a 5-cycle
  read grant; per-PE SRAMs and the shared SRAM all sit behind it (the
  netlist's per-BAN local buses fold into the PLB).

Every PE also owns L1 I/D caches; cache-miss refills are real bus traffic
against the PE's program/data memory, which is what separates GGBA from the
generated architectures in Table II (observation B).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Sequence, Set, Tuple

from ..obs import FanoutProbe
from ..core.busyn import BusSyn, GeneratedBusSystem
from ..options.schema import BusSpec, BusSubsystemSpec, BusSystemSpec, OptionError
from .arbiter import make_arbiter
from .bus import BusBridge, BusSegment, find_route
from .cache import CacheStats
from .fifo import BiFifo, HardwareFifo
from .hsregs import HandshakeRegisters, SharedVariables
from .interrupt import InterruptController
from .kernel import Simulator
from .memory import Dram, Memory, Sram, make_memory
from .pe import MISS_GROUP, ProcessingElement, ProgramError

if TYPE_CHECKING:
    from ..verify.graph import BanNode, FabricGraph, SegmentNode, SubsystemNode

__all__ = [
    "Device",
    "Machine",
    "MachineBuilder",
    "build_machine",
    "CODE_FOOTPRINT_WORDS",
    "VAR_AREA_WORDS",
]

# Default per-PE code footprint reserved in its program memory (words).
CODE_FOOTPRINT_WORDS = 2048
# Words reserved at the top of a shared memory for global control variables.
VAR_AREA_WORDS = 64
# Bus address of each register in a handshake register block, and back.
_REGISTER_ADDRESSES = {"DONE_OP": 0, "DONE_RV": 1}
_HS_REGISTERS = {address: name for name, address in _REGISTER_ADDRESSES.items()}


def _register_address(device_name: str, register: str) -> int:
    """The bus address of ``register`` in block ``device_name``; KeyError
    for a name that is not a handshake register."""
    address = _REGISTER_ADDRESSES.get(register)
    if address is None:
        raise KeyError(
            "%s: unknown handshake register %r (expected DONE_OP/DONE_RV)"
            % (device_name, register)
        )
    return address


class Device:
    """A slave reachable over the fabric."""

    __slots__ = ("name", "kind", "target", "segment", "point_to_point", "parties")

    def __init__(
        self,
        name: str,
        kind: str,
        target,
        segment: Optional[BusSegment],
        point_to_point: bool = False,
        parties: Optional[Set[str]] = None,
    ):
        self.name = name
        self.kind = kind  # 'memory' | 'hsregs' | 'fifo'
        self.target = target
        self.segment = segment
        self.point_to_point = point_to_point
        self.parties = parties or set()


class _PreparedPlan:
    """A route plan with its per-transfer invariants precomputed.

    ``_occupy_path`` runs hundreds of thousands of times per table case;
    the canonical segment ordering, the path-wide beat rate and the bridge
    hop list never change for a given route, so they are computed once here
    instead of per transfer.
    """

    __slots__ = ("plan", "segments", "single", "words_per_beat", "beat_cycles", "bridges")

    def __init__(self, plan: List[Tuple[BusSegment, Optional["BusBridge"]]]):
        self.plan = plan
        unique = {segment.name: segment for segment, _bridge in plan}
        # Canonical (name-sorted) acquisition order; see _occupy_bridged.
        self.segments = [unique[name] for name in sorted(unique)]
        self.single = self.segments[0] if len(self.segments) == 1 else None
        self.beat_cycles = max(segment.beat_cycles for segment, _bridge in plan)
        self.words_per_beat = min(segment.words_per_beat for segment, _bridge in plan)
        self.bridges = [bridge for _segment, bridge in plan if bridge is not None]


class Machine:
    """A runnable simulated SoC built from a BusSystemSpec."""

    def __init__(self, sim: Simulator, spec: BusSystemSpec):
        self.sim = sim
        self.spec = spec
        self.name = spec.name
        self.segments: Dict[str, BusSegment] = {}
        self.bridges: List[BusBridge] = []
        self.devices: Dict[str, Device] = {}
        self.pes: Dict[str, ProcessingElement] = {}
        self.pe_order: List[str] = []  # BAN letters with PEs, in chain order
        self.pe_by_ban: Dict[str, ProcessingElement] = {}
        self.ban_of_pe: Dict[str, str] = {}
        self.home_segment: Dict[str, BusSegment] = {}
        self.direct_segments: Dict[str, Set[BusSegment]] = {}
        self.interrupt_controllers: Dict[str, InterruptController] = {}
        self.shared_vars: Dict[str, SharedVariables] = {}  # memory name -> vars
        self.global_memory: Optional[str] = None
        self.shared_memory_of: Dict[str, str] = {}  # ban -> shared memory name
        self.fifo_blocks: Dict[str, BiFifo] = {}  # ban letter -> its block
        self.hs_blocks: Dict[str, HandshakeRegisters] = {}  # ban letter -> block
        self._alloc_next: Dict[str, int] = {}
        # (pe name, device name) -> (bridge-enable state, _PreparedPlan).
        # Routes only change when a bridge is toggled, so the cached plan is
        # revalidated against the enable mask on every lookup.
        self._plan_cache: Dict[Tuple[str, str], Tuple[Tuple[bool, ...], _PreparedPlan]] = {}
        self.bus_clock_hz = 100_000_000  # SYSCLK cap of the MPC755 (sec. VI.B)
        # Observers (repro.obs.Probe) in attach order; see attach_probe.
        self._probes: List = []
        # The probe the fault injector reports episodes to (Probe.on_fault),
        # set by attach_probe like the models' slots; None when unprobed.
        self.probe = None
        # Observability layer (repro.obs.Observability), one of the probes;
        # build_run_report reads its per-segment detail.
        self._obs = None
        # Fault injector (repro.faults.FaultInjector); None keeps the
        # transaction path free of retry/recovery logic.  Set by
        # repro.faults.install_faults.
        self._faults = None
        # Whether this machine's polls park for poll fast-forward: False
        # once a probe needing every hook call is attached (see _hooked).
        self._polls_park = True

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def obs(self):
        return self._obs

    def attach_probe(self, probe) -> None:
        """Make ``probe`` (a :class:`repro.obs.Probe`) observe every model.

        The one setter of the ``probe`` slots: the machine (whose fault
        injector reports to it) and every segment, arbiter, bridge, FIFO
        and handshake register block get the probe, or a
        :class:`repro.obs.FanoutProbe` over all attached probes once there
        are several.  A probed machine's tenures all run through
        :meth:`_occupy_path`, which reports them, from the next one on.
        Its polls keep fast-forwarding only if the probe declares the
        counters it keeps (:meth:`repro.obs.Probe.counters`), which a jump
        then moves on in bulk; a probe that needs every hook call turns
        the jumps off.  Attaching a probe that is already attached is a
        no-op.
        """
        if any(attached is probe for attached in self._probes):
            return
        self._probes.append(probe)
        self._hooked()
        if len(self._probes) > 1:
            probe = FanoutProbe(self._probes)
        self.probe = probe
        for segment in self.segments.values():
            segment.probe = probe
            segment.arbiter.probe = probe
        for bridge in self.bridges:
            bridge.probe = probe
        for block in self.fifo_blocks.values():
            block.up.probe = probe
            block.down.probe = probe
        for device in self.devices.values():
            if device.kind == "hsregs":
                device.target.probe = probe

    def _hooked(self) -> None:
        """Note an attached probe or fault injector for poll fast-forward.

        Polls started from here on register and park only while every
        probe declares its counters, and the compiled run loop rebuilds
        its models of the parked loops, which read the hooks' counters."""
        self._polls_park = all(probe.counters() is not None for probe in self._probes)
        if self.sim.kernel_name == "compiled":
            self.sim._poll_model = None
            self.sim._poll_models.clear()

    def attach_observability(self, obs) -> None:
        """Attach an :class:`repro.obs.Observability` as a probe.

        Its hooks record tenure spans, arbitration-wait histograms and
        occupancy series, bridge hops, FIFO fill levels, queued grants and
        fault episodes; the kernel also tracks peak event-queue depth.
        Attaching never changes simulation behaviour -- a traced run is
        bit-identical to an untraced one, just observable.
        """
        self._obs = obs
        self.sim.monitor_depth = True
        obs.watch(self.segments)
        self.attach_probe(obs)

    def attach_monitors(self, fail_fast: bool = True):
        """Attach runtime protocol assertion monitors to every bus model.

        Convenience wrapper around :func:`repro.verify.attach_monitors`;
        returns the :class:`repro.verify.ProtocolMonitor`, attached as a
        probe.  Monitors are observational only -- a monitored run is
        bit-identical to an unmonitored one.
        """
        from ..verify.monitors import attach_monitors

        return attach_monitors(self, fail_fast=fail_fast)

    def run_report(self, wall_seconds: float = 0.0, name: Optional[str] = None):
        """Snapshot this machine into a :class:`repro.obs.report.RunReport`."""
        from ..obs.report import build_run_report

        return build_run_report(self, wall_seconds=wall_seconds, name=name)

    # ------------------------------------------------------------------
    # Construction helpers (used by the builder)
    # ------------------------------------------------------------------
    def add_segment(self, segment: BusSegment) -> BusSegment:
        self.segments[segment.name] = segment
        return segment

    def add_device(self, device: Device) -> Device:
        if device.name in self.devices:
            raise OptionError("duplicate device name %r" % device.name)
        self.devices[device.name] = device
        if device.kind == "memory":
            self._alloc_next.setdefault(device.name, 0)
        return device

    def reserve(self, device_name: str, words: int, align: int = 8) -> int:
        """Bump-allocate ``words`` in a memory device; returns the offset."""
        device = self.devices[device_name]
        if device.kind != "memory":
            raise OptionError("cannot allocate inside non-memory %r" % device_name)
        cursor = self._alloc_next[device_name]
        cursor = (cursor + align - 1) // align * align
        end = cursor + words
        if end > device.target.size_words:
            raise OptionError(
                "memory %s exhausted: need %d words at %d (capacity %d)"
                % (device_name, words, cursor, device.target.size_words)
            )
        self._alloc_next[device_name] = end
        return cursor

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def memory(self, name: str) -> Memory:
        device = self.devices[name]
        if device.kind != "memory":
            raise KeyError("%r is not a memory" % name)
        return device.target

    def local_memory_of(self, ban: str) -> Optional[str]:
        name = "SRAM_%s" % ban
        return name if name in self.devices else None

    def pe(self, ban: str) -> ProcessingElement:
        return self.pe_by_ban[ban]

    def neighbors_of(self, ban: str) -> Tuple[Optional[str], Optional[str]]:
        """(predecessor, successor) BAN letters in the chain/ring order."""
        index = self.pe_order.index(ban)
        count = len(self.pe_order)
        if count == 1:
            return None, None
        return self.pe_order[(index - 1) % count], self.pe_order[(index + 1) % count]

    def fifo_for(self, sender_ban: str, receiver_ban: str) -> Tuple[Device, HardwareFifo]:
        """The FIFO carrying sender->receiver data (adjacent BANs only)."""
        predecessor, successor = self.neighbors_of(sender_ban)
        if receiver_ban == successor:
            device = self.devices["BIFIFO_%s" % receiver_ban]
            return device, device.target.up
        if receiver_ban == predecessor:
            device = self.devices["BIFIFO_%s" % sender_ban]
            return device, device.target.down
        raise LookupError(
            "BANs %s and %s are not adjacent; the paper relays through "
            "intermediate PEs (section IV.C.2)" % (sender_ban, receiver_ban)
        )

    def hsregs_for(self, sender_ban: str, receiver_ban: str) -> Device:
        """The HS_REGS pair for a sender->receiver link (in receiver's BAN).

        The canonical predecessor->BAN pair uses the BAN's HS_REGS block
        (Figure 10); any additional link into the same BAN (e.g. the ring
        wire from the last BAN back to the first, Figure 17a) gets its own
        register pair, allocated lazily -- hardware-wise a second pair of
        one-bit registers in the same block.
        """
        canonical = "HS_REGS_%s" % receiver_ban
        if canonical not in self.devices:
            raise LookupError("no handshake registers in BAN %s" % receiver_ban)
        predecessor, _successor = self.neighbors_of(receiver_ban)
        if sender_ban == predecessor:
            return self.devices[canonical]
        extra = "HS_REGS_%s_FROM_%s" % (receiver_ban, sender_ban)
        if extra not in self.devices:
            template = self.devices[canonical]
            block = HandshakeRegisters(self.sim, extra)
            block.probe = template.target.probe
            parties = None
            if template.point_to_point:
                parties = {
                    self.pe_by_ban[sender_ban].name,
                    self.pe_by_ban[receiver_ban].name,
                }
            self.add_device(
                Device(
                    extra,
                    "hsregs",
                    block,
                    template.segment,
                    point_to_point=template.point_to_point,
                    parties=parties,
                )
            )
        return self.devices[extra]

    def elapsed_seconds(self) -> float:
        return self.sim.now / self.bus_clock_hz

    def program_cycles(self) -> int:
        """The cycle the last PE program finished in, after the run.

        Raises :class:`ProgramError`, naming the PE and chained to the
        program's exception, when a PE's program raised: the cycles of the
        PEs that survived would time a workload that was never finished.
        """
        for name, pe in self.pes.items():
            error = pe.program_error
            if error is not None:
                raise ProgramError.naming(self.name, name, error) from error
        return max((pe.finished_at or 0) for pe in self.pes.values())

    # ------------------------------------------------------------------
    # Bus transactions
    # ------------------------------------------------------------------
    def _route_plan(
        self, pe: ProcessingElement, device: Device
    ) -> List[Tuple[BusSegment, Optional[BusBridge]]]:
        """Segments to occupy (in order) to reach ``device`` from ``pe``."""
        if device.point_to_point:
            if device.parties and pe.name not in device.parties:
                raise LookupError(
                    "%s has no point-to-point wires to %s" % (pe.name, device.name)
                )
            return [(self.home_segment[pe.name], None)]
        target_segment = device.segment
        direct = self.direct_segments[pe.name]
        if target_segment in direct:
            return [(target_segment, None)]
        # Route over bridges from the closest directly-mastered segment.
        best: Optional[List[Tuple[BusSegment, Optional[BusBridge]]]] = None
        for start in direct:
            try:
                route = find_route(start, target_segment, self.bridges)
            except LookupError:
                continue
            if best is None or len(route) < len(best):
                best = route
        if best is None:
            raise LookupError(
                "%s cannot reach device %s on segment %s"
                % (pe.name, device.name, target_segment.name if target_segment else None)
            )
        return best

    def _plan_for(self, pe: ProcessingElement, device: Device) -> _PreparedPlan:
        """Cached :class:`_PreparedPlan` for ``pe`` -> ``device``.

        A one-segment plan -- a point-to-point link or a directly mastered
        segment -- never consults the bridges (:meth:`_route_plan`), so it
        is returned as cached.  A bridged plan is revalidated against the
        bridge-enable mask, so that toggling a bridge (isolation tests,
        reconfiguration experiments) transparently re-routes.
        """
        key = (pe.name, device.name)
        entry = self._plan_cache.get(key)
        if entry is not None and entry[1].single is not None:
            return entry[1]
        bridges = self.bridges
        state = tuple(bridge.enabled for bridge in bridges) if bridges else ()
        if entry is not None and entry[0] == state:
            return entry[1]
        prepared = _PreparedPlan(self._route_plan(pe, device))
        self._plan_cache[key] = (state, prepared)
        return prepared

    def _device_latency(self, device: Device, address: int, words: int, write: bool) -> int:
        if device.kind == "memory":
            return device.target.access_latency(address, words, write)
        return 0

    def _occupy_path(
        self,
        pe: ProcessingElement,
        plan: _PreparedPlan,
        words: int,
        write: bool,
        device_latency: int,
        items: int = 1,
    ) -> Generator:
        """The generator that holds every segment on ``plan`` for one transfer.

        A one-segment plan -- the common case on every topology; bridged
        routes only occur for GBAVI neighbour and SplitBA cross-subsystem
        traffic -- is one :meth:`BusSegment.occupy` tenure, returned itself
        so that the caller drives it with no generator in between.

        ``items`` charges the grant and the device latency per item (used
        for grouped cache-miss bursts: each miss re-arbitrates).
        """
        memory_cycles = device_latency * items
        segment = plan.single
        if segment is not None:
            return segment.occupy(pe.name, words, write, memory_cycles, items)
        return self._occupy_bridged(pe.name, plan, words, write, memory_cycles, items)

    def _occupy_bridged(
        self,
        master: str,
        plan: _PreparedPlan,
        words: int,
        write: bool,
        memory_cycles: int,
        items: int,
    ) -> Generator:
        """Hold every segment of a bridged ``plan`` for one transfer.

        Bridged transactions (GBAVI neighbour reads, SplitBA cross-subsystem
        accesses) win *all* segments on the route before data moves -- the
        bus bridge is a pass-gate connection, not a store-and-forward
        buffer, so the whole path behaves as one electrically-joined bus for
        the duration.  Holding the source segment while waiting for the
        next hop's grant produces the convoying contention that penalizes
        bridge-heavy topologies.  Each segment's arbitration counts from
        the transaction's entry to its claim.  A segment is held from its
        claim, and its tenure ends through :meth:`BusSegment.end_tenure`,
        with the probe it opened with, in reverse acquisition order, also
        when the transfer is interrupted before it holds the whole route.
        """
        sim = self.sim
        entry = sim.now
        held = []  # (segment, claim cycle, the probe its tenure opened with)
        # Acquire in a canonical (name-sorted) order so that two crossing
        # transactions travelling in opposite directions cannot hold-and-
        # wait on each other's segments -- the bridge controller only joins
        # segments it can win on both sides.
        faults = self._faults
        try:
            for segment in plan.segments:
                if faults is not None and segment.name in faults.guarded_segments:
                    yield from faults.acquire(segment, master)
                elif not segment.arbiter.try_claim(master):
                    yield segment.arbiter.request(master)
                probe = segment.probe
                if probe is not None:
                    probe.on_transfer_open(segment, master)
                held.append((segment, sim.now, probe))
                yield (segment.write_grant_cycles if write else segment.grant_cycles) * items
            words_per_beat = plan.words_per_beat
            beats = (max(words, 1) + words_per_beat - 1) // words_per_beat * plan.beat_cycles
            hops = 0
            for bridge in plan.bridges:
                hops += bridge.cross(master)
            yield beats + hops + memory_cycles
        except GeneratorExit:
            held.clear()  # closed with a discarded machine: counts nothing
            raise
        finally:
            for segment, acquired, probe in reversed(held):
                segment.end_tenure(master, entry, acquired, words, write, memory_cycles, probe)

    def transaction(
        self,
        pe: ProcessingElement,
        device_name: str,
        address: int,
        words: int,
        write: bool,
        data: Optional[List[int]] = None,
    ) -> Generator:
        """One bus transaction; moves real data; returns read values.

        With a fault injector installed, transfers whose path crosses an
        injected bus bit-flip are detected (parity/ECC check at the
        interface) and retried with exponential backoff.  Writes replay
        from the MBI's ECC-protected store buffer until the slave accepts a
        clean burst (flip windows are finite, so this terminates): memory
        state is never silently corrupted, which keeps polling protocols
        live.  Reads are bounded by the policy's ``max_retries``; a flip
        outlasting every retry becomes a *residual* fault and the corrupted
        read data really propagates to the master -- unless the read targets
        protected control state (handshake registers, the shared-variable
        area), whose narrow words carry redundant coding in the generated
        RTL and are corrected at the interface.  Control-state protection is
        what keeps a persistent flip from desynchronizing the DONE_OP/
        DONE_RV protocol into a livelock.
        """
        device = self.devices[device_name]
        plan = self._plan_for(pe, device)
        faults = self._faults
        if faults is None:
            latency = self._device_latency(device, address, words, write)
            yield from self._occupy_path(pe, plan, words, write, latency)
            return self._touch_device(device, address, words, write, data)
        episode = None
        corrupt = None
        attempt = 0
        while True:
            latency = self._device_latency(device, address, words, write)
            yield from self._occupy_path(pe, plan, words, write, latency)
            fired = faults.check_flip(plan.segments)
            if not fired:
                if episode is not None:
                    faults.resolve_flip_episode(episode, "recovered")
                break
            if episode is None:
                episode = faults.open_flip_episode(fired)
            else:
                faults.note_flip_repeat(len(fired))
            if not write and attempt >= faults.policy.max_retries:
                corrupt = fired[0]
                break
            yield faults.policy.backoff(min(attempt, faults.policy.max_retries))
            faults.retries += 1
            attempt += 1
        result = self._touch_device(device, address, words, write, data)
        if corrupt is not None:
            if result and self._flip_hits_payload(device, address, words):
                faults.resolve_flip_episode(episode, "residual")
                result = faults.corrupt(result, corrupt)
            else:
                # Corrected by the control word's redundant coding.
                faults.resolve_flip_episode(episode, "recovered")
        return result

    def _flip_hits_payload(self, device: Device, address: int, words: int) -> bool:
        """Whether a residual flip on this read corrupts unprotected data.

        Handshake registers and the shared-variable control area carry
        redundant coding (cheap for one-word state); wide payload bursts
        rely on detect-and-retry only.
        """
        if device.kind != "memory":
            return False
        shared = self.shared_vars.get(device.name)
        return shared is None or address + words <= shared.base_address

    def _touch_device(
        self,
        device: Device,
        address: int,
        words: int,
        write: bool,
        data: Optional[List[int]],
    ):
        if device.kind == "memory":
            if write:
                if data is None:
                    data = [0] * words
                device.target.write(address, data)
                return None
            return device.target.read(address, words)
        if device.kind == "hsregs":
            register = _HS_REGISTERS[address]
            if write:
                device.target.write(register, (data or [0])[0])
                return None
            return [device.target.read(register)]
        raise KeyError("device %s is not addressable this way" % device.name)

    def miss_traffic(
        self,
        pe: ProcessingElement,
        device_name: str,
        misses: int,
        line_words: int,
        write: bool,
    ) -> Generator:
        """Cache refill/writeback traffic: ``misses`` line bursts.

        Misses are grouped (bounded by :data:`repro.sim.pe.MISS_GROUP` at the
        call site) per bus tenure; arbitration is charged per miss within
        the group, so contention costs scale with miss count while the
        simulator's event count stays proportional to groups.

        A group bound for a memory over one segment of an unhooked machine
        (no probe, no fault injector) claims and yields its tenure inline
        and ends it through :meth:`BusSegment.end_tenure`: what
        :meth:`BusSegment.occupy` does, without a generator per group.
        """
        device = self.devices[device_name]
        plan = self._plan_for(pe, device)
        if device.kind == "memory":
            memory = device.target
            per_line_latency = memory.access_latency(0, line_words, write)
            segment = plan.single
        else:
            memory = segment = None
            per_line_latency = 0
        sim = self.sim
        master = pe.name
        remaining = misses
        while remaining > 0:
            group = remaining if remaining < MISS_GROUP else MISS_GROUP
            remaining -= group
            words = group * line_words
            if segment is None or self._probes or self._faults is not None:
                yield from self._occupy_path(
                    pe, plan, words, write, per_line_latency, items=group
                )
            else:
                memory_cycles = per_line_latency * group
                entry = sim.now
                arbiter = segment.arbiter
                if not arbiter.try_claim(master):
                    yield arbiter.request(master)
                acquired = sim.now
                wpb = segment.words_per_beat
                try:
                    yield (
                        (segment.write_grant_cycles if write else segment.grant_cycles) * group
                        + (max(words, 1) + wpb - 1) // wpb * segment.beat_cycles
                        + memory_cycles
                    )
                except GeneratorExit:
                    raise  # closed with a discarded machine: counts nothing
                except BaseException:
                    segment.end_tenure(master, entry, acquired, words, write, memory_cycles, None)
                    raise
                segment.end_tenure(master, entry, acquired, words, write, memory_cycles, None)
            if memory is not None:
                # Account traffic volume without disturbing program data:
                # refills read, writebacks write, against a scratch region.
                if write:
                    memory.writes += words
                else:
                    memory.reads += words

    def atomic_rmw(
        self,
        pe: ProcessingElement,
        device_name: str,
        address: int,
        update,
    ) -> Generator:
        """Atomic read-modify-write of one word (lwarx/stwcx.-style).

        The bus segment is held across the read and the write, so no other
        master can interleave -- this is what the RTOS lock manager uses for
        its test-and-set in shared memory.  Returns ``(old, new)``.
        """
        device = self.devices[device_name]
        plan = self._plan_for(pe, device)
        # One path tenure covers both the read beat and the write beat.
        latency = 2 * self._device_latency(device, address, 1, True)
        yield from self._occupy_path(pe, plan, 2, True, latency)
        old = self._touch_device(device, address, 1, False, None)[0]
        new = update(old) & 0xFFFFFFFF
        self._touch_device(device, address, 1, True, [new])
        pe.stats.words_read += 1
        pe.stats.words_written += 1
        return old, new

    # ------------------------------------------------------------------
    # Register / FIFO convenience operations (used by repro.soc.api)
    # ------------------------------------------------------------------
    def reg_read(self, pe: ProcessingElement, device_name: str, register: str) -> Generator:
        address = _register_address(device_name, register)
        values = yield from self.transaction(pe, device_name, address, 1, write=False)
        return values[0]

    def reg_write(
        self, pe: ProcessingElement, device_name: str, register: str, value: int
    ) -> Generator:
        address = _register_address(device_name, register)
        yield from self.transaction(pe, device_name, address, 1, write=True, data=[value])

    def var_read(self, pe: ProcessingElement, memory_name: str, variable: str) -> Generator:
        shared = self.shared_vars[memory_name]
        value = yield from pe.bus_read(memory_name, shared.slot(variable), 1)
        return value[0]

    def var_write(
        self, pe: ProcessingElement, memory_name: str, variable: str, value: int
    ) -> Generator:
        shared = self.shared_vars[memory_name]
        yield from pe.bus_write(memory_name, shared.slot(variable), [value])

    def poll(
        self,
        pe: ProcessingElement,
        device_name: str,
        key: str,
        value: int,
        interval: int,
        interval_max: int,
        probe: float,
    ) -> Generator:
        """Software polling (section IV.C): read ``key`` until it is ``value``.

        Returns the polling generator.  Each iteration runs a
        ``probe``-instruction compute phase (load, mask, compare, branch),
        then a real one-word bus read, then backs off; the interval doubles
        up to ``interval_max``:

        * on a handshake register block, ``key`` names the register, and
          the back-off ends early on a matching write
          (:meth:`HandshakeRegisters.wait_for`);
        * on a memory, ``key`` names a shared control variable
          (:class:`SharedVariables`), which has no change notification, so
          the PE idles for the interval; its reads count as the PE's bus
          reads, as ``pe.bus_read`` does.

        An unknown device or register, or a negative ``probe``, raises at
        the first step, before any bus traffic; an unreachable route raises
        ``LookupError`` at the first read.

        On an unhooked machine (no probe, no fault injector) the loop runs
        its probe and, over a one-segment route, its read's tenure inline,
        ending it through :meth:`BusSegment.end_tenure`: what
        ``pe.compute`` and :meth:`transaction` (or ``pe.bus_read``) would
        do, without a generator per step.  It tests for hooks on
        every iteration, so a probe attached mid-wait sees the next read.
        On the compiled backend the loops register a :class:`_PollLoop` and
        park at ``interval_max`` -- unless a probe that needs every hook
        call is attached (``repro.obs.Probe.counters``); once every
        registered loop is parked with nothing else due, the compiled run
        loop skips whole periods of them and adds their counters, and the
        counters the machine's protocol monitor and fault injector keep,
        in bulk (``CompiledSimulator._skip_periods``); statistics, cycles
        and hook counts are those of polling every iteration.
        """
        loop = _PollLoop(pe, (), (), None, interval_max)
        loop.generator = self._polling(loop, device_name, key, value, interval, probe)
        return loop.generator

    def _polling(
        self,
        loop: "_PollLoop",
        device_name: str,
        key: str,
        value: int,
        interval: int,
        probe: float,
    ) -> Generator:
        """The generator :meth:`poll` returns, running ``loop``."""
        pe = loop.pe
        interval_max = loop.interval
        device = self.devices[device_name]
        registers = device.kind == "hsregs"
        if registers:
            address = _register_address(device_name, key)
            block = device.target
            memory = None
        else:
            address = None  # the variable's slot, allocated at the first read
            memory = device.target
        if probe < 0:
            raise ValueError("negative instruction count")
        master = pe.name
        stats = pe.stats
        charge = pe._charge
        fetch_misses = pe._fetch_misses
        sim = self.sim
        generator = loop.generator
        # Registered for poll fast-forward on the compiled backend only,
        # and only while no probe needs every hook call.
        loops = None
        if sim.kernel_name == "compiled" and self._polls_park:
            loops = sim._poll_loops
            loops[generator] = loop
            sim._polls_busy += 1
        plan = None
        parked = False
        try:
            while True:
                if probe:
                    if pe.faults is None:
                        cycles = charge(probe)
                        if cycles > 0:
                            yield cycles
                        misses = fetch_misses(probe)
                        if misses:
                            yield from self.miss_traffic(
                                pe, pe.program_device, misses, pe.icache.line_words, False
                            )
                    else:
                        yield from pe.compute(probe)
                if address is None:
                    address = self.shared_vars[device_name].slot(key)
                if plan is None or plan.single is None:
                    # A one-segment plan stays valid (see _plan_for).
                    plan = self._plan_for(pe, device)
                segment = plan.single
                if segment is None or self._probes or self._faults is not None:
                    if registers:
                        values = yield from self.transaction(pe, device_name, address, 1, False)
                    else:
                        values = yield from pe.bus_read(device_name, address, 1)
                    observed = values[0]
                else:
                    # One word: the read grant, one beat and the memory's
                    # latency.
                    latency = 0 if registers else memory.access_latency(address, 1, False)
                    entry = sim.now
                    arbiter = segment.arbiter
                    if not arbiter.try_claim(master):
                        yield arbiter.request(master)
                    acquired = sim.now
                    try:
                        yield segment.grant_cycles + segment.beat_cycles + latency
                    except GeneratorExit:
                        raise  # closed with a discarded machine: counts nothing
                    except BaseException:
                        segment.end_tenure(master, entry, acquired, 1, False, latency, None)
                        raise
                    segment.end_tenure(master, entry, acquired, 1, False, latency, None)
                    if registers:
                        observed = block.read(key)
                    else:
                        observed = memory.read(address, 1)[0]
                        stats.bus_cycles += sim.now - entry
                        stats.words_read += 1
                stats.handshake_polls += 1
                if observed == value:
                    return
                if registers:
                    backoff = block.wait_for(key, value, interval)
                    if backoff.watchers is None:
                        continue
                else:
                    backoff = interval
                if loops is not None and interval == interval_max:
                    if plan.segments is not loop.segments:
                        # The first route, or a new one after a bridge was
                        # toggled: a fresh _PollLoop, so that the run loop
                        # rebuilds its model and no state recorded on the
                        # old route can recur.
                        loop = _PollLoop(pe, plan.segments, plan.bridges, memory, interval_max)
                        loop.generator = generator
                        loops[generator] = loop
                    parked = True
                    sim._polls_busy -= 1
                    yield backoff
                    parked = False
                    sim._polls_busy += 1
                else:
                    yield backoff
                interval *= 2
                if interval > interval_max:
                    interval = interval_max
        finally:
            if loops is not None:
                del loops[generator]
                if not parked:
                    sim._polls_busy -= 1

    def fifo_push(
        self, pe: ProcessingElement, device: Device, fifo: HardwareFifo, values: List[int]
    ) -> Generator:
        """Push ``values`` into a FIFO, blocking on space; charges own bus."""
        cursor = 0
        segment = self.home_segment[pe.name]
        while cursor < len(values):
            if fifo.space == 0:
                yield fifo.wait_space()
                continue
            chunk = values[cursor : cursor + fifo.space]
            yield from segment.occupy(pe.name, len(chunk), write=True)
            fifo.push(chunk)
            faults = self._faults
            if faults is not None and faults.has_fifo_event(fifo):
                # Dropped words are retransmitted (extra bus tenure) and
                # duplicates discarded by the sequence check before the
                # receiver can observe them.
                yield from faults.fifo_link_recovery(pe, segment, fifo)
            pe.stats.words_written += len(chunk)
            cursor += len(chunk)

    def fifo_pop(
        self, pe: ProcessingElement, device: Device, fifo: HardwareFifo, count: int
    ) -> Generator:
        """Pop exactly ``count`` words, blocking on data; charges own bus."""
        out: List[int] = []
        segment = self.home_segment[pe.name]
        while len(out) < count:
            available = min(fifo.count, count - len(out))
            if available == 0:
                yield fifo.wait_data()
                continue
            yield from segment.occupy(pe.name, available, write=False)
            out.extend(fifo.pop(available))
            pe.stats.words_read += available
        return out


# ----------------------------------------------------------------------
# Poll fast-forward (compiled backend)
# ----------------------------------------------------------------------
#
# Each running Machine.poll loop on the compiled backend (unless a probe
# that needs every hook call is attached) registers a _PollLoop with the
# simulator and marks it parked while it backs off at its capped interval,
# so that the run loop can skip whole periods of parked loops
# (CompiledSimulator._skip_periods); _PollModel is the model half of that,
# hooks' counters included.


class _PollLoop:
    """One running poll loop and its route, as the compiled run loop sees it.

    Registered in ``sim._poll_loops`` under its generator from its first
    step to its ``finally``.  While the loop waits out a back-off of
    ``interval`` cycles, its ``interval_max``, it is parked: it does not
    count in ``sim._polls_busy``, and every later back-off is as long, so
    until the polled word changes the loop repeats the same probe, read
    and back-off.  ``segments`` are the segments its read holds and
    ``bridges`` the bridges it crosses: the route its next read takes, as
    it stood when the loop parked, which registers a fresh ``_PollLoop``
    when a toggled bridge re-routes it.
    ``memory`` is the polled memory (None for a register block).
    ``process`` is the process running the loop, filled in by the run loop
    the first time it needs it.
    """

    __slots__ = ("generator", "process", "interval", "pe", "segments", "bridges", "memory")

    def __init__(
        self,
        pe: ProcessingElement,
        segments: Sequence[BusSegment],
        bridges: Sequence[BusBridge],
        memory: Optional[Memory],
        interval: int,
    ):
        self.generator = None
        self.process = None
        self.interval = interval
        self.pe = pe
        self.segments = segments
        self.bridges = bridges
        self.memory = memory


# Arbiter, bridge and memory counters a poll adds to (PeStats, BusStats and
# CacheStats count nothing else, so all their int fields are taken).
_ARBITER_COUNTERS = ("grants", "busy_cycles", "wait_cycles")
_BRIDGE_COUNTERS = ("crossings",)
_MEMORY_COUNTERS = ("reads", "writes")
_DRAM_COUNTERS = _MEMORY_COUNTERS + ("row_hits", "row_misses")


def _int_fields(stats) -> List[str]:
    return [name for name, value in vars(stats).items() if type(value) is int]


class _PollModel:
    """The model state a set of parked poll loops reads and writes.

    Covers every segment, arbiter and bridge on every loop's route, and
    the hooks of the loops' machines: the probes and the fault injector,
    each declaring its counters (:meth:`repro.obs.Probe.counters`).
    Splits it three ways for poll fast-forward:

    * :meth:`ready` -- whether a jump may start: every route arbiter idle,
      every I-cache on its warm shortcut (a probe's fetches then only
      count hits) and every hook declaring its counters (a probe that
      needs every hook call never lets a jump start);
    * :meth:`key` -- what decides the loops' next steps besides the
      calendar: each PE's fractional cycle carry, each route arbiter's
      round-robin ring and peak queue depth, each DRAM's open row, and
      each hook's key and number of counters;
    * :meth:`counters` -- everything else the loops change, all of it
      counters (and the I-fetch cursor, which wraps at the code
      footprint), which :meth:`advance` moves on by whole periods:
      per-master counts on each route segment, bridge crossings and the
      hooks' counters included.  :meth:`clear_periods` keeps a jump short
      of the next value at which a hook acts on one of its counters (a
      fault injector's next trigger window).

    :meth:`ready` reads the hooks' declarations; :meth:`key`,
    :meth:`counters`, :meth:`clear_periods` and :meth:`advance` use the
    last ones it read.
    """

    __slots__ = (
        "loops", "span", "pes", "segments", "memories", "fields", "masters",
        "hooks", "declared",
    )

    def __init__(self, loops: Tuple[_PollLoop, ...]):
        self.loops = loops
        # The shortest possible period: one back-off of the slowest loop.
        self.span = max(loop.interval for loop in loops)
        self.pes = list(dict.fromkeys(loop.pe for loop in loops))
        self.segments = list(dict.fromkeys(s for loop in loops for s in loop.segments))
        self.memories = [
            memory for memory in dict.fromkeys(loop.memory for loop in loops) if memory is not None
        ]
        cells = []
        for pe in self.pes:
            cells += [(pe.stats, _int_fields(pe.stats)), (pe.icache.stats, CacheStats.__slots__)]
        for segment in self.segments:
            cells += [
                (segment.stats, _int_fields(segment.stats)),
                (segment.arbiter, _ARBITER_COUNTERS),
            ]
        for bridge in dict.fromkeys(b for loop in loops for b in loop.bridges):
            cells.append((bridge, _BRIDGE_COUNTERS))
        for memory in self.memories:
            cells.append((memory, _DRAM_COUNTERS if isinstance(memory, Dram) else _MEMORY_COUNTERS))
        self.fields = [(owner, name) for owner, names in cells for name in names]
        self.masters = [
            (segment.stats.per_master, master)
            for segment, master in dict.fromkeys(
                (segment, loop.pe.name) for loop in loops for segment in loop.segments
            )
        ]
        self.hooks = []
        for machine in dict.fromkeys(pe.machine for pe in self.pes):
            self.hooks += machine._probes
            if machine._faults is not None:
                self.hooks.append(machine._faults)
        self.declared = []

    def ready(self) -> bool:
        for segment in self.segments:
            if segment.arbiter.owner is not None or segment.arbiter._pending:
                return False
        for pe in self.pes:
            icache = pe.icache
            if pe.program_device is not None and not (
                pe._fetch_warm
                and icache.flushes == pe._fetch_flushes
                and icache.stats.evictions == pe._fetch_evictions
            ):
                return False
        if self.hooks:
            declared = [hook.counters() for hook in self.hooks]
            for declaration in declared:
                if declaration is None:
                    return False
            self.declared = declared
        return True

    def key(self) -> tuple:
        key = (
            tuple(pe._cycle_carry for pe in self.pes),
            tuple(
                (tuple(getattr(segment.arbiter, "_order", ())), segment.arbiter.peak_pending)
                for segment in self.segments
            ),
            tuple(getattr(memory, "_open_row", None) for memory in self.memories),
        )
        if self.declared:
            key += tuple([(len(cells), hook_key) for cells, hook_key in self.declared])
        return key

    def counters(self) -> List[int]:
        values = [getattr(owner, name) for owner, name in self.fields]
        values += [per_master.get(master, 0) for per_master, master in self.masters]
        values += [pe._fetch_cursor for pe in self.pes]
        for cells, _key in self.declared:
            values += [
                cell[0].get(cell[1], 0) if type(cell[0]) is dict else getattr(cell[0], cell[1])
                for cell in cells
            ]
        return values

    def clear_periods(self, before: List[int], after: List[int], periods: int) -> int:
        """``periods``, or fewer, so that no hook counter that moved between
        ``before`` and ``after`` reaches one of the ``(lo, hi)`` ranges of
        values its cell names within the periods skipped."""
        index = len(self.fields) + len(self.masters) + len(self.pes)
        for cells, _key in self.declared:
            for cell in cells:
                delta = after[index] - before[index]
                if delta and len(cell) > 2:
                    value = after[index]
                    for lo, hi in cell[2]:
                        if hi > value:
                            periods = min(periods, (max(lo, value) - value) // delta)
                index += 1
        return periods

    def advance(self, before: List[int], after: List[int], periods: int) -> None:
        """Add ``periods`` times the change from ``before`` to ``after``,
        two :meth:`counters` snapshots one period apart, to each counter."""
        values = zip(before, after)
        for (owner, name), (old, new) in zip(self.fields, values):
            if new != old:
                setattr(owner, name, new + periods * (new - old))
        for (per_master, master), (old, new) in zip(self.masters, values):
            if new != old:
                per_master[master] = new + periods * (new - old)
        for pe, (old, new) in zip(self.pes, values):
            pe._fetch_cursor = (new + periods * (new - old)) % pe.code_footprint_words
        for cells, _key in self.declared:
            for (owner, name, *_ranges), (old, new) in zip(cells, values):
                if new != old:
                    if type(owner) is dict:
                        owner[name] = new + periods * (new - old)
                    else:
                        setattr(owner, name, new + periods * (new - old))


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


class MachineBuilder:
    """Single composition point for building a runnable :class:`Machine`.

    The machine is built from the netlist BusSyn generates: the builder
    takes a :class:`~repro.core.busyn.GeneratedBusSystem`, or a spec it
    has BusSyn generate, extracts the design's
    :class:`~repro.verify.graph.FabricGraph` and instantiates the
    segments, memories, PEs, bridges and FIFO/handshake links the graph
    holds.  What the RTL does not encode comes from the spec -- memory
    types and names, bus address widths, write-grant cycles -- or from
    the builder: the arbiter-policy override and the scheduler backend.
    Every PE runs at :class:`ProcessingElement`'s CPI of 0.4.

    Observers and fault injectors attach to the built machine:
    :meth:`Machine.attach_observability`, :meth:`Machine.attach_monitors`,
    :meth:`Machine.attach_probe` and :func:`repro.faults.install_faults`.
    A probe or a fault injector routes every later tenure through the
    hooked path, and keeps poll fast-forward on only if it declares the
    counters it keeps (:meth:`repro.obs.Probe.counters`; the protocol
    monitor and the fault injector do).  The per-segment totals
    (:func:`repro.sim.stats.segment_totals`) need no observer.

    Example::

        machine = MachineBuilder(spec).with_kernel("compiled").build()
        machine.attach_observability(obs)

    :func:`build_machine` remains as a thin keyword-argument wrapper.
    """

    def __init__(self, system):
        # A BusSystemSpec, or the GeneratedBusSystem BusSyn made from one.
        self.system = system
        self._kernel: Optional[str] = None
        self._arbiter_policy: Optional[str] = None

    def with_kernel(self, kernel: Optional[str]) -> "MachineBuilder":
        """Pick the scheduler backend (``heap``/``compiled``)."""
        self._kernel = kernel
        return self

    def with_arbiter_policy(self, policy: Optional[str]) -> "MachineBuilder":
        """Override every bus's arbiter policy (arbitration ablation)."""
        self._arbiter_policy = policy
        return self

    def build(self) -> Machine:
        from ..verify.graph import graph_from_design

        generated = self.system
        if not isinstance(generated, GeneratedBusSystem):
            generated = BusSyn().generate(generated)
        spec = generated.spec
        graph = graph_from_design(generated.design())
        del generated  # a generated spec's design is garbage from here on
        machine = Machine(Simulator(kernel=self._kernel), spec)
        _Builder(machine, graph, self._arbiter_policy).build()
        return machine


def build_machine(
    system,
    arbiter_policy: Optional[str] = None,
    kernel: Optional[str] = None,
) -> Machine:
    """Build the simulation machine of ``system``.

    Thin keyword wrapper over :class:`MachineBuilder`: ``system`` is a
    :class:`BusSystemSpec`, which BusSyn generates first, or a
    :class:`~repro.core.busyn.GeneratedBusSystem`.  ``arbiter_policy``
    overrides every bus's arbiter policy (for the arbitration-policy
    ablation); ``kernel`` picks the scheduler backend
    (``"heap"``/``"compiled"``, default
    :func:`repro.sim.kernel.default_kernel`).
    """
    return (
        MachineBuilder(system)
        .with_kernel(kernel)
        .with_arbiter_policy(arbiter_policy)
        .build()
    )


class _Builder:
    """Instantiates a machine from the :class:`FabricGraph` of its design.

    Segments, devices, PEs and bridges are created subsystem by
    subsystem, in the order route search, code reservation and the fault
    injector's site tables rely on: the shared buses the PEs master, then
    each PE's BAN, then the shared buses reached only over bridges, then
    the point-to-point chain links and the subsystem's bridges; the
    system bridges come last.
    """

    def __init__(self, machine: Machine, graph: FabricGraph, arbiter_policy: Optional[str]):
        self.machine = machine
        self.sim = machine.sim
        self.graph = graph
        self.arbiter_policy = arbiter_policy
        # Graph BAN name -> its spec (names, memory types).
        self.bans = {ban.name.upper(): ban for ban in machine.spec.all_bans}
        self.segments: Dict[SegmentNode, BusSegment] = {}
        self.memory_on: Dict[SegmentNode, str] = {}  # shared bus -> its memory

    def build(self) -> None:
        subsystems = {sub.name.upper(): sub for sub in self.machine.spec.subsystems}
        for node in self.graph.subsystems:
            self._subsystem(subsystems[node.name], node)
        for name, side_a, side_b in self.graph.bridges:
            self._bridge(name, side_a, side_b)
        self._finalize_shared_memory_map()
        self._finalize_bus_loading()

    def _subsystem(self, spec: BusSubsystemSpec, node: SubsystemNode) -> None:
        machine = self.machine
        # The segments take the options of the subsystem's one bus, or of a
        # Hybrid's global bus.
        bus = next((bus for bus in spec.buses if bus.bus_type != "BFBA"), spec.buses[0])
        pe_bans = [ban for ban in node.bans if ban.cpu is not None]
        global_bans = [ban for ban in node.bans if ban.cpu is None]
        shared_memory = None
        # A shared bus the PEs master comes before them: its memory holds
        # the shared variables and the programs of PEs without local memory.
        flat = spec.bus_of_type("CCBA") is not None
        for ban in global_bans:
            if ban.segment.masters:
                label = "PLB_%s" if flat else "GLOBAL_BUS_%s"
                shared_memory = self._global_ban(ban, label % spec.name, bus)
        if flat:
            # The CCBA flattening rule.  Its netlist keeps a local bus per
            # BAN, but the CoreConnect baseline (Figure 8) puts every memory
            # and PE behind the one PLB and its 5-cycle read grant, which is
            # what Table III's CCBA row measures.
            for ban in pe_bans:
                if ban.segment is not None:
                    self.segments[ban.segment] = self.segments[ban.shared]
        for ban in pe_bans:
            self._pe_ban(ban, bus)
        # A shared bus reached only over bridges (GBAVII's ring) follows.
        for ban in global_bans:
            if not ban.segment.masters:
                name = "GLOBAL_BUS_%s" % self.bans[ban.name].name
                shared_memory = self._global_ban(ban, name, bus)
        if shared_memory is not None:
            if machine.global_memory is None:
                machine.global_memory = shared_memory
            for ban in pe_bans:
                machine.shared_memory_of[self.bans[ban.name].name] = shared_memory
        for ban in pe_bans:
            self._chain_links(ban)
        for side_a, side_b in node.bridges:
            name = "BB_%s%s" % (self.bans[side_a.ban].name, self.bans[side_b.ban].name)
            self._bridge(name, side_a, side_b)

    def _segment(self, node: SegmentNode, name: str, bus: BusSpec) -> BusSegment:
        segment = self.segments.get(node)
        if segment is None:
            policy = self.arbiter_policy or node.arbiter_policy or bus.arbiter_policy or "fcfs"
            segment = self.machine.add_segment(
                BusSegment(
                    self.sim,
                    name,
                    data_width=node.data_width or bus.data_width,
                    address_width=bus.address_width,
                    arbiter=make_arbiter(self.sim, policy, name + ".arb"),
                    grant_cycles=node.grant_cycles or bus.grant_cycles,
                    write_grant_cycles=bus.effective_write_grant,
                )
            )
            self.segments[node] = segment
        return segment

    def _memory(self, ban: BanNode, segment: BusSegment) -> str:
        """The BAN's memory, sized as its netlist; returns its name."""
        memory_spec = self.bans[ban.name].memories[0]
        memory = make_memory(
            memory_spec.memory_type if memory_spec.memory_type != "DPRAM" else "SRAM",
            memory_spec.name,
            ban.memory_words,
        )
        self.machine.add_device(Device(memory_spec.name, "memory", memory, segment))
        return memory_spec.name

    def _global_ban(self, ban: BanNode, segment_name: str, bus: BusSpec) -> str:
        """A shared bus with its memory and shared variables; returns the
        memory's name."""
        machine = self.machine
        name = self._memory(ban, self._segment(ban.segment, segment_name, bus))
        self.memory_on[ban.segment] = name
        memory = machine.memory(name)
        machine.shared_vars[name] = SharedVariables(memory, memory.size_words - VAR_AREA_WORDS)
        return name

    def _pe_ban(self, ban: BanNode, bus: BusSpec) -> None:
        machine = self.machine
        letter = self.bans[ban.name].name
        if ban.segment is not None:
            home = self._segment(ban.segment, "CPU_BUS_%s" % letter, bus)
            program = self._memory(ban, home)
        else:
            # No local memory: the PE lives on the shared bus and runs its
            # program out of the shared memory (GGBA/SplitBA).
            home = self.segments[ban.shared]
            program = self.memory_on[ban.shared]
        name = "%s_%s" % (ban.cpu, letter)
        pe = ProcessingElement(
            self.sim,
            name,
            machine,
            program_device=program,
            program_base=0,
            code_footprint_words=CODE_FOOTPRINT_WORDS,
        )
        machine.pes[name] = pe
        machine.pe_order.append(letter)
        machine.pe_by_ban[letter] = pe
        machine.ban_of_pe[name] = letter
        machine.home_segment[name] = home
        machine.direct_segments[name] = {home}
        if ban.shared is not None:
            machine.direct_segments[name].add(self.segments[ban.shared])
        machine.interrupt_controllers[name] = InterruptController(self.sim, name + ".intc")
        pe.program_base = machine.reserve(program, CODE_FOOTPRINT_WORDS)
        if ban.hs_regs:
            # HS_REGS for the pair (predecessor -> this BAN) live on this
            # BAN's segment and are bus-addressable from both sides (Fig 10).
            block = HandshakeRegisters(self.sim, "HS_REGS_%s" % letter)
            machine.hs_blocks[letter] = block
            machine.add_device(Device(block.name, "hsregs", block, home))

    def _chain_links(self, ban: BanNode) -> None:
        """The Bi-FIFO block and handshake registers on the chain wires
        ending in ``ban`` (Figure 4); ``up`` carries pred->ban data."""
        machine = self.machine
        letter = self.bans[ban.name].name
        this_pe = machine.pe_by_ban[letter]
        if ban.fifo_from is not None:
            predecessor = self.bans[ban.fifo_from].name
            pred_pe = machine.pe_by_ban[predecessor]
            block = BiFifo(self.sim, "BIFIFO_%s" % letter, ban.fifo_depth)
            machine.fifo_blocks[letter] = block
            machine.add_device(
                Device(
                    block.name,
                    "fifo",
                    block,
                    None,
                    point_to_point=True,
                    parties={pred_pe.name, this_pe.name},
                )
            )
            # Threshold interrupts: up carries pred->ban, down carries ban->pred.
            up_line = machine.interrupt_controllers[this_pe.name].line(
                "fifo_from_%s" % predecessor
            )
            block.up.on_threshold = (
                lambda fifo, line=up_line: line.raise_interrupt(fifo.name)
            )
            down_line = machine.interrupt_controllers[pred_pe.name].line(
                "fifo_from_%s" % letter
            )
            block.down.on_threshold = (
                lambda fifo, line=down_line: line.raise_interrupt(fifo.name)
            )
        if ban.hs_from is not None:
            pred_pe = machine.pe_by_ban[self.bans[ban.hs_from].name]
            block = HandshakeRegisters(self.sim, "HS_REGS_%s" % letter)
            machine.hs_blocks[letter] = block
            machine.add_device(
                Device(
                    block.name,
                    "hsregs",
                    block,
                    None,
                    point_to_point=True,
                    parties={pred_pe.name, this_pe.name},
                )
            )

    def _bridge(self, name: str, side_a: SegmentNode, side_b: SegmentNode) -> None:
        self.machine.bridges.append(
            BusBridge(self.sim, name, self.segments[side_a], self.segments[side_b])
        )

    def _finalize_bus_loading(self) -> None:
        """Derive per-segment beat time from electrical loading.

        Each attached interface (a PE's CBI/GBI, a memory's MBI, an HS_REGS
        block, a bridge port) adds capacitance and wire length; following
        the bus-splitting argument of [19] (cited by the paper for
        SplitBA), a segment with more than four interfaces takes two cycles
        per data beat instead of one.
        """
        machine = self.machine
        loads: Dict[str, int] = {name: 0 for name in machine.segments}
        for pe_name, segments in machine.direct_segments.items():
            for segment in segments:
                loads[segment.name] += 1
        for device in machine.devices.values():
            if device.segment is not None:
                loads[device.segment.name] += 1
        for bridge in machine.bridges:
            loads[bridge.side_a.name] += 1
            loads[bridge.side_b.name] += 1
        for name, segment in machine.segments.items():
            segment.attached_interfaces = loads[name]
            segment.beat_cycles = 1 if loads[name] <= 4 else 2

    def _finalize_shared_memory_map(self) -> None:
        machine = self.machine
        for ban in machine.pe_order:
            if ban not in machine.shared_memory_of and machine.global_memory:
                machine.shared_memory_of[ban] = machine.global_memory
