"""Fault injection + recovery machinery.

:func:`install_faults` wires a compiled :class:`~repro.faults.plan.FaultPlan`
into a built machine: every simulation model (segments, arbiters, FIFOs,
memories, bridges, PEs) gets a reference to one shared
:class:`FaultInjector`, and the thin hooks in ``repro.sim.*`` consult it.
The hooks are free when off -- a model whose ``faults`` attribute is
``None`` pays one attribute load and a branch, and
an installed-but-empty plan schedules no events, so the run stays
bit-identical to an uninstrumented one (tests/test_faults.py).  The
injector reports each episode to the machine's probe
(:meth:`repro.obs.Probe.on_fault`), so every observer sees the faults.

Recovery taxonomy (the ``ResilienceReport`` invariant is
``injected == recovered + residual + accounted``):

* **recovered** -- the fault was detected and undone: a corrupted transfer
  retried clean, a dropped FIFO chunk retransmitted, a lost grant pulse
  redelivered by the watchdog, a stuck master's grant reclaimed.
* **residual** -- detection worked but bounded retries ran out; the bit
  flip was really applied to the data.  Reported, never silent.
* **accounted** -- pure-latency faults (memory jitter, bridge stalls, PE
  crash/restart) that cost cycles but cannot lose data.

The injector's trigger bookkeeping is plain-Python counters keyed by site
name, advanced in simulation order -- which the heap and compiled
scheduler backends reproduce identically -- so a given plan produces the
same fault episodes, in the same order, at the same cycles on both
backends.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .plan import BusTimeoutError, FaultKind, FaultPlan, FaultSpec

__all__ = ["RecoveryPolicy", "FaultInjector", "install_faults"]


class RecoveryPolicy:
    """Knobs of the recovery machinery (docs/robustness.md lists them all).

    The timeout-escalation budget (``timeout_cycles * (2**max_escalations
    - 1)`` cycles, 65280 with the defaults) must comfortably exceed the
    longest *legitimate* bus wait -- the biggest single tenure (a whole
    buffer transfer, ~4k cycles for the OFDM workload's 4096-word hops)
    times the deepest FCFS queue -- because exhausting it declares the bus
    dead.  The recovery agents it backstops (grant redelivery, stuck-grant
    reclaim) all act within ``watchdog_cycles``, so a genuine hang is
    still detected ~65k cycles in rather than never.
    """

    __slots__ = (
        "max_retries",
        "backoff_base",
        "timeout_cycles",
        "max_escalations",
        "watchdog_cycles",
        "dup_penalty_cycles",
        "retransmit_penalty_cycles",
    )

    def __init__(
        self,
        max_retries: int = 3,
        backoff_base: int = 4,
        timeout_cycles: int = 256,
        max_escalations: int = 8,
        watchdog_cycles: int = 200,
        dup_penalty_cycles: int = 1,
        retransmit_penalty_cycles: int = 2,
    ):
        if max_retries < 0 or max_escalations < 1:
            raise ValueError("recovery policy needs retries >= 0, escalations >= 1")
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.timeout_cycles = timeout_cycles
        self.max_escalations = max_escalations
        self.watchdog_cycles = watchdog_cycles
        self.dup_penalty_cycles = dup_penalty_cycles
        self.retransmit_penalty_cycles = retransmit_penalty_cycles

    def backoff(self, attempt: int) -> int:
        """Exponential backoff before retry ``attempt`` (0-based)."""
        return self.backoff_base << attempt


# (spec, first-ordinal, one-past-last-ordinal) trigger windows per site.
_Window = Tuple[FaultSpec, int, int]


def _windows(specs: List[FaultSpec]) -> Dict[str, List[_Window]]:
    table: Dict[str, List[_Window]] = {}
    for spec in specs:
        table.setdefault(spec.site, []).append(
            (spec, spec.at, spec.at + max(spec.persist, 1))
        )
    return table


class FaultInjector:
    """Shared per-machine fault state: triggers, recovery agents, ledger."""

    def __init__(self, machine, plan: FaultPlan, policy: Optional[RecoveryPolicy] = None):
        self.machine = machine
        self.sim = machine.sim
        self.plan = plan
        self.policy = policy or RecoveryPolicy()
        by_kind = plan.by_kind()
        self._flip_sites = _windows(by_kind.get(FaultKind.BUS_FLIP, []))
        self._fifo_sites = _windows(
            by_kind.get(FaultKind.FIFO_DROP, []) + by_kind.get(FaultKind.FIFO_DUP, [])
        )
        self._lost_sites = _windows(by_kind.get(FaultKind.GRANT_LOST, []))
        self._jitter_sites = _windows(by_kind.get(FaultKind.MEM_JITTER, []))
        self._bridge_sites = _windows(by_kind.get(FaultKind.BRIDGE_STALL, []))
        self._crash_sites = _windows(by_kind.get(FaultKind.PE_CRASH, []))
        self._stuck_specs = sorted(
            by_kind.get(FaultKind.GRANT_STUCK, []), key=FaultSpec.key
        )
        # Per-site ordinal counters, advanced in simulation order.
        self._seg_n: Dict[str, int] = {}
        self._fifo_n: Dict[str, int] = {}
        self._disp_n: Dict[str, int] = {}
        self._mem_n: Dict[str, int] = {}
        self._bridge_n: Dict[str, int] = {}
        self._pe_n: Dict[str, int] = {}
        # The ordinals a bus transfer, a queued grant or a compute phase
        # advances, as poll fast-forward counter cells (see counters):
        # (ordinals, site, the site's (lo, hi) trigger windows).
        segments = list(machine.segments.values())
        sites = (
            [(self._seg_n, self._flip_sites, s.name) for s in segments]
            + [(self._disp_n, self._lost_sites, s.arbiter.name) for s in segments]
            + [
                (self._mem_n, self._jitter_sites, device.target.name)
                for device in machine.devices.values()
                if device.kind == "memory"
            ]
            + [(self._bridge_n, self._bridge_sites, b.name) for b in machine.bridges]
            + [(self._pe_n, self._crash_sites, pe.name) for pe in machine.pes.values()]
        )
        self._ordinals = [
            (ordinals, site, tuple((lo, hi) for _spec, lo, hi in windows.get(site, ())))
            for ordinals, windows, site in sites
        ]
        # Segments whose arbiter is a grant-fault site run the guarded
        # (timeout-raced) acquisition path; everything else keeps the plain
        # path, so an arbiter-fault-free plan adds zero timer events.
        arbiter_sites: Set[str] = set(self._lost_sites)
        arbiter_sites.update(spec.site for spec in self._stuck_specs)
        self.guarded_segments: Set[str] = {
            segment.name
            for segment in machine.segments.values()
            if segment.arbiter.name in arbiter_sites
        }
        # FIFO link recovery ledgers.
        self._pending_drops: Dict[str, List[Tuple[dict, List[int]]]] = {}
        self._pending_dups: Dict[str, List[dict]] = {}
        self._due_crash: Optional[FaultSpec] = None
        # Outcome ledger + counters (the ResilienceReport raw material).
        self.outcomes: List[dict] = []
        self.injected = 0
        self.detected = 0
        self.recovered = 0
        self.residual = 0
        self.accounted = 0
        self.retries = 0
        self.timeouts = 0
        self.grant_redeliveries = 0
        self.watchdog_reclaims = 0
        self.recovery_latencies: List[int] = []
        self._fired_keys: Set[Tuple[str, str, int]] = set()

    # ------------------------------------------------------------------
    # Episode ledger
    # ------------------------------------------------------------------
    def _fire(self, spec: FaultSpec) -> dict:
        """Open one fault episode: the fault manifested and was detected."""
        now = self.sim.now
        episode = {
            "kind": spec.kind,
            "site": spec.site,
            "at": spec.at,
            "param": spec.param,
            "cycle": now,
            "outcome": None,
            "resolved": None,
            "latency": None,
        }
        self.outcomes.append(episode)
        self.injected += 1
        self.detected += 1
        self._fired_keys.add(spec.key())
        probe = self.machine.probe
        if probe is not None:
            probe.on_fault(now, spec.site, spec.kind, "inject", None)
        return episode

    def _resolve(self, episode: dict, outcome: str) -> None:
        now = self.sim.now
        episode["outcome"] = outcome
        episode["resolved"] = now
        latency = now - episode["cycle"]
        episode["latency"] = latency
        if outcome == "recovered":
            self.recovered += 1
            self.recovery_latencies.append(latency)
        elif outcome == "residual":
            self.residual += 1
        else:
            self.accounted += 1
        probe = self.machine.probe
        if probe is not None:
            probe.on_fault(now, episode["site"], episode["kind"], outcome, latency)

    def counters(self):
        """Poll fast-forward's view of the injector, in the shape of
        :meth:`repro.obs.Probe.counters`: the per-site ordinals as counters,
        each with its trigger windows, so that a jump stops short of the
        next fault; the episode, retry and timeout counts as the key, so a
        period in which a fault fires or resolves never recurs."""
        return self._ordinals, (
            self.injected,
            self.detected,
            self.recovered,
            self.residual,
            self.accounted,
            self.retries,
            self.timeouts,
        )

    def resilience_report(self):
        from .report import ResilienceReport

        return ResilienceReport.from_injector(self)

    # ------------------------------------------------------------------
    # Bus bit-flips (checked by Machine.transaction's retry loop)
    # ------------------------------------------------------------------
    def check_flip(self, segments) -> List[FaultSpec]:
        """Advance each path segment's transfer ordinal; return fired flips."""
        fired: List[FaultSpec] = []
        seg_n = self._seg_n
        sites = self._flip_sites
        for segment in segments:
            name = segment.name
            ordinal = seg_n.get(name, 0)
            seg_n[name] = ordinal + 1
            windows = sites.get(name)
            if windows:
                for spec, lo, hi in windows:
                    if lo <= ordinal < hi:
                        fired.append(spec)
        return fired

    def open_flip_episode(self, specs: List[FaultSpec]) -> List[dict]:
        return [self._fire(spec) for spec in specs]

    def note_flip_repeat(self, count: int) -> None:
        """A retry hit the (persistent) fault again: more detections."""
        self.detected += count

    def resolve_flip_episode(self, episodes: List[dict], outcome: str) -> None:
        for episode in episodes:
            self._resolve(episode, outcome)

    @staticmethod
    def corrupt(values: List[int], spec: FaultSpec) -> List[int]:
        """Apply a residual bit flip to a copy of ``values``."""
        if not values:
            return values
        out = list(values)
        index = spec.at % len(out)
        out[index] = (out[index] ^ (1 << (spec.param & 31))) & 0xFFFFFFFF
        return out

    # ------------------------------------------------------------------
    # FIFO link faults (hook: HardwareFifo.push; recovery: Machine.fifo_push)
    # ------------------------------------------------------------------
    def filter_push(self, fifo, values: List[int]) -> List[int]:
        """Perturb one push: drop a tail chunk or mark a duplicate.

        Dropped words go on a retransmit ledger that
        :meth:`fifo_link_recovery` drains; duplicates are discarded by the
        receiving controller's sequence check (they never enter the FIFO,
        so they cannot overflow it) at a small penalty.
        """
        name = fifo.name
        ordinal = self._fifo_n.get(name, 0)
        self._fifo_n[name] = ordinal + 1
        windows = self._fifo_sites.get(name)
        if not windows:
            return values
        for spec, lo, hi in windows:
            if lo <= ordinal < hi:
                if spec.kind == FaultKind.FIFO_DROP:
                    lost = min(spec.param, len(values))
                    if lost:
                        episode = self._fire(spec)
                        self._pending_drops.setdefault(name, []).append(
                            (episode, list(values[-lost:]))
                        )
                        return list(values[:-lost])
                else:
                    episode = self._fire(spec)
                    self._pending_dups.setdefault(name, []).append(episode)
        return values

    def has_fifo_event(self, fifo) -> bool:
        name = fifo.name
        return name in self._pending_drops or name in self._pending_dups

    def fifo_link_recovery(self, pe, segment, fifo):
        """Drain the link's fault ledger: discard dups, retransmit drops.

        Retransmission re-sends exactly the lost tail words before the
        sender pushes anything further, so the receiver's word order is
        preserved; a retransmitted push can itself be hit by another drop
        fault, which simply loops.
        """
        policy = self.policy
        name = fifo.name
        dups = self._pending_dups.pop(name, None)
        if dups:
            for episode in dups:
                yield policy.dup_penalty_cycles
                self._resolve(episode, "recovered")
        while True:
            drops = self._pending_drops.pop(name, None)
            if not drops:
                return
            for episode, lost in drops:
                yield policy.retransmit_penalty_cycles
                while fifo.space < len(lost):
                    yield fifo.wait_space()
                yield from segment.occupy(pe.name, len(lost), write=True)
                fifo.push(lost)
                self._resolve(episode, "recovered")

    # ------------------------------------------------------------------
    # Arbiter grant faults
    # ------------------------------------------------------------------
    def intercept_grant(self, arbiter, master: str, grant) -> bool:
        """Queued-dispatch hook: swallow the grant pulse if a fault fires.

        The arbiter state (owner, busy accounting) is already updated --
        the grant was *issued*, its pulse just never reached the master.
        A watchdog timer redelivers it after ``watchdog_cycles``.
        """
        name = arbiter.name
        ordinal = self._disp_n.get(name, 0)
        self._disp_n[name] = ordinal + 1
        windows = self._lost_sites.get(name)
        if not windows:
            return False
        for spec, lo, hi in windows:
            if lo <= ordinal < hi:
                episode = self._fire(spec)
                self.sim.process(
                    self._redeliver(episode, grant, master),
                    "faults.redeliver.%s" % name,
                )
                return True
        return False

    def _redeliver(self, episode: dict, grant, master: str):
        yield self.policy.watchdog_cycles
        grant.succeed(master)
        self.grant_redeliveries += 1
        self._resolve(episode, "recovered")

    def spawn_stuck_masters(self) -> None:
        """One ghost process per GRANT_STUCK fault (zero for other plans)."""
        arbiters = {
            segment.arbiter.name: segment.arbiter
            for segment in self.machine.segments.values()
        }
        for spec in self._stuck_specs:
            arbiter = arbiters.get(spec.site)
            if arbiter is not None:
                self.sim.process(
                    self._stuck_master(spec, arbiter),
                    "faults.ghost.%s" % spec.site,
                )

    def _stuck_master(self, spec: FaultSpec, arbiter):
        ghost = "ghost@%s#%d" % (spec.site, spec.at)
        if spec.at > 0:
            yield spec.at
        if not arbiter.try_claim(ghost):
            yield arbiter.request(ghost)
        episode = self._fire(spec)
        # The ghost never releases on its own; the watchdog reclaims the
        # grant after its window (bounded by the fault's own hold).
        yield min(spec.param, self.policy.watchdog_cycles)
        arbiter.release(ghost)
        self.watchdog_reclaims += 1
        self._resolve(episode, "recovered")

    def acquire(self, segment, master: str):
        """Guarded arbitration: grant raced against an escalating timeout.

        A timeout expiry never cancels the request (the watchdog is the
        recovery agent; the grant usually arrives during a later window) --
        but exhausting ``max_escalations`` doublings with no grant declares
        the bus dead: the request is *withdrawn* from the arbiter before
        raising :class:`BusTimeoutError`, so a grant issued afterwards can
        never land on a master that stopped listening and wedge the
        segment for everyone else.
        """
        arbiter = segment.arbiter
        if arbiter.try_claim(master):
            return
        grant = arbiter.request(master)
        sim = self.sim
        wait = self.policy.timeout_cycles
        for _attempt in range(self.policy.max_escalations):
            yield sim.any_of((grant, sim.timeout(wait)))
            if grant.triggered:
                return
            self.timeouts += 1
            probe = self.machine.probe
            if probe is not None:
                probe.on_fault(sim.now, segment.name, "bus_timeout", "detect", None)
            wait <<= 1
        arbiter.cancel(master, grant)
        raise BusTimeoutError(
            "%s: no grant for %s after %d timeout escalations (%d cycles)"
            % (segment.name, master, self.policy.max_escalations, wait)
        )

    # ------------------------------------------------------------------
    # Latency faults (accounted: detected wait states, no data at risk)
    # ------------------------------------------------------------------
    def memory_jitter(self, name: str) -> int:
        ordinal = self._mem_n.get(name, 0)
        self._mem_n[name] = ordinal + 1
        windows = self._jitter_sites.get(name)
        if not windows:
            return 0
        extra = 0
        for spec, lo, hi in windows:
            if lo <= ordinal < hi:
                episode = self._fire(spec)
                self._resolve(episode, "accounted")
                extra += spec.param
        return extra

    def bridge_delay(self, name: str) -> int:
        ordinal = self._bridge_n.get(name, 0)
        self._bridge_n[name] = ordinal + 1
        windows = self._bridge_sites.get(name)
        if not windows:
            return 0
        extra = 0
        for spec, lo, hi in windows:
            if lo <= ordinal < hi:
                episode = self._fire(spec)
                self._resolve(episode, "accounted")
                extra += spec.param
        return extra

    # ------------------------------------------------------------------
    # PE crash/restart
    # ------------------------------------------------------------------
    def crash_due(self, pe_name: str) -> bool:
        ordinal = self._pe_n.get(pe_name, 0)
        self._pe_n[pe_name] = ordinal + 1
        windows = self._crash_sites.get(pe_name)
        if not windows:
            return False
        for spec, lo, hi in windows:
            if lo <= ordinal < hi:
                self._due_crash = spec
                return True
        return False

    def crash_restart(self, pe):
        """Cold restart: caches invalidated (the PE's warm fetch shortcut
        sees the flush and re-arms once its footprint refilled), fetch
        cursor and cycle carry reset."""
        spec = self._due_crash
        self._due_crash = None
        episode = self._fire(spec)
        pe.icache.flush()
        pe.dcache.flush()
        pe._fetch_cursor = 0
        pe._cycle_carry = 0.0
        pe.stats.stall_cycles += spec.param
        yield spec.param
        self._resolve(episode, "accounted")


def install_faults(
    machine, plan: FaultPlan, policy: Optional[RecoveryPolicy] = None
) -> FaultInjector:
    """Wire ``plan`` into every model of ``machine``; returns the injector.

    Installing an empty plan is a supported no-op: every hook sees inert
    trigger tables and no recovery process is spawned, so the run stays
    bit-identical to an uninstrumented machine.
    """
    injector = FaultInjector(machine, plan, policy)
    machine._faults = injector
    machine._hooked()
    for segment in machine.segments.values():
        segment.faults = injector
        segment.arbiter.faults = injector
    for block in machine.fifo_blocks.values():
        block.up.faults = injector
        block.down.faults = injector
    for device in machine.devices.values():
        if device.kind == "memory":
            device.target.faults = injector
    for bridge in machine.bridges:
        bridge.faults = injector
    for pe in machine.pes.values():
        pe.faults = injector
    injector.spawn_stuck_masters()
    return injector
