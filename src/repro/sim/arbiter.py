"""Bus arbiters.

The paper's global bus architectures (GBAVIII, SplitBA, Hybrid, GGBA, CCBA)
resolve simultaneous memory requests with a hardware arbiter (Figure 5).  The
paper's generated arbiter uses a first-come-first-serve (FCFS) policy backed
by a FIFO, and the Module Library also offers "Round Robin" and "Priority"
variants (library component F, section V.A).

An arbiter here is a grant queue: masters call :meth:`Arbiter.request` and
receive an event that fires when they own the bus; they must call
:meth:`Arbiter.release` when the transaction completes.  The policy only
chooses *which* pending request is granted next -- grant latency in cycles is
charged by the bus model (:mod:`repro.sim.bus`), because it is a property of
the bus protocol (3 cycles for BusSyn buses, 5 for the CoreConnect-style
CCBA baseline).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from .kernel import Event, Simulator

__all__ = [
    "Arbiter",
    "FCFSArbiter",
    "RoundRobinArbiter",
    "PriorityArbiter",
    "make_arbiter",
    "ARBITER_POLICIES",
]


class Arbiter:
    """Base class: owns the grant state and bookkeeping, defers policy."""

    __slots__ = (
        "sim",
        "name",
        "owner",
        "grants",
        "busy_since",
        "busy_cycles",
        "wait_cycles",
        "_pending",
        "peak_pending",
        "probe",
        "faults",
    )

    policy_name = "abstract"

    def __init__(self, sim: Simulator, name: str = "arbiter"):
        self.sim = sim
        self.name = name
        self.owner: Optional[str] = None
        self.grants = 0
        self.busy_since: Optional[int] = None
        self.busy_cycles = 0
        self.wait_cycles = 0
        self._pending: List[Tuple[str, Event, int]] = []
        # Deepest the request queue ever got (updated on the contended
        # path only; feeds RunReport.peak_pending_requests, and the DSE
        # reuse of contention-free runs relies on it, so every queued
        # request must pass through Arbiter._enqueue).
        self.peak_pending = 0
        # Observer (repro.obs.Probe), set by Machine.attach_probe; None
        # keeps every grant-path hook on the zero-cost branch.
        self.probe = None
        # Fault injector (repro.faults); None keeps _dispatch hook-free.
        self.faults = None

    # -- master interface ------------------------------------------------
    def try_claim(self, master: str) -> bool:
        """Synchronously claim an idle arbiter; returns False when busy.

        Equivalent to :meth:`request` granting immediately, minus the event
        round-trip through the kernel (the grant would fire this same cycle
        with zero wait).  Callers fall back to ``yield request(master)``.
        """
        if self.owner is None and not self._pending:
            self._note(master)
            self.owner = master
            self.grants += 1
            self.busy_since = self.sim.now
            if self.probe is not None:
                self.probe.on_grant(self, master, None)
            return True
        return False

    def request(self, master: str) -> Event:
        """Queue a bus request; the returned event fires on grant."""
        grant = self.sim.event()
        if self.owner is None and not self._pending:
            # Uncontended: grant immediately without queueing.  Selection is
            # trivially identical for every policy (one candidate); policies
            # that track requesters get the _note hook.
            self._note(master)
            self.owner = master
            self.grants += 1
            self.busy_since = self.sim.now
            if self.probe is not None:
                self.probe.on_grant(self, master, None)
            grant.succeed(master)
            return grant
        self._enqueue(master, grant, self.sim.now)
        if self.probe is not None:
            self.probe.on_request(self, master)
        self._dispatch()
        return grant

    def release(self, master: str) -> None:
        if self.owner != master:
            raise RuntimeError(
                "%s released by %r but owned by %r" % (self.name, master, self.owner)
            )
        if self.probe is not None:
            self.probe.on_release(self, master)
        self.owner = None
        if self.busy_since is not None:
            self.busy_cycles += self.sim.now - self.busy_since
            self.busy_since = None
        if self._pending:
            self._dispatch()

    def cancel(self, master: str, grant: Event) -> None:
        """Withdraw a request whose master stopped waiting for ``grant``.

        Called when a master gives up on the bus (timeout-escalation
        exhaustion): if the grant already landed -- the master owns the
        bus without knowing it -- release it; otherwise drop the queued
        entry so a later dispatch cannot grant a master that will never
        drive the bus (which would wedge the segment for everyone).
        """
        if self.owner == master:
            # The grant already landed (or its lost pulse is still in
            # flight): the giver-upper secretly owns the bus -- free it.
            self.release(master)
            return
        for index, (_master, pending_grant, _when) in enumerate(self._pending):
            if pending_grant is grant:
                del self._pending[index]
                if self.probe is not None:
                    self.probe.on_cancel(self, master)
                return

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- policy hooks ------------------------------------------------------
    def _note(self, master: str) -> None:
        """Observe a requester on the immediate-grant fast path (no queue)."""

    def _enqueue(self, master: str, grant: Event, when: int) -> None:
        self._pending.append((master, grant, when))
        if len(self._pending) > self.peak_pending:
            self.peak_pending = len(self._pending)

    def _select(self) -> int:
        """Index into ``_pending`` of the next request to grant."""
        raise NotImplementedError

    # -- internals -----------------------------------------------------------
    def _dispatch(self) -> None:
        if self.owner is not None or not self._pending:
            return
        index = self._select()
        master, grant, requested_at = self._pending.pop(index)
        self.owner = master
        self.grants += 1
        self.wait_cycles += self.sim.now - requested_at
        self.busy_since = self.sim.now
        if self.probe is not None:
            self.probe.on_grant(self, master, self.sim.now - requested_at)
        if self.faults is not None and self.faults.intercept_grant(self, master, grant):
            # Grant issued (owner/accounting above stand) but the pulse was
            # lost in flight; the fault injector's watchdog redelivers it.
            return
        grant.succeed(master)


class FCFSArbiter(Arbiter):
    """First-come-first-serve: the FIFO policy of the paper's global arbiter."""

    __slots__ = ()

    policy_name = "fcfs"

    def _select(self) -> int:
        return 0


class RoundRobinArbiter(Arbiter):
    """Rotating priority among masters, starting after the last grantee."""

    __slots__ = ("_order",)

    policy_name = "round_robin"

    def __init__(self, sim: Simulator, name: str = "arbiter"):
        super().__init__(sim, name)
        self._order: Deque[str] = deque()

    def _note_master(self, master: str) -> None:
        if master not in self._order:
            self._order.append(master)

    def _note(self, master: str) -> None:
        # An immediate grant must rotate the ring exactly as _select would.
        self._note_master(master)
        self._order.rotate(-(self._order.index(master) + 1))

    def _enqueue(self, master: str, grant: Event, when: int) -> None:
        self._note_master(master)
        super()._enqueue(master, grant, when)

    def _select(self) -> int:
        pending_masters = {master for master, _g, _w in self._pending}
        for position, chosen in enumerate(self._order):
            if chosen in pending_masters:
                break
        else:  # pragma: no cover - _enqueue puts every requester in the ring
            raise AssertionError("round-robin ring lost a requester")
        # Rotate so the chosen master moves to the back of the ring.
        self._order.rotate(-(position + 1))
        for index, (master, _grant, _when) in enumerate(self._pending):
            if master == chosen:
                return index
        raise AssertionError("round-robin selection lost its request")


class PriorityArbiter(Arbiter):
    """Static priority; lower priority number wins, FCFS within a level.

    The machine builder passes no ``priorities``, so on a built machine
    every master sits at ``default_priority`` and this grants exactly as
    :class:`FCFSArbiter` does; the generated ``ARBITER_PRIORITY`` RTL
    grants the lowest requesting master index instead (a known gap whose
    fix ROADMAP.md lists among the benchmark's pending pin moves).
    """

    __slots__ = ("priorities", "default_priority")

    policy_name = "priority"

    def __init__(
        self,
        sim: Simulator,
        name: str = "arbiter",
        priorities: Optional[Dict[str, int]] = None,
    ):
        super().__init__(sim, name)
        self.priorities = dict(priorities or {})
        self.default_priority = 100

    def priority_of(self, master: str) -> int:
        return self.priorities.get(master, self.default_priority)

    def _select(self) -> int:
        best_index = 0
        best_key = None
        for index, (master, _grant, when) in enumerate(self._pending):
            key = (self.priority_of(master), when, index)
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        return best_index


ARBITER_POLICIES = {
    "fcfs": FCFSArbiter,
    "round_robin": RoundRobinArbiter,
    "priority": PriorityArbiter,
}


def make_arbiter(
    sim: Simulator,
    policy: str = "fcfs",
    name: str = "arbiter",
    priorities: Optional[Dict[str, int]] = None,
) -> Arbiter:
    """Construct an arbiter by policy name (``fcfs``/``round_robin``/``priority``)."""
    try:
        cls = ARBITER_POLICIES[policy]
    except KeyError:
        raise ValueError(
            "unknown arbiter policy %r (expected one of %s)"
            % (policy, ", ".join(sorted(ARBITER_POLICIES)))
        )
    if cls is PriorityArbiter:
        return PriorityArbiter(sim, name, priorities)
    return cls(sim, name)
