"""Tests for bus arbiters (FCFS, round-robin, priority)."""

import pytest

from repro.sim.arbiter import (
    ARBITER_POLICIES,
    FCFSArbiter,
    PriorityArbiter,
    RoundRobinArbiter,
    make_arbiter,
)
from repro.sim.kernel import Simulator


@pytest.fixture
def sim():
    return Simulator()


def drive(sim, arbiter, master, request_at, hold):
    """Request at a time, hold for ``hold`` cycles, record the grant time."""
    grants = []

    def body():
        yield sim.timeout(request_at)
        yield arbiter.request(master)
        grants.append((master, sim.now))
        yield sim.timeout(hold)
        arbiter.release(master)

    sim.process(body())
    return grants


class TestFCFS:
    def test_uncontended_grant_is_immediate(self, sim):
        arbiter = FCFSArbiter(sim)
        grants = drive(sim, arbiter, "m0", 0, 5)
        sim.run()
        assert grants == [("m0", 0)]

    def test_first_come_first_served(self, sim):
        arbiter = FCFSArbiter(sim)
        g1 = drive(sim, arbiter, "m1", 2, 10)
        g2 = drive(sim, arbiter, "m2", 1, 10)
        g3 = drive(sim, arbiter, "m3", 3, 10)
        sim.run()
        # m2 requested first, then m1, then m3.
        assert g2 == [("m2", 1)]
        assert g1 == [("m1", 11)]
        assert g3 == [("m3", 21)]

    def test_release_by_non_owner_fails_process(self, sim):
        arbiter = FCFSArbiter(sim)

        def body():
            yield arbiter.request("m0")
            arbiter.release("other")

        process = sim.process(body())
        sim.run()
        with pytest.raises(RuntimeError):
            process.value

    def test_stats(self, sim):
        arbiter = FCFSArbiter(sim)
        drive(sim, arbiter, "a", 0, 4)
        drive(sim, arbiter, "b", 0, 4)
        sim.run()
        assert arbiter.grants == 2
        assert arbiter.busy_cycles == 8
        assert arbiter.wait_cycles == 4  # b waited for a's hold


class TestRoundRobin:
    def test_rotates_among_masters(self, sim):
        arbiter = RoundRobinArbiter(sim)
        order = []

        def master(name):
            def body():
                for _ in range(2):
                    yield arbiter.request(name)
                    order.append(name)
                    yield sim.timeout(2)
                    arbiter.release(name)
            return body

        for name in ("a", "b", "c"):
            sim.process(master(name)())
        sim.run()
        # Each round serves every master once before repeating.
        assert sorted(order[:3]) == ["a", "b", "c"]
        assert sorted(order[3:]) == ["a", "b", "c"]

    def test_single_master(self, sim):
        arbiter = RoundRobinArbiter(sim)
        grants = drive(sim, arbiter, "solo", 0, 3)
        sim.run()
        assert grants == [("solo", 0)]

    def test_grantee_and_late_joiners_go_to_the_back(self, sim):
        # The ring rotates each grantee -- queued or immediate -- to its
        # back, and a master's first request joins it there, so a late
        # joiner ranks behind the grantee it arrived under.
        arbiter = RoundRobinArbiter(sim)
        grants = []

        def master(name, start, tenures):
            yield start
            for _ in range(tenures):
                yield arbiter.request(name)
                grants.append((sim.now, name))
                yield 2
                arbiter.release(name)

        # d joins while a holds a queued grant.
        for name, start, tenures in (("c", 0, 1), ("a", 0, 2), ("b", 0, 1), ("d", 3, 1)):
            sim.process(master(name, start, tenures))
        # b claims the idle bus; e joins while b holds it.
        for name, start, tenures in (("b", 12, 2), ("e", 13, 1), ("c", 13, 1)):
            sim.process(master(name, start, tenures))
        sim.run()
        assert grants == [
            (0, "c"), (2, "a"), (4, "b"), (6, "a"), (8, "d"),
            (12, "b"), (14, "c"), (16, "b"), (18, "e"),
        ]


class TestPriority:
    def test_lower_number_wins(self, sim):
        arbiter = PriorityArbiter(sim, priorities={"high": 1, "low": 9})
        order = []

        def holder():
            yield arbiter.request("holder")
            yield sim.timeout(5)
            arbiter.release("holder")

        def contender(name, delay):
            def body():
                yield sim.timeout(delay)
                yield arbiter.request(name)
                order.append(name)
                yield sim.timeout(1)
                arbiter.release(name)
            return body

        sim.process(holder())
        sim.process(contender("low", 1)())
        sim.process(contender("high", 2)())  # requests later but wins
        sim.run()
        assert order == ["high", "low"]

    def test_default_priority_fcfs_within_level(self, sim):
        arbiter = PriorityArbiter(sim)
        g1 = drive(sim, arbiter, "x", 1, 3)
        g2 = drive(sim, arbiter, "y", 0, 3)
        sim.run()
        assert g2[0][1] < g1[0][1]


class TestFactory:
    @pytest.mark.parametrize("policy", sorted(ARBITER_POLICIES))
    def test_make_arbiter(self, sim, policy):
        arbiter = make_arbiter(sim, policy)
        assert arbiter.policy_name == policy

    def test_unknown_policy_raises(self, sim):
        with pytest.raises(ValueError):
            make_arbiter(sim, "lottery")

    def test_priority_map_passthrough(self, sim):
        arbiter = make_arbiter(sim, "priority", priorities={"a": 0})
        assert arbiter.priority_of("a") == 0
        assert arbiter.priority_of("unknown") == arbiter.default_priority


class TestTryClaim:
    """try_claim: the synchronous idle-arbiter fast path of request()."""

    def test_idle_claim_succeeds(self, sim):
        arbiter = FCFSArbiter(sim)
        assert arbiter.try_claim("m0") is True
        assert arbiter.owner == "m0"
        assert arbiter.grants == 1
        arbiter.release("m0")
        assert arbiter.owner is None

    def test_busy_claim_fails_without_side_effects(self, sim):
        arbiter = FCFSArbiter(sim)
        assert arbiter.try_claim("m0")
        grants_before = arbiter.grants
        assert arbiter.try_claim("m1") is False
        assert arbiter.owner == "m0"
        assert arbiter.grants == grants_before
        assert arbiter.pending_count == 0

    def test_claim_defers_to_pending_requests(self, sim):
        # A queued (not yet granted) request also blocks try_claim: the
        # fast path must never jump the queue.
        arbiter = FCFSArbiter(sim)
        arbiter.try_claim("m0")
        arbiter.request("m1")  # queued behind m0
        assert arbiter.try_claim("m2") is False
        arbiter.release("m0")  # grants m1 via _dispatch
        assert arbiter.owner == "m1"
        assert arbiter.try_claim("m2") is False

    def test_round_robin_claim_rotates_like_request(self):
        # The initial grab via try_claim must leave the ring in the same
        # state as an immediate request() grant: identical grant order in
        # the contention that follows.
        def scenario(use_claim):
            sim = Simulator()
            arbiter = RoundRobinArbiter(sim)
            if use_claim:
                assert arbiter.try_claim("a")
            else:
                assert arbiter.request("a").triggered
            order = []

            def contender(name):
                def body():
                    yield sim.timeout(1)
                    yield arbiter.request(name)
                    order.append((name, sim.now))
                    yield sim.timeout(2)
                    arbiter.release(name)
                return body

            for name in ("a", "b", "c"):
                sim.process(contender(name)())

            def opener():
                yield sim.timeout(2)
                arbiter.release("a")

            sim.process(opener())
            sim.run()
            return order, list(arbiter._order)

        assert scenario(True) == scenario(False)

    def test_claim_equivalent_to_immediate_request_grant(self, sim):
        # Same observable arbiter state either way.
        via_request = FCFSArbiter(sim, "via_request")
        event = via_request.request("m0")
        assert event.triggered
        via_claim = FCFSArbiter(sim, "via_claim")
        assert via_claim.try_claim("m0")
        for field in ("owner", "grants", "busy_since", "pending_count"):
            assert getattr(via_claim, field) == getattr(via_request, field)
