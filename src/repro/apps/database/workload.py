"""The 41-task server/client database workload (Table IV).

Layout follows section VI.A.1: forty-one tasks on four PEs -- BAN A runs
one server task plus ten client tasks, every other BAN runs ten clients.
Per Figure 22, the server writes the data each client requested into shared
memory; the client reads it from shared memory and stores it to its own
area, each task moving one hundred 32-bit words.  Object accesses are
serialized by shared-memory locks (Figure 21), and everything runs on the
per-PE RTOS.

On SplitBA the server pushes each client's data into the *client's own
subsystem's* shared SRAM (across the bus bridge for the far half), so the
read traffic of each half stays on its own bus -- the topology advantage
behind Table IV's 41 % execution-time reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from ...options.schema import OptionError
from ...sim.fabric import Machine
from ...soc.api import SocAPI
from ...soc.rtos import Rtos, Syscall
from .store import ObjectStore

__all__ = ["DatabaseResult", "run_database"]

# Per-task transaction compute: request parsing, bookkeeping, result checks.
TASK_COMPUTE_INSTRUCTIONS = 400
SERVER_PER_CLIENT_INSTRUCTIONS = 300


@dataclass
class DatabaseResult:
    machine_name: str
    cycles: int
    tasks_completed: int
    client_count: int
    words_per_task: int
    lock_acquisitions: int = 0
    lock_contentions: int = 0
    context_switches: Dict[str, int] = field(default_factory=dict)

    @property
    def execution_time_ns(self) -> float:
        return self.cycles * 10.0  # 100 MHz bus clock

    @property
    def execution_time_ms(self) -> float:
        return self.execution_time_ns / 1e6


def run_database(
    machine: Machine,
    client_count: int = 40,
    words_per_task: int = 100,
    object_count: int = 10,
    transactions_per_task: int = 6,
) -> DatabaseResult:
    """Run the database example; returns total execution time."""
    if machine.global_memory is None:
        raise OptionError(
            "the database example requires a shared memory (section VI.C: "
            "GBAVI/BFBA are not simulated with this application)"
        )
    bans = machine.pe_order
    apis = {ban: SocAPI(machine, ban) for ban in bans}
    # The database example's transfer loops are tight library code, not the
    # general marshalling path of the media applications.
    for api in apis.values():
        api.api_call_instructions = 150
    server_ban = bans[0]
    server_api = apis[server_ban]
    server_memory = server_api.shared_memory()

    # One object store (locks + objects) per shared memory: on a single-
    # subsystem machine that is simply the global memory; on SplitBA each
    # half holds its own replica, populated by the server, "so that all
    # clients can easily access object data from the server" on their own
    # bus (section VI.C).
    store_by_memory: Dict[str, ObjectStore] = {}
    for ban in bans:
        memory = apis[ban].shared_memory()
        if memory not in store_by_memory:
            store_by_memory[memory] = ObjectStore(
                machine, apis[ban], object_count, words_per_task, memory=memory
            )
    store = store_by_memory[server_memory]
    all_store_views: List[ObjectStore] = list(store_by_memory.values())
    stores = {}
    for ban in bans:
        home_store = store_by_memory[apis[ban].shared_memory()]
        if home_store.api is apis[ban]:
            stores[ban] = home_store
        else:
            stores[ban] = ObjectStore.attach(machine, apis[ban], home_store)
            all_store_views.append(stores[ban])

    # Client k's delivery area lives in *that client's* subsystem memory
    # (on single-subsystem machines this is simply the global memory).
    clients: List[Tuple[int, str]] = []  # (client id, ban)
    per_ban = _distribute_clients(client_count, bans)
    client_id = 0
    for ban, count in per_ban.items():
        for _ in range(count):
            clients.append((client_id, ban))
            client_id += 1
    delivery: Dict[int, Tuple[str, int]] = {}
    result_area: Dict[int, Tuple[str, int]] = {}
    for cid, ban in clients:
        memory = apis[ban].shared_memory()
        delivery[cid] = (memory, machine.reserve(memory, words_per_task))
        result_area[cid] = (memory, machine.reserve(memory, words_per_task))

    rtoses = {ban: Rtos(apis[ban]) for ban in bans}
    completed: List[str] = []

    def server_task():
        api = server_api
        rtos = rtoses[server_ban]
        # Populate every object replica once, under its lock.
        seed = list(range(words_per_task))
        for replica in store_by_memory.values():
            if replica.api is api:
                view = replica
            else:
                view = ObjectStore.attach(machine, api, replica)
                all_store_views.append(view)
            for obj in view.objects:
                yield from view.write_object(rtos, obj, seed)
        # Then deliver each client's requested data (Figure 22).
        for cid, ban in clients:
            yield from api.compute(SERVER_PER_CLIENT_INSTRUCTIONS)
            payload = [(v + cid) & 0xFFFFFFFF for v in seed]
            yield from api.mem_write(payload, delivery[cid])
            memory = delivery[cid][0]
            yield from api.var_write("DATA_RDY_%d" % cid, 1, memory)
        completed.append("server")

    def client_task(cid: int, ban: str):
        def body():
            api = apis[ban]
            rtos = rtoses[ban]
            view = stores[ban]
            memory = delivery[cid][0]
            # Wait for the server's delivery flag (RTOS-friendly poll).
            while True:
                flag = yield from api.var_read("DATA_RDY_%d" % cid, memory)
                if flag:
                    break
                yield Syscall("sleep", 96)
            values = yield from api.read(delivery[cid], words_per_task)
            yield from api.compute(TASK_COMPUTE_INSTRUCTIONS)
            # Store the processed copy to the task's own area and update
            # the object under its lock (Figure 21's mutually exclusive
            # object access).
            processed = [(v ^ 0x5A5A5A5A) & 0xFFFFFFFF for v in values]
            yield from api.mem_write(processed, result_area[cid])
            # Transaction rounds against shared objects (Figure 21): each
            # round locks an object -- its own, then its neighbours' --
            # reads it, computes, and writes the update back.
            for round_index in range(transactions_per_task):
                obj = view.object(cid + round_index)
                current = yield from view.read_object(rtos, obj, words_per_task)
                yield from api.compute(TASK_COMPUTE_INSTRUCTIONS)
                update = [(v + cid + round_index) & 0xFFFFFFFF for v in current]
                yield from view.write_object(rtos, obj, update)
                yield Syscall("yield")
            completed.append("client%d" % cid)

        return body

    # Spawn tasks: server at higher priority on BAN A, clients everywhere.
    rtoses[server_ban].spawn("server", server_task(), priority=5)
    for cid, ban in clients:
        rtoses[ban].spawn("client%d" % cid, client_task(cid, ban)(), priority=10)
    for ban in bans:
        machine.pe(ban).run(rtoses[ban].run(), "%s.rtos" % ban)
    machine.sim.run()

    result = DatabaseResult(
        machine_name=machine.name,
        cycles=machine.program_cycles(),
        tasks_completed=len(completed),
        client_count=client_count,
        words_per_task=words_per_task,
    )
    for view in all_store_views:
        for lock in view.locks._locks.values():
            result.lock_acquisitions += lock.acquisitions
            result.lock_contentions += lock.contentions
    for ban, rtos in rtoses.items():
        result.context_switches[ban] = rtos.context_switches
    return result


def _distribute_clients(client_count: int, bans: List[str]) -> Dict[str, int]:
    """Ten clients per BAN with four PEs and forty clients (section VI.A.1);
    round-robin otherwise."""
    per_ban = {ban: 0 for ban in bans}
    for index in range(client_count):
        per_ban[bans[index % len(bans)]] += 1
    return per_ban
