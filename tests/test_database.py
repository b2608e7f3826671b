"""Tests for the database example (object store + workload)."""

import pytest

from repro.apps.database import ObjectStore, run_database
from repro.options import presets
from repro.sim.fabric import build_machine
from repro.sim.pe import ProgramError
from repro.soc.api import SocAPI
from repro.soc.rtos import Rtos


class TestObjectStore:
    def test_layout_deterministic(self):
        machine = build_machine(presets.preset("GGBA", 4))
        api = SocAPI(machine, "A")
        store = ObjectStore(machine, api, object_count=4, size_words=10)
        offsets = [obj.offset for obj in store.objects]
        assert len(set(offsets)) == 4
        assert store.object(0) is store.object(4)  # modulo indexing

    def test_attach_shares_layout(self):
        machine = build_machine(presets.preset("GGBA", 4))
        api_a, api_b = SocAPI(machine, "A"), SocAPI(machine, "B")
        store = ObjectStore(machine, api_a, 3, 10)
        view = ObjectStore.attach(machine, api_b, store)
        assert view.objects is store.objects
        assert view.locks.base == store.locks.base

    def test_locked_read_write(self):
        machine = build_machine(presets.preset("GGBA", 4))
        api = SocAPI(machine, "A")
        store = ObjectStore(machine, api, 2, 8)
        rtos = Rtos(api)
        results = []

        def task():
            obj = store.object(0)
            yield from store.write_object(rtos, obj, list(range(8)))
            values = yield from store.read_object(rtos, obj, 8)
            results.append(values)

        rtos.spawn("t", task())
        machine.pe("A").run(rtos.run())
        machine.sim.run()
        assert results == [list(range(8))]
        assert store.lock_of(store.object(0)).acquisitions == 2


class TestWorkload:
    def test_all_tasks_complete_small(self):
        machine = build_machine(presets.preset("GGBA", 4))
        result = run_database(machine, client_count=8, transactions_per_task=2)
        assert result.tasks_completed == 9  # 8 clients + server
        assert result.cycles > 0

    def test_full_paper_configuration(self):
        machine = build_machine(presets.preset("GGBA", 4))
        result = run_database(machine)
        assert result.tasks_completed == 41
        assert result.client_count == 40
        assert result.words_per_task == 100

    def test_splitba_faster_than_ggba(self):
        ggba = run_database(build_machine(presets.preset("GGBA", 4)))
        splitba = run_database(build_machine(presets.preset("SPLITBA", 4)))
        assert splitba.tasks_completed == 41
        assert splitba.execution_time_ns < ggba.execution_time_ns

    def test_a_pe_program_that_raises_fails_the_run(self):
        machine = build_machine(presets.preset("GBAVIII", 4))
        # PE B's first instruction fetch goes to a memory that does not exist.
        machine.pe("B").program_device = "NO_SUCH_MEMORY"
        with pytest.raises(ProgramError, match="MPC755_B") as raised:
            run_database(machine, client_count=4)
        assert isinstance(raised.value.__cause__, KeyError)

    def test_requires_shared_memory(self):
        machine = build_machine(presets.preset("BFBA", 4))
        with pytest.raises(ValueError):
            run_database(machine)

    def test_lock_accounting(self):
        machine = build_machine(presets.preset("GGBA", 4))
        result = run_database(machine, client_count=8, transactions_per_task=2)
        # Server populates 10 objects; each client locks twice per round.
        assert result.lock_acquisitions == 10 + 8 * 2 * 2

    def test_execution_time_units(self):
        machine = build_machine(presets.preset("GGBA", 4))
        result = run_database(machine, client_count=4, transactions_per_task=1)
        assert result.execution_time_ns == result.cycles * 10
        assert result.execution_time_ms == pytest.approx(result.cycles / 1e5)

    def test_context_switches_recorded(self):
        machine = build_machine(presets.preset("GGBA", 4))
        result = run_database(machine, client_count=8, transactions_per_task=1)
        assert set(result.context_switches) == {"A", "B", "C", "D"}
        assert all(v > 0 for v in result.context_switches.values())
