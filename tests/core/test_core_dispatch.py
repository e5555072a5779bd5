"""Tests for core instruction dispatch, SMT issue, and stat attribution."""

import sys

import pytest

from repro.core.gsu import Gsu
from repro.core.lsu import Lsu
from repro.errors import ProgramError
from repro.isa.instructions import (
    IS_COMPUTE_OP,
    IS_MEMORY_OP,
    MEMORY_KINDS,
    Instr,
    Kind,
)
from repro.obs.bus import EventBus
from repro.sim.config import MachineConfig
from repro.sim.machine import BARRIER_RELEASE_COST, Machine
from repro.sim.trace import InstructionTrace


def single_thread_machine(**cfg_kwargs):
    defaults = dict(n_cores=1, threads_per_core=1, simd_width=4)
    defaults.update(cfg_kwargs)
    return Machine(MachineConfig(**defaults))


class TestDispatch:
    def test_valu_runs_callable_at_issue(self):
        machine = single_thread_machine()
        seen = []

        def program(ctx):
            result = yield ctx.valu(lambda: 41 + 1)
            seen.append(result)

        machine.add_program(program)
        machine.run()
        assert seen == [42]

    def test_bad_yield_raises_program_error(self):
        machine = single_thread_machine()

        def program(ctx):
            yield "not an instruction"

        machine.add_program(program)
        with pytest.raises(ProgramError):
            machine.run()

    def test_vgather_respects_mask(self):
        machine = single_thread_machine()
        data = machine.image.alloc_array([10, 20, 30, 40])
        seen = {}

        def program(ctx):
            values = yield ctx.vgather(
                data.base, [0, 1, 2, 3], ctx.prefix_mask(2)
            )
            seen["values"] = values

        machine.add_program(program)
        stats = machine.run()
        # Only active lanes carry gathered data.
        assert seen["values"][:2] == (10, 20)

    def test_vstore_then_vload_roundtrip(self):
        machine = single_thread_machine()
        buf = machine.image.alloc_zeros(4)
        seen = {}

        def program(ctx):
            yield ctx.vstore(buf.base, (1, 2, 3, 4))
            values = yield ctx.vload(buf.base)
            seen["values"] = values

        machine.add_program(program)
        machine.run()
        assert seen["values"] == (1, 2, 3, 4)


class TestIssueBandwidth:
    def test_issue_width_limits_per_cycle_throughput(self):
        """4 ALU-bound threads on a 2-issue core take ~2x the cycles
        of 2 threads doing the same per-thread work."""

        def run(n_threads):
            machine = Machine(
                MachineConfig(
                    n_cores=1, threads_per_core=n_threads, simd_width=1
                )
            )

            def program(ctx):
                for _ in range(200):
                    yield ctx.alu()

            for _ in range(n_threads):
                machine.add_program(program)
            return machine.run().cycles

        two = run(2)
        four = run(4)
        assert four > 1.8 * two

    def test_single_thread_ipc_at_most_one(self):
        machine = single_thread_machine()

        def program(ctx):
            for _ in range(100):
                yield ctx.alu()

        machine.add_program(program)
        stats = machine.run()
        assert stats.cycles >= 100


class TestStatAttribution:
    def test_alu_count_charges_n_cycles(self):
        machine = single_thread_machine()

        def program(ctx):
            yield ctx.alu(50)

        machine.add_program(program)
        stats = machine.run()
        assert stats.threads[0].instructions == 50
        assert stats.cycles >= 50

    def test_memory_instructions_counted(self):
        machine = single_thread_machine()
        word = machine.image.alloc_zeros(1)

        def program(ctx):
            yield ctx.load(word.base)
            yield ctx.store(word.base, 1)
            yield ctx.alu()

        machine.add_program(program)
        stats = machine.run()
        assert stats.threads[0].mem_instructions == 2

    def test_sync_ops_do_not_leak_into_nonsync(self):
        machine = single_thread_machine()
        word = machine.image.alloc_zeros(1)

        def program(ctx):
            yield ctx.load(word.base)  # not a sync op

        machine.add_program(program)
        stats = machine.run()
        assert stats.threads[0].sync_cycles == 0
        assert stats.threads[0].sync_instructions == 0

    def test_gsu_kind_results(self):
        """Each GSU instruction kind returns its documented result type."""
        machine = single_thread_machine()
        data = machine.image.alloc_array([1, 2, 3, 4])
        seen = {}

        def program(ctx):
            idx = [0, 1, 2, 3]
            seen["gather"] = yield ctx.vgather(data.base, idx)
            seen["gl"] = yield ctx.vgatherlink(data.base, idx)
            values, mask = seen["gl"]
            seen["sc"] = yield ctx.vscattercond(
                data.base, idx, tuple(v + 1 for v in values), mask
            )
            seen["scatter"] = yield ctx.vscatter(
                data.base, idx, (9, 9, 9, 9)
            )

        machine.add_program(program)
        machine.run()
        assert isinstance(seen["gather"], tuple)
        values, mask = seen["gl"]
        assert mask.all()
        assert seen["sc"].all()
        assert seen["scatter"] is None
        assert data.to_list() == [9, 9, 9, 9]


#: One instruction of each kind, built against a 4-word array at ``base``.
_ONE_INSTR = {
    Kind.ALU: lambda base, sync: Instr.alu(3, sync=sync),
    Kind.VALU: lambda base, sync: Instr.valu(lambda: 7, count=2, sync=sync),
    Kind.LOAD: lambda base, sync: Instr.load(base, sync=sync),
    Kind.STORE: lambda base, sync: Instr.store(base, 5, sync=sync),
    Kind.LL: lambda base, sync: Instr.ll(base, sync=sync),
    Kind.SC: lambda base, sync: Instr.sc(base, 5, sync=sync),
    Kind.VLOAD: lambda base, sync: Instr.vload(base, 4, sync=sync),
    Kind.VSTORE: lambda base, sync: Instr.vstore(
        base, (1, 2, 3, 4), sync=sync
    ),
    Kind.VGATHER: lambda base, sync: Instr.vgather(
        base, [0, 1, 2, 3], sync=sync
    ),
    Kind.VSCATTER: lambda base, sync: Instr.vscatter(
        base, [3, 2, 1, 0], (1, 2, 3, 4), sync=sync
    ),
    Kind.VGATHERLINK: lambda base, sync: Instr.vgatherlink(
        base, [0, 1, 2, 3], sync=sync
    ),
    Kind.VSCATTERCOND: lambda base, sync: Instr.vscattercond(
        base, [0, 1, 2, 3], (1, 2, 3, 4), sync=sync
    ),
    Kind.BARRIER: lambda base, sync: Instr(Kind.BARRIER, sync=sync),
}


class TestAccountingRule:
    """Every kind charges its thread by the one rule in
    ``Core._compile_handlers``' docstring, applied to the retired
    instruction's trace event."""

    def test_every_kind_is_covered(self):
        assert set(_ONE_INSTR) == set(Kind)

    @pytest.mark.parametrize("sync", [False, True], ids=["plain", "sync"])
    @pytest.mark.parametrize("kind", list(Kind), ids=lambda k: k.name)
    def test_one_instruction(self, kind, sync):
        bus = EventBus()
        trace = bus.attach(InstructionTrace())
        machine = Machine(
            MachineConfig(n_cores=1, threads_per_core=1, simd_width=4),
            obs=bus,
        )
        data = machine.image.alloc_zeros(4)
        instr = _ONE_INSTR[kind](data.base, sync)

        def program(ctx):
            yield instr

        machine.add_program(program)
        stats = machine.run().threads[0]

        (event,) = trace.events
        assert event.kind == kind and event.sync == sync
        icount = instr.count if IS_COMPUTE_OP[kind] else 1
        busy = event.latency
        release = BARRIER_RELEASE_COST if kind == Kind.BARRIER else 0
        assert stats.instructions == icount
        assert stats.busy_cycles == busy + release
        if IS_MEMORY_OP[kind]:
            assert stats.mem_instructions == 1
            assert stats.mem_stall_cycles == (busy - 1 if busy > 1 else 0)
        else:
            assert stats.mem_instructions == 0
            assert stats.mem_stall_cycles == 0
        assert stats.sync_instructions == (icount if sync else 0)
        assert stats.sync_cycles == (busy if sync else 0) + release


#: The unit entry point that executes each memory kind.
_ENTRY_POINT = {
    Kind.LOAD: (Lsu, "load"),
    Kind.STORE: (Lsu, "store"),
    Kind.LL: (Lsu, "ll"),
    Kind.SC: (Lsu, "sc"),
    Kind.VLOAD: (Lsu, "vload"),
    Kind.VSTORE: (Lsu, "vstore"),
    Kind.VGATHER: (Gsu, "gather"),
    Kind.VSCATTER: (Gsu, "scatter"),
    Kind.VGATHERLINK: (Gsu, "gather"),
    Kind.VSCATTERCOND: (Gsu, "scatter"),
}


class TestMemoryDispatch:
    """A memory instruction reaches its unit in one frame: the
    ``memory`` handler passes the ``Instr`` itself to the unit."""

    def test_every_memory_kind_is_covered(self):
        assert set(_ENTRY_POINT) == MEMORY_KINDS

    @pytest.mark.parametrize(
        "kind", sorted(MEMORY_KINDS), ids=lambda k: k.name
    )
    def test_unit_called_by_handler_with_instr(self, kind, monkeypatch):
        unit, name = _ENTRY_POINT[kind]
        entry = getattr(unit, name)
        calls = []

        def spy(self, *args, **kwargs):
            calls.append((sys._getframe(1).f_code.co_name, args))
            return entry(self, *args, **kwargs)

        monkeypatch.setattr(unit, name, spy)
        machine = single_thread_machine()
        data = machine.image.alloc_zeros(4)
        instr = _ONE_INSTR[kind](data.base, False)

        def program(ctx):
            yield instr

        machine.add_program(program)
        machine.run()
        ((caller, args),) = calls
        assert caller == "handler"
        assert len(args) == 3 and args[0] == 0 and args[1] is instr
