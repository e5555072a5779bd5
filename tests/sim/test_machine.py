"""Integration tests for the machine cycle loop, SMT, and barriers."""

import pytest

from repro.errors import (
    AlignmentError, ConfigError, DeadlockError, IsaError, MemoryError_,
    ProgramError, SimulationError,
)
from repro.sim.config import MachineConfig, named_config
from repro.sim.machine import Machine


def run_machine(cfg, program_factory):
    machine = Machine(cfg)
    for tid in range(cfg.n_threads):
        machine.add_program(program_factory(machine))
    stats = machine.run()
    machine.coherence.check_invariants()
    return machine, stats


class TestBasics:
    def test_single_thread_alu_program(self):
        cfg = MachineConfig(n_cores=1, threads_per_core=1)
        machine = Machine(cfg)

        def program(ctx):
            for _ in range(10):
                yield ctx.alu()

        machine.add_program(program)
        stats = machine.run()
        assert stats.total_instructions == 10
        assert stats.cycles >= 10

    def test_result_delivery(self):
        cfg = MachineConfig()
        machine = Machine(cfg)
        view = machine.image.alloc_array([41])
        seen = {}

        def program(ctx):
            value = yield ctx.load(view.addr(0))
            seen["value"] = value
            yield ctx.store(view.addr(0), value + 1)

        machine.add_program(program)
        machine.run()
        assert seen["value"] == 41
        assert view[0] == 42

    def test_too_many_programs_rejected(self):
        cfg = MachineConfig(n_cores=1, threads_per_core=1)
        machine = Machine(cfg)

        def program(ctx):
            yield ctx.alu()

        machine.add_program(program)
        with pytest.raises(ConfigError):
            machine.add_program(program)

    def test_machine_runs_once(self):
        cfg = MachineConfig()
        machine = Machine(cfg)

        def program(ctx):
            yield ctx.alu()

        machine.add_program(program)
        machine.run()
        with pytest.raises(SimulationError):
            machine.run()

    def test_run_without_programs_rejected(self):
        with pytest.raises(SimulationError):
            Machine(MachineConfig()).run()

    def test_program_returning_a_non_generator_rejected(self):
        # check_program accepts any callable (it may return a
        # generator); the thread checks what the call returned.
        machine = Machine(MachineConfig())
        with pytest.raises(ProgramError, match="thread 0.*returned list"):
            machine.add_program(lambda ctx: [ctx.alu()])

    def test_thread_placement_is_cyclic(self):
        cfg = MachineConfig(n_cores=2, threads_per_core=2)
        machine = Machine(cfg)

        def program(ctx):
            yield ctx.alu()

        tids = [machine.add_program(program) for _ in range(4)]
        assert [t.global_tid for t in machine.cores[0].threads] == [0, 2]
        assert [t.global_tid for t in machine.cores[1].threads] == [1, 3]


class TestSmtLatencyHiding:
    def test_smt_hides_memory_latency(self):
        """1x4 should finish 4x the memory work in much less than 4x
        the 1x1 time — the effect the paper's 1x4 bars rely on."""

        def make_program(machine, arrays):
            def program(ctx):
                view = arrays[ctx.tid]
                for i in range(len(view)):
                    yield ctx.load(view.addr(i))

            return program

        def run(cfg):
            machine = Machine(cfg)
            arrays = [
                machine.image.alloc_zeros(64, align=4096)
                for _ in range(cfg.n_threads)
            ]
            # Defeat the stride prefetcher's benefit comparison by
            # disabling it: we want raw miss latency.
            for tid in range(cfg.n_threads):
                machine.add_program(make_program(machine, arrays))
            return machine.run().cycles

        cycles_1x1 = run(
            MachineConfig(n_cores=1, threads_per_core=1, prefetch_enabled=False)
        )
        cycles_1x4 = run(
            MachineConfig(n_cores=1, threads_per_core=4, prefetch_enabled=False)
        )
        assert cycles_1x4 < 2.5 * cycles_1x1  # 4x work, far less than 4x time


class TestAtomicity:
    def test_llsc_counter_no_lost_updates(self):
        cfg = MachineConfig(n_cores=4, threads_per_core=2, simd_width=1)
        machine = Machine(cfg)
        counter = machine.image.alloc_zeros(1)
        increments = 25

        def program(ctx):
            for _ in range(increments):
                while True:
                    value = yield ctx.ll(counter.base)
                    yield ctx.alu()
                    ok = yield ctx.sc(counter.base, value + 1)
                    if ok:
                        break

        for _ in range(cfg.n_threads):
            machine.add_program(program)
        stats = machine.run()
        assert counter[0] == increments * cfg.n_threads
        assert stats.sc_count >= increments * cfg.n_threads

    def test_glsc_counter_no_lost_updates(self):
        cfg = MachineConfig(n_cores=4, threads_per_core=2, simd_width=4)
        machine = Machine(cfg)
        counters = machine.image.alloc_zeros(8)
        per_thread = 12

        def program(ctx):
            indices = [(ctx.tid + k) % 8 for k in range(ctx.w)]
            for _ in range(per_thread):
                todo = ctx.all_ones()
                while todo.any():
                    vals, got = yield ctx.vgatherlink(
                        counters.base, indices, todo
                    )
                    inc = yield ctx.valu(
                        lambda v=vals, g=got: tuple(
                            x + 1 if g.lane(i) else x
                            for i, x in enumerate(v)
                        )
                    )
                    ok = yield ctx.vscattercond(
                        counters.base, indices, inc, got
                    )
                    todo = yield ctx.kalu(lambda t=todo, o=ok: t.andnot(o))

        for _ in range(cfg.n_threads):
            machine.add_program(program)
        machine.run()
        # Every lane of every thread increments one counter per round.
        assert sum(counters.to_list()) == cfg.n_threads * per_thread * 4

    def test_aliased_lanes_within_thread_are_serialized(self):
        cfg = MachineConfig(n_cores=1, threads_per_core=1, simd_width=4)
        machine = Machine(cfg)
        counter = machine.image.alloc_zeros(1)

        def program(ctx):
            indices = [0, 0, 0, 0]
            todo = ctx.all_ones()
            while todo.any():
                vals, got = yield ctx.vgatherlink(counter.base, indices, todo)
                inc = yield ctx.valu(
                    lambda v=vals, g=got: tuple(
                        x + 1 if g.lane(i) else x for i, x in enumerate(v)
                    )
                )
                ok = yield ctx.vscattercond(counter.base, indices, inc, got)
                todo = yield ctx.kalu(lambda t=todo, o=ok: t.andnot(o))

        machine.add_program(program)
        stats = machine.run()
        assert counter[0] == 4  # each alias winner applied exactly once
        assert stats.glsc_element_failures["alias"] == 3 + 2 + 1


class TestBarriers:
    def test_barrier_rendezvous(self):
        cfg = MachineConfig(n_cores=2, threads_per_core=2)
        machine = Machine(cfg)
        flags = machine.image.alloc_zeros(4)
        observed = {}

        def program(ctx):
            yield ctx.store(flags.addr(ctx.tid), 1)
            yield ctx.barrier()
            total = 0
            for t in range(4):
                value = yield ctx.load(flags.addr(t))
                total += value
            observed[ctx.tid] = total

        for _ in range(4):
            machine.add_program(program)
        machine.run()
        assert all(total == 4 for total in observed.values())

    def test_uneven_arrival(self):
        cfg = MachineConfig(n_cores=1, threads_per_core=2)
        machine = Machine(cfg)

        def slow(ctx):
            for _ in range(200):
                yield ctx.alu()
            yield ctx.barrier()

        def fast(ctx):
            yield ctx.alu()
            yield ctx.barrier()

        machine.add_program(slow)
        machine.add_program(fast)
        stats = machine.run()
        # The fast thread's barrier wait is accounted as sync time.
        assert stats.threads[1].sync_cycles > 150

    def test_thread_exit_releases_barrier(self):
        """A thread that finishes without reaching the barrier must not
        deadlock the others (live-thread counting)."""
        cfg = MachineConfig(n_cores=1, threads_per_core=2)
        machine = Machine(cfg)

        def exits_early(ctx):
            yield ctx.alu()

        def waits(ctx):
            for _ in range(50):
                yield ctx.alu()
            yield ctx.barrier()

        machine.add_program(exits_early)
        machine.add_program(waits)
        machine.run()  # must terminate


#: Bytes of simulated memory in TestBadOperands; a word address equal
#: to it is the first one past the end.
_MEM = 1 << 16

#: (operation, instruction builder, error it must raise).  Each builder
#: takes the thread context and the base of a 4-word array.
_BAD_OPERANDS = [
    ("load-negative-addr", lambda ctx, base: ctx.load(-4), IsaError),
    ("vgather-negative-base",
     lambda ctx, base: ctx.vgather(-4, [0, 1, 2, 3]), IsaError),
    ("vgather-negative-index",
     lambda ctx, base: ctx.vgather(base, [0, 1, -1, 3]), IsaError),
    ("load-unaligned", lambda ctx, base: ctx.load(base + 2), AlignmentError),
    ("vgather-unaligned-base",
     lambda ctx, base: ctx.vgather(base + 2, [0, 1, 2, 3]), AlignmentError),
    ("load-past-memory", lambda ctx, base: ctx.load(_MEM), MemoryError_),
    ("vgather-past-memory",
     lambda ctx, base: ctx.vgather(base, [0, 1, (_MEM - base) // 4, 3]),
     MemoryError_),
]


class TestBadOperands:
    """Bad operands fail a run on both the LSU and the GSU path.

    Signs are checked once, when the program builds the ``Instr``;
    alignment and range are checked by the memory image.
    """

    @pytest.mark.parametrize(
        "build,error",
        [case[1:] for case in _BAD_OPERANDS],
        ids=[case[0] for case in _BAD_OPERANDS],
    )
    def test_run_raises(self, build, error):
        cfg = MachineConfig(simd_width=4, mem_size_bytes=_MEM)
        machine = Machine(cfg)
        data = machine.image.alloc_array([1, 2, 3, 4])

        def program(ctx):
            yield ctx.alu()
            yield build(ctx, data.base)

        machine.add_program(program)
        with pytest.raises(error) as excinfo:
            machine.run()
        # AlignmentError subclasses MemoryError_: insist on the exact one.
        assert excinfo.type is error


class TestStatsAccounting:
    def test_sync_cycles_attributed(self):
        cfg = MachineConfig(n_cores=1, threads_per_core=1, simd_width=1)
        machine = Machine(cfg)
        word = machine.image.alloc_zeros(1)

        def program(ctx):
            value = yield ctx.ll(word.base)
            ok = yield ctx.sc(word.base, value + 1)
            assert ok

        machine.add_program(program)
        stats = machine.run()
        assert stats.threads[0].sync_cycles > 0
        assert stats.threads[0].sync_instructions == 2

    def test_mem_stalls_attributed(self):
        cfg = MachineConfig(prefetch_enabled=False)
        machine = Machine(cfg)
        view = machine.image.alloc_zeros(1)

        def program(ctx):
            yield ctx.load(view.base)

        machine.add_program(program)
        stats = machine.run()
        # Cold load goes to memory: the stall is roughly mem latency.
        assert stats.threads[0].mem_stall_cycles > cfg.mem_latency

    def test_instruction_counts(self):
        cfg = MachineConfig()
        machine = Machine(cfg)

        def program(ctx):
            yield ctx.alu(5)
            yield ctx.valu(lambda: None, count=2)
            yield ctx.alu()

        machine.add_program(program)
        stats = machine.run()
        assert stats.total_instructions == 8


class TestDeterminism:
    def test_identical_runs_identical_stats(self):
        def build():
            cfg = MachineConfig(n_cores=2, threads_per_core=2, simd_width=4)
            machine = Machine(cfg)
            counters = machine.image.alloc_zeros(16)

            def program(ctx):
                indices = [(3 * ctx.tid + k) % 16 for k in range(ctx.w)]
                for _ in range(5):
                    todo = ctx.all_ones()
                    while todo.any():
                        vals, got = yield ctx.vgatherlink(
                            counters.base, indices, todo
                        )
                        inc = yield ctx.valu(
                            lambda v=vals, g=got: tuple(
                                x + 1 if g.lane(i) else x
                                for i, x in enumerate(v)
                            )
                        )
                        ok = yield ctx.vscattercond(
                            counters.base, indices, inc, got
                        )
                        todo = yield ctx.kalu(
                            lambda t=todo, o=ok: t.andnot(o)
                        )

            for _ in range(cfg.n_threads):
                machine.add_program(program)
            return machine.run()

        a, b = build(), build()
        assert a.cycles == b.cycles
        assert a.summary() == b.summary()


class TestNamedConfig:
    def test_named_config_parses(self):
        cfg = named_config("4x4", simd_width=16)
        assert cfg.n_cores == 4 and cfg.threads_per_core == 4
        assert cfg.simd_width == 16

    def test_bad_name_rejected(self):
        with pytest.raises(ConfigError):
            named_config("4by4")
