"""Unit tests for shared kernel idioms (locks, reduction loops)."""

import pytest

from repro.errors import ConfigError
from repro.kernels.common import (
    MAX_SIMD_WIDTH,
    chunk,
    glsc_vector_update,
    padded,
    scalar_atomic_update,
    scalar_lock_acquire,
    scalar_lock_release,
    vlock,
    vunlock,
)
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine


class TestChunk:
    def test_covers_everything_once(self):
        for total in (0, 1, 7, 16, 100):
            for n_threads in (1, 3, 16):
                covered = []
                for tid in range(n_threads):
                    lo, hi = chunk(total, n_threads, tid)
                    covered.extend(range(lo, hi))
                assert covered == list(range(total))

    def test_balanced(self):
        sizes = [
            hi - lo
            for lo, hi in (chunk(100, 16, t) for t in range(16))
        ]
        assert max(sizes) - min(sizes) <= 1


class TestPadded:
    def test_pads_to_multiple(self):
        assert len(padded([1] * 5)) == MAX_SIMD_WIDTH
        assert len(padded([1] * MAX_SIMD_WIDTH)) == MAX_SIMD_WIDTH
        assert len(padded([1] * 17)) == 2 * MAX_SIMD_WIDTH

    def test_pads_with_zeros(self):
        assert padded([7])[1:] == [0] * (MAX_SIMD_WIDTH - 1)


def run_threads(cfg, program):
    machine = Machine(cfg)
    image = machine.image
    return machine, image


class TestScalarHelpers:
    def test_atomic_update_applies_fn(self):
        cfg = MachineConfig(n_cores=2, threads_per_core=1, simd_width=1)
        machine = Machine(cfg)
        word = machine.image.alloc_zeros(1)

        def program(ctx):
            for _ in range(10):
                yield from scalar_atomic_update(
                    ctx, word.base, lambda old: old + 2
                )

        for _ in range(2):
            machine.add_program(program)
        machine.run()
        assert word[0] == 40

    def test_lock_provides_mutual_exclusion(self):
        cfg = MachineConfig(n_cores=4, threads_per_core=1, simd_width=1)
        machine = Machine(cfg)
        lock = machine.image.alloc_zeros(1)
        counter = machine.image.alloc_zeros(1)

        def program(ctx):
            for _ in range(10):
                yield from scalar_lock_acquire(ctx, lock.base)
                value = yield ctx.load(counter.base)
                yield ctx.alu(3)  # widen the race window
                yield ctx.store(counter.base, value + 1)
                yield from scalar_lock_release(ctx, lock.base)

        for _ in range(4):
            machine.add_program(program)
        machine.run()
        assert counter[0] == 40
        assert lock[0] == 0


class TestVectorHelpers:
    def test_glsc_vector_update_completes_all_lanes(self):
        cfg = MachineConfig(n_cores=1, threads_per_core=1, simd_width=4)
        machine = Machine(cfg)
        data = machine.image.alloc_array([10, 20, 30, 40])

        def program(ctx):
            yield from glsc_vector_update(
                ctx,
                data.base,
                [0, 1, 2, 3],
                lambda vals, got: tuple(
                    v * 2 if got.lane(k) else v for k, v in enumerate(vals)
                ),
            )

        machine.add_program(program)
        machine.run()
        assert data.to_list() == [20, 40, 60, 80]

    def test_glsc_vector_update_with_aliases_terminates(self):
        cfg = MachineConfig(n_cores=1, threads_per_core=1, simd_width=4)
        machine = Machine(cfg)
        data = machine.image.alloc_zeros(1)

        def program(ctx):
            yield from glsc_vector_update(
                ctx,
                data.base,
                [0, 0, 0, 0],
                lambda vals, got: tuple(
                    v + 1 if got.lane(k) else v for k, v in enumerate(vals)
                ),
            )

        machine.add_program(program)
        machine.run()
        assert data[0] == 4  # each alias winner applied exactly once

    def test_vlock_vunlock_roundtrip(self):
        cfg = MachineConfig(n_cores=1, threads_per_core=1, simd_width=4)
        machine = Machine(cfg)
        locks = machine.image.alloc_zeros(8)
        observed = {}

        def program(ctx):
            got = yield from vlock(
                ctx, locks.base, [0, 2, 4, 6], ctx.all_ones()
            )
            observed["got"] = got
            observed["held"] = [locks[i] for i in (0, 2, 4, 6)]
            yield from vunlock(ctx, locks.base, [0, 2, 4, 6], got)

        machine.add_program(program)
        machine.run()
        assert observed["got"].all()
        assert observed["held"] == [1, 1, 1, 1]
        assert all(v == 0 for v in locks.to_list())

    def test_vlock_aliased_lanes_one_winner(self):
        cfg = MachineConfig(n_cores=1, threads_per_core=1, simd_width=4)
        machine = Machine(cfg)
        locks = machine.image.alloc_zeros(4)
        observed = {}

        def program(ctx):
            got = yield from vlock(
                ctx, locks.base, [1, 1, 1, 3], ctx.all_ones()
            )
            observed["got"] = got
            yield from vunlock(ctx, locks.base, [1, 1, 1, 3], got)

        machine.add_program(program)
        machine.run()
        got = observed["got"]
        assert got.popcount() == 2  # one winner for lock 1, plus lock 3
        assert got.lane(3)

    def test_vlock_sees_taken_locks(self):
        cfg = MachineConfig(n_cores=1, threads_per_core=1, simd_width=2)
        machine = Machine(cfg)
        locks = machine.image.alloc_array([1, 0])  # lock 0 already held
        observed = {}

        def program(ctx):
            got = yield from vlock(ctx, locks.base, [0, 1], ctx.all_ones())
            observed["got"] = got

        machine.add_program(program)
        machine.run()
        assert observed["got"].lanes() == [False, True]
