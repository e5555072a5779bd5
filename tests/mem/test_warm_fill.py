"""warm_fill must leave the exact state of the per-read warm loop.

``Machine.warm_caches`` uses :meth:`CoherenceSystem.warm_fill` as a
fast path; its contract is *state equivalence* with the reference
loop::

    for core in range(n_cores):
        for line in range(first, limit, line_bytes):
            coherence.read(core, 0, line, now=0)

These tests snapshot every piece of warm-visible state — L1 line
contents (including GLSC and prefetched bits), L2 directory entries
(sharers, owner, recency), L2 bank clocks, and DRAM access counts —
after each path and require them identical.  Chaos injection disables
the fast path (it would desynchronize the RNG draw sequence), which is
also asserted.
"""

import pytest

from repro.errors import SimulationError
from repro.mem.coherence import CoherenceSystem
from repro.sim.config import MachineConfig
from repro.sim.stats import MachineStats


def snapshot(coherence: CoherenceSystem):
    """Every observable of the warm-up: caches, directory, clocks."""
    l1_state = {}
    for core_id, l1 in coherence.l1s.items():
        lines = {}
        for cache_set in l1._sets:
            for line in cache_set.values():
                lines[line.line_addr] = (
                    line.state,
                    line.glsc_valid,
                    line.glsc_tid,
                    line.last_use,
                    line.prefetched,
                )
        l1_state[core_id] = lines
    l2_state = {
        entry.line_addr: (
            entry.sharers, entry.owner, entry.last_use
        )
        for entry in coherence.l2.entries()
    }
    return {
        "l1": l1_state,
        "l2": l2_state,
        "bank_free": list(coherence._bank_free),
        "dram_accesses": coherence.dram.accesses,
    }


def build(config: MachineConfig) -> CoherenceSystem:
    return CoherenceSystem(config, MachineStats())


def warm_slow(coherence: CoherenceSystem, first: int, limit: int) -> None:
    line_bytes = coherence.config.line_bytes
    for core in range(coherence.config.n_cores):
        for line in range(first, limit, line_bytes):
            coherence.read(core, 0, line, now=0)


@pytest.mark.parametrize("n_cores", [1, 2, 4])
def test_warm_fill_state_equals_slow_loop(n_cores):
    config = MachineConfig().with_topology(n_cores, 2)
    first = config.line_bytes
    # Enough lines to overflow L1 sets and trigger evictions, so the
    # equivalence covers the victim path, not just clean fills.
    limit = first + config.line_bytes * (config.l1_sets * config.l1_assoc + 64)

    fast = build(config)
    assert fast.can_warm_fill()
    fast.warm_fill(first, limit)

    slow = build(config)
    warm_slow(slow, first, limit)

    assert snapshot(fast) == snapshot(slow)


def test_warm_fill_idempotent_second_pass():
    """Re-warming already-resident lines matches the slow loop too

    (the hit path: the slow loop's demand hit clears the prefetched
    bit; warm_fill must do the same).
    """
    config = MachineConfig().with_topology(2, 2)
    first = config.line_bytes
    limit = first + config.line_bytes * 32

    fast = build(config)
    fast.warm_fill(first, limit)
    fast.warm_fill(first, limit)

    slow = build(config)
    warm_slow(slow, first, limit)
    warm_slow(slow, first, limit)

    assert snapshot(fast) == snapshot(slow)


def test_chaos_disables_fast_path():
    config = MachineConfig(chaos_reservation_loss=0.25)
    coherence = build(config)
    assert not coherence.can_warm_fill()
    with pytest.raises(SimulationError):
        coherence.warm_fill(config.line_bytes, config.line_bytes * 8)


def test_machine_warm_caches_uses_equivalent_state():
    """End-to-end: Machine.warm_caches (fast path) leaves the same

    coherence state as a hand-rolled slow warm on a second machine.
    """
    from repro.sim.machine import Machine

    config = MachineConfig().with_topology(2, 2)

    def make_machine():
        machine = Machine(config)
        machine.image.alloc_words(512)

        def program(ctx):
            yield ctx.alu()

        for _ in range(config.n_threads):
            machine.add_program(program)
        return machine

    fast = make_machine()
    fast.warm_caches()

    slow = make_machine()
    line_bytes = config.line_bytes
    for core in range(config.n_cores):
        for line in range(
            line_bytes, slow.image.bytes_allocated, line_bytes
        ):
            slow.coherence.read(core, 0, line, now=0)
    slow.coherence.prefetcher.reset()
    slow.stats.reset_counters()

    assert snapshot(fast.coherence) == snapshot(slow.coherence)
