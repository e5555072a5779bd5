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
after each path and require them identical.  Under chaos injection the
chaos RNG's state and event count must match too, and warm chaos specs
are pinned end to end at their cycles and stats digests.
"""

import hashlib
import json

import pytest

from repro.mem.coherence import CoherenceSystem
from repro.sim.batch import BatchRunner
from repro.sim.config import MachineConfig
from repro.sim.executor import RunSpec, execute_spec
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


def test_warm_fill_under_chaos_draws_like_slow_loop():
    """Chaos draws its RNG before every line lookup, as ``read`` does."""
    config = MachineConfig(chaos_reservation_loss=0.25).with_topology(2, 2)
    first = config.line_bytes
    limit = first + config.line_bytes * (config.l1_sets * config.l1_assoc + 64)

    def chaos_state(coherence):
        return (
            coherence._chaos_rng.getstate(),
            coherence.chaos_events,
            coherence.reservations.live_keys(),
        )

    fast, slow = build(config), build(config)
    untouched = chaos_state(build(config))
    for coherence in (fast, slow):
        # Live reservations give the injected losses victims to kill.
        for core in range(config.n_cores):
            coherence.reservations.set(core, 1, first)
    fast.warm_fill(first, limit)
    warm_slow(slow, first, limit)

    assert chaos_state(fast) == chaos_state(slow)
    assert chaos_state(fast)[0] != untouched[0]
    assert fast.chaos_events == config.n_cores
    assert snapshot(fast) == snapshot(slow)


#: Warm specs under chaos injection, pinned at the cycles and stats
#: sha256 of the per-read warm loop that ``warm_fill`` replaced.
WARM_CHAOS_PINS = [
    (RunSpec.micro("B", "4x4", 4, "glsc"), 0.05, 4283,
     "45a3794420369bd18c0f5e07c2267eca31027a399385359bea94044ea5d7be12"),
    (RunSpec.micro("A", "2x2", 16, "base"), 0.2, 37961,
     "726c5939ea43c5a1bfde4ddd23e847524e4a29e78da832662fa5f3ca2c2be9d8"),
    (RunSpec("tms", "tiny", "2x2", 4, "glsc", warm=True), 0.1, 344,
     "fd0efb24b2b7429186647f8a1966160f52164febe951092a4938b97ca07f0360"),
    (RunSpec("gbc", "tiny", "4x4", 4, "glsc", warm=True), 0.05, 1131,
     "5226e1f019016fcb1551b6884d0c9f00d0d79b027bebb119cb5adb7c65920383"),
]
WARM_CHAOS_SPECS = [
    spec.with_overrides(chaos_reservation_loss=loss)
    for spec, loss, _, _ in WARM_CHAOS_PINS
]


def stats_digest(stats) -> str:
    payload = json.dumps(
        stats.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def test_warm_chaos_specs_keep_their_goldens():
    want = [(cycles, sha) for _, _, cycles, sha in WARM_CHAOS_PINS]
    solo = [execute_spec(spec) for spec in WARM_CHAOS_SPECS]
    batched = [r.stats for r in BatchRunner(WARM_CHAOS_SPECS).run()]
    for stats in (solo, batched):
        assert [(s.cycles, stats_digest(s)) for s in stats] == want


def test_machine_warm_caches_uses_equivalent_state():
    """End-to-end: Machine.warm_caches (warm_fill) leaves the same

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
