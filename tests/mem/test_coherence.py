"""Unit and property tests for the MSI directory coherence controller."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import MSI_M, MSI_S
from repro.mem.coherence import (
    CoherenceSystem,
    LEVEL_L1,
    LEVEL_L2,
    LEVEL_MEM,
    LEVEL_REMOTE,
)
from repro.mem.messages import Inv
from repro.obs.bus import EventBus, Sink
from repro.obs.events import Invalidation, ReservationLost
from repro.sim.config import MachineConfig
from repro.sim.stats import MachineStats


def make_system(obs=None, **overrides):
    defaults = dict(
        n_cores=2,
        threads_per_core=2,
        prefetch_enabled=False,
    )
    defaults.update(overrides)
    config = MachineConfig(**defaults)
    stats = MachineStats()
    return CoherenceSystem(config, stats, obs=obs), config, stats


class Collect(Sink):
    """Records every event, in emission order."""

    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


ADDR = 0x1000


class TestReadPath:
    def test_cold_read_goes_to_memory(self):
        sys_, cfg, stats = make_system()
        access = sys_.read(0, 0, ADDR, now=0)
        assert access.level == LEVEL_MEM
        assert access.latency == cfg.l1_hit_latency + cfg.l2_latency + cfg.mem_latency
        assert stats.l1_misses == 1 and stats.l2_misses == 1

    def test_second_read_hits_l1(self):
        sys_, cfg, stats = make_system()
        sys_.read(0, 0, ADDR, now=0)
        access = sys_.read(0, 0, ADDR, now=1)
        assert access.level == LEVEL_L1
        assert access.latency == cfg.l1_hit_latency
        assert stats.l1_hits == 1

    def test_same_line_different_word_hits(self):
        sys_, cfg, _ = make_system()
        sys_.read(0, 0, ADDR, now=0)
        access = sys_.read(0, 0, ADDR + 60, now=1)
        assert access.level == LEVEL_L1

    def test_other_core_read_is_l2_hit(self):
        sys_, cfg, _ = make_system()
        sys_.read(0, 0, ADDR, now=0)
        access = sys_.read(1, 0, ADDR, now=10)  # bank idle again
        assert access.level == LEVEL_L2
        assert access.latency == cfg.l1_hit_latency + cfg.l2_latency

    def test_same_bank_accesses_queue(self):
        sys_, cfg, _ = make_system()
        sys_.read(0, 0, ADDR, now=0)
        # A second miss to the same line's bank in the same cycle waits
        # for the bank to free up.
        access = sys_.read(1, 0, ADDR, now=0)
        assert access.latency > cfg.l1_hit_latency + cfg.l2_latency
        assert (
            access.latency
            <= cfg.l1_hit_latency + cfg.l2_latency + cfg.l2_bank_busy_cycles
        )

    def test_read_of_remote_dirty_line_downgrades_owner(self):
        sys_, cfg, stats = make_system()
        sys_.write(0, 0, ADDR, now=0)
        access = sys_.read(1, 0, ADDR, now=1)
        assert access.level == LEVEL_REMOTE
        line = sys_.l1s[0].lookup(sys_.geometry.line_addr(ADDR))
        assert line.state == MSI_S
        entry = sys_.l2.lookup(sys_.geometry.line_addr(ADDR))
        assert entry.owner is None and entry.sharers == {0, 1}
        assert stats.writebacks == 1


class TestWritePath:
    def test_write_installs_modified(self):
        sys_, _, _ = make_system()
        sys_.write(0, 0, ADDR, now=0)
        line = sys_.l1s[0].lookup(sys_.geometry.line_addr(ADDR))
        assert line.state == MSI_M
        entry = sys_.l2.lookup(sys_.geometry.line_addr(ADDR))
        assert entry.owner == 0

    def test_upgrade_invalidates_sharers(self):
        sys_, _, stats = make_system()
        sys_.read(0, 0, ADDR, now=0)
        sys_.read(1, 0, ADDR, now=1)
        access = sys_.write(0, 0, ADDR, now=2)
        assert access.level == LEVEL_REMOTE
        assert sys_.l1s[1].lookup(sys_.geometry.line_addr(ADDR)) is None
        assert stats.invalidations_sent == 1

    def test_write_miss_steals_dirty_line(self):
        sys_, _, stats = make_system()
        sys_.write(0, 0, ADDR, now=0)
        sys_.write(1, 0, ADDR, now=1)
        line_addr = sys_.geometry.line_addr(ADDR)
        assert sys_.l1s[0].lookup(line_addr) is None
        entry = sys_.l2.lookup(line_addr)
        assert entry.owner == 1
        assert stats.writebacks == 1

    def test_repeated_write_hits_in_m(self):
        sys_, cfg, _ = make_system()
        sys_.write(0, 0, ADDR, now=0)
        access = sys_.write(0, 0, ADDR + 4, now=1)
        assert access.level == LEVEL_L1
        assert access.latency == cfg.l1_hit_latency


class TestScalarLlSc:
    def test_ll_then_sc_succeeds(self):
        sys_, _, _ = make_system()
        sys_.scalar_ll(0, 0, ADDR, now=0)
        access, ok = sys_.scalar_sc(0, 0, ADDR, now=1)
        assert ok

    def test_sc_without_ll_fails(self):
        sys_, _, _ = make_system()
        _, ok = sys_.scalar_sc(0, 0, ADDR, now=0)
        assert not ok

    def test_intervening_remote_write_kills_reservation(self):
        sys_, _, _ = make_system()
        sys_.scalar_ll(0, 0, ADDR, now=0)
        sys_.write(1, 0, ADDR, now=1)
        _, ok = sys_.scalar_sc(0, 0, ADDR, now=2)
        assert not ok

    def test_intervening_same_core_write_kills_reservation(self):
        sys_, _, _ = make_system()
        sys_.scalar_ll(0, 0, ADDR, now=0)
        sys_.write(0, 1, ADDR, now=1)  # other SMT slot, same core
        _, ok = sys_.scalar_sc(0, 0, ADDR, now=2)
        assert not ok

    def test_write_to_other_line_preserves_reservation(self):
        sys_, _, _ = make_system()
        sys_.scalar_ll(0, 0, ADDR, now=0)
        sys_.write(1, 0, ADDR + 4096, now=1)
        _, ok = sys_.scalar_sc(0, 0, ADDR, now=2)
        assert ok

    def test_sc_consumes_reservation(self):
        sys_, _, _ = make_system()
        sys_.scalar_ll(0, 0, ADDR, now=0)
        sys_.scalar_sc(0, 0, ADDR, now=1)
        _, ok = sys_.scalar_sc(0, 0, ADDR, now=2)
        assert not ok

    def test_racing_sc_only_one_wins(self):
        sys_, _, _ = make_system()
        sys_.scalar_ll(0, 0, ADDR, now=0)
        sys_.scalar_ll(1, 0, ADDR, now=1)
        _, ok_a = sys_.scalar_sc(0, 0, ADDR, now=2)
        _, ok_b = sys_.scalar_sc(1, 0, ADDR, now=3)
        assert ok_a and not ok_b


class TestGlscTransactions:
    def test_link_then_conditional_write_succeeds(self):
        sys_, _, _ = make_system()
        _, linked, cause = sys_.read_linked(0, 0, ADDR, now=0)
        assert linked and cause is None
        _, ok, cause = sys_.write_conditional(0, 0, ADDR, now=1)
        assert ok and cause is None

    def test_conditional_write_without_link_fails(self):
        sys_, _, _ = make_system()
        sys_.read(0, 0, ADDR, now=0)
        _, ok, cause = sys_.write_conditional(0, 0, ADDR, now=1)
        assert not ok and cause == "thread_conflict"

    def test_conditional_write_consumes_link(self):
        sys_, _, _ = make_system()
        sys_.read_linked(0, 0, ADDR, now=0)
        sys_.write_conditional(0, 0, ADDR, now=1)
        _, ok, _ = sys_.write_conditional(0, 0, ADDR, now=2)
        assert not ok

    def test_remote_write_kills_link(self):
        sys_, _, _ = make_system()
        sys_.read_linked(0, 0, ADDR, now=0)
        sys_.write(1, 0, ADDR, now=1)
        _, ok, cause = sys_.write_conditional(0, 0, ADDR, now=2)
        assert not ok and cause == "thread_conflict"

    def test_remote_read_preserves_link(self):
        sys_, _, _ = make_system()
        sys_.read_linked(0, 0, ADDR, now=0)
        sys_.read(1, 0, ADDR, now=1)
        _, ok, _ = sys_.write_conditional(0, 0, ADDR, now=2)
        assert ok

    def test_foreign_smt_link_fails_fast(self):
        sys_, _, _ = make_system()
        sys_.read_linked(0, 0, ADDR, now=0)
        _, linked, cause = sys_.read_linked(0, 1, ADDR, now=1)
        assert not linked and cause == "link_stolen"

    def test_same_slot_can_relink(self):
        sys_, _, _ = make_system()
        sys_.read_linked(0, 0, ADDR, now=0)
        _, linked, _ = sys_.read_linked(0, 0, ADDR, now=1)
        assert linked

    def test_links_on_different_cores_coexist(self):
        sys_, _, _ = make_system()
        _, linked_a, _ = sys_.read_linked(0, 0, ADDR, now=0)
        _, linked_b, _ = sys_.read_linked(1, 0, ADDR, now=1)
        assert linked_a and linked_b
        # First conditional write wins, second loses its reservation.
        _, ok_a, _ = sys_.write_conditional(0, 0, ADDR, now=2)
        _, ok_b, cause = sys_.write_conditional(1, 0, ADDR, now=3)
        assert ok_a and not ok_b and cause == "thread_conflict"

    def test_wrong_slot_conditional_write_fails(self):
        sys_, _, _ = make_system()
        sys_.read_linked(0, 0, ADDR, now=0)
        _, ok, _ = sys_.write_conditional(0, 1, ADDR, now=1)
        assert not ok

    def test_fail_on_miss_policy(self):
        sys_, _, _ = make_system(glsc_fail_on_miss=True)
        _, linked, cause = sys_.read_linked(0, 0, ADDR, now=0)
        assert not linked and cause == "miss_policy"
        # The fill happened in the background: a retry hits and links.
        _, linked, _ = sys_.read_linked(0, 0, ADDR, now=1)
        assert linked

    def test_link_eviction_protection(self):
        # 2-way L1: two linked lines in one set, third link must fail.
        sys_, cfg, _ = make_system(
            l1_size_bytes=2 * 64 * 4, l1_assoc=2
        )  # 4 sets x 2 ways
        set_stride = 4 * 64
        a, b, c = 0x0, set_stride, 2 * set_stride
        assert sys_.read_linked(0, 0, a, now=0)[1]
        assert sys_.read_linked(0, 0, b, now=1)[1]
        _, linked, cause = sys_.read_linked(0, 0, c, now=2)
        assert not linked and cause == "eviction"
        # Both original links survive.
        _, ok_a, _ = sys_.write_conditional(0, 0, a, now=3)
        _, ok_b, _ = sys_.write_conditional(0, 0, b, now=4)
        assert ok_a and ok_b

    def test_eviction_kills_link_when_unprotected(self):
        sys_, _, _ = make_system(
            l1_size_bytes=2 * 64 * 4,
            l1_assoc=2,
            glsc_fail_on_link_eviction=False,
        )
        set_stride = 4 * 64
        a, b, c = 0x0, set_stride, 2 * set_stride
        sys_.read_linked(0, 0, a, now=0)
        sys_.read_linked(0, 0, b, now=1)
        _, linked, _ = sys_.read_linked(0, 0, c, now=2)
        assert linked  # evicted line a's link instead
        _, ok_a, cause = sys_.write_conditional(0, 0, a, now=3)
        assert not ok_a and cause == "eviction"


class TestInclusionAndBackInvalidation:
    def test_l2_eviction_back_invalidates_l1(self):
        sys_, _, _ = make_system(
            l2_size_bytes=2 * 64 * 2, l2_assoc=2, l2_banks=1
        )  # tiny L2: 2 sets x 2 ways
        set_stride = 2 * 64
        lines = [k * set_stride for k in range(3)]
        sys_.read(0, 0, lines[0], now=0)
        sys_.read(0, 0, lines[1], now=1)
        sys_.read(0, 0, lines[2], now=2)  # evicts lines[0] from L2
        assert sys_.l1s[0].lookup(lines[0]) is None
        sys_.check_invariants()

    def test_l2_eviction_kills_glsc_link(self):
        sys_, _, _ = make_system(
            l2_size_bytes=2 * 64 * 2, l2_assoc=2, l2_banks=1
        )
        set_stride = 2 * 64
        lines = [k * set_stride for k in range(3)]
        sys_.read_linked(0, 0, lines[0], now=0)
        sys_.read(0, 0, lines[1], now=1)
        sys_.read(0, 0, lines[2], now=2)
        _, ok, cause = sys_.write_conditional(0, 0, lines[0], now=3)
        assert not ok and cause == "eviction"

    @staticmethod
    def _invalidation_events(sink, since):
        return [
            e for e in sink.events[since:]
            if type(e) in (Invalidation, Inv, ReservationLost)
        ]

    @staticmethod
    def _expected(line, now, inv_cause, loss_cause, attacker):
        """Per sharer, in ascending core order: Invalidation, Inv, then
        the loss of the reservation it held (core 0 a scalar one in
        slot 0, core 1 a GLSC link in slot 1)."""
        return [
            Invalidation(now, 0, line, inv_cause),
            Inv(now, 0, line, inv_cause),
            ReservationLost(now, 0, 0, line, "scalar", loss_cause,
                            *attacker),
            Invalidation(now, 1, line, inv_cause),
            Inv(now, 1, line, inv_cause),
            ReservationLost(now, 1, 1, line, "glsc", loss_cause, *attacker),
        ]

    def test_l2_eviction_event_contract(self):
        sink = Collect()
        bus = EventBus()
        bus.attach(sink)
        sys_, _, _ = make_system(
            obs=bus, l2_size_bytes=2 * 64 * 2, l2_assoc=2, l2_banks=1
        )
        set_stride = 2 * 64
        lines = [k * set_stride for k in range(3)]
        sys_.scalar_ll(0, 0, lines[0], now=0)
        sys_.read_linked(1, 1, lines[0], now=1)
        sys_.read(0, 0, lines[1], now=2)
        since = len(sink.events)
        sys_.read(0, 1, lines[2], now=3)  # evicts lines[0] from L2
        assert self._invalidation_events(sink, since) == self._expected(
            lines[0], 3, "l2_eviction", "eviction", (0, 1)
        )
        sys_.check_invariants()

    def test_remote_write_event_contract(self):
        sink = Collect()
        bus = EventBus()
        bus.attach(sink)
        sys_, _, _ = make_system(obs=bus, n_cores=3)
        sys_.scalar_ll(0, 0, ADDR, now=0)
        sys_.read_linked(1, 1, ADDR, now=1)
        since = len(sink.events)
        sys_.write(2, 1, ADDR, now=2)
        line = sys_.geometry.line_addr(ADDR)
        assert self._invalidation_events(sink, since) == self._expected(
            line, 2, "remote_write", "thread_conflict", (2, 1)
        )
        sys_.check_invariants()


class TestPrefetcher:
    def test_stride_stream_prefetches(self):
        sys_, cfg, stats = make_system(prefetch_enabled=True)
        for k in range(3):
            sys_.read(0, 0, k * 64, now=k)
        assert stats.prefetches_issued > 0
        # The next line in the stream should now hit.
        access = sys_.read(0, 0, 3 * 64, now=10)
        assert access.level == LEVEL_L1
        assert stats.prefetch_hits >= 1

    def test_prefetch_keeps_invariants(self):
        sys_, _, _ = make_system(prefetch_enabled=True)
        for k in range(8):
            sys_.read(0, 0, k * 64, now=k)
            sys_.write(1, 0, k * 64 + 4096, now=k)
        sys_.check_invariants()


class TestRandomizedInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["r", "w", "ll", "sc", "rl", "wc"]),
                st.integers(0, 1),   # core
                st.integers(0, 1),   # slot
                st.integers(0, 24),  # word index within a small region
            ),
            min_size=1,
            max_size=120,
        )
    )
    def test_random_traffic_preserves_invariants(self, ops):
        sys_, _, _ = make_system(
            l1_size_bytes=4 * 64 * 2, l1_assoc=2,
            l2_size_bytes=8 * 64 * 2, l2_assoc=2, l2_banks=1,
            prefetch_enabled=True,
        )
        for now, (op, core, slot, word) in enumerate(ops):
            addr = 0x400 + word * 4
            if op == "r":
                sys_.read(core, slot, addr, now)
            elif op == "w":
                sys_.write(core, slot, addr, now)
            elif op == "ll":
                sys_.scalar_ll(core, slot, addr, now)
            elif op == "sc":
                sys_.scalar_sc(core, slot, addr, now)
            elif op == "rl":
                sys_.read_linked(core, slot, addr, now)
            elif op == "wc":
                sys_.write_conditional(core, slot, addr, now)
        sys_.check_invariants()
