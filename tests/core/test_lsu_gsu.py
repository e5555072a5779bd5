"""Unit tests for LSU and GSU timing and semantics."""

import pytest

from repro.core.gsu import Gsu
from repro.core.lsu import Lsu
from repro.core.ports import L1Port
from repro.isa.instructions import Instr
from repro.isa.masks import Mask
from repro.mem.coherence import CoherenceSystem
from repro.mem.image import MemoryImage
from repro.sim.config import MachineConfig
from repro.sim.stats import MachineStats


def make_units(**overrides):
    defaults = dict(
        n_cores=2, threads_per_core=2, simd_width=4, prefetch_enabled=False
    )
    defaults.update(overrides)
    config = MachineConfig(**defaults)
    stats = MachineStats()
    coherence = CoherenceSystem(config, stats)
    image = MemoryImage(config.mem_size_bytes, config.geometry)
    port = L1Port()
    lsu = Lsu(0, config, coherence, image, stats, port)
    gsu = Gsu(0, config, coherence, image, stats, port)
    return lsu, gsu, config, stats, coherence, image


class TestPort:
    def test_booking_serializes(self):
        port = L1Port()
        assert port.book(5) == 5
        assert port.book(5) == 6
        assert port.book(3) == 7
        assert port.book(100) == 100


class TestLsu:
    def test_load_returns_value_and_latency(self):
        lsu, _, cfg, _, _, image = make_units()
        view = image.alloc_array([7.0])
        # warm the line
        lsu.load(0, Instr.load(view.base), 0)
        done, value = lsu.load(0, Instr.load(view.base), 100)
        assert value == 7.0
        assert done == 100 + cfg.l1_hit_latency

    def test_store_is_write_buffered(self):
        lsu, _, cfg, _, _, image = make_units()
        view = image.alloc_zeros(1)
        done, _ = lsu.store(0, Instr.store(view.base, 3.0), 0)
        assert done == 1  # thread only waits for the port slot
        assert view[0] == 3.0

    def test_ll_sc_roundtrip(self):
        lsu, _, _, stats, _, image = make_units()
        view = image.alloc_array([10])
        _, value = lsu.ll(0, Instr.ll(view.base), 0)
        _, ok = lsu.sc(0, Instr.sc(view.base, value + 1), 5)
        assert ok and view[0] == 11
        assert stats.ll_count == 1 and stats.sc_count == 1
        assert stats.sc_failures == 0

    def test_failed_sc_does_not_write(self):
        lsu, _, _, stats, coherence, image = make_units()
        view = image.alloc_array([10])
        lsu.ll(0, Instr.ll(view.base), 0)
        coherence.write(1, 0, view.base, now=1)  # remote write
        _, ok = lsu.sc(0, Instr.sc(view.base, 99), 2)
        assert not ok and view[0] == 10
        assert stats.sc_failures == 1

    def test_vload_within_line_is_single_access(self):
        lsu, _, cfg, stats, _, image = make_units()
        view = image.alloc_array([1, 2, 3, 4])
        lsu.load(0, Instr.load(view.base), 0)  # warm
        before = stats.l1_accesses
        done, values = lsu.vload(0, Instr.vload(view.base, 4), 50)
        assert values == (1, 2, 3, 4)
        assert stats.l1_accesses - before == 1
        assert done == 50 + cfg.l1_hit_latency

    def test_vload_spanning_lines(self):
        lsu, _, cfg, stats, _, image = make_units()
        base = image.alloc(128)
        addr = base + 56  # words at offsets 56,60,64,68: spans 2 lines
        before = stats.l1_accesses
        lsu.vload(0, Instr.vload(addr, 4), 0)
        assert stats.l1_accesses - before == 2

    def test_vstore_masked(self):
        lsu, _, _, _, _, image = make_units()
        view = image.alloc_array([0, 0, 0, 0])
        instr = Instr.vstore(view.base, (1, 2, 3, 4), Mask(0b0101, 4))
        lsu.vstore(0, instr, 0)
        assert view.to_list() == [1, 0, 3, 0]

    def test_vstore_empty_mask_is_noop(self):
        lsu, _, _, stats, _, image = make_units()
        view = image.alloc_array([5])
        before = stats.l1_accesses
        instr = Instr.vstore(view.base, (9,), Mask.zeros(1))
        done, _ = lsu.vstore(0, instr, 0)
        assert view[0] == 5
        assert stats.l1_accesses == before
        assert done == 1


class TestGsuTiming:
    def test_min_gather_latency_matches_table1(self):
        _, gsu, cfg, _, _, image = make_units()
        view = image.alloc_array(list(range(16)))
        indices = [0, 1, 2, 3]  # same line: warm it first
        gsu.gather(0, Instr.vgather(view.base, indices), 0)
        done, _ = gsu.gather(0, Instr.vgather(view.base, indices), 100)
        # one line, all hits: addr-gen 4 cycles + hit + assembly
        assert done <= 100 + cfg.min_glsc_latency + cfg.l1_hit_latency

    def test_miss_overlap(self):
        """Two missing lines overlap their latencies (GLSC benefit 2)."""
        _, gsu, cfg, _, _, image = make_units()
        base = image.alloc(4096)
        spread = [0, 16, 32, 48]  # four distinct lines, all cold
        done, _ = gsu.gather(0, Instr.vgather(base, spread), 0)
        one_miss = cfg.l1_hit_latency + cfg.l2_latency + cfg.mem_latency
        # Serial misses would cost ~4x one_miss; overlap keeps it near 1x.
        assert done < 2 * one_miss

    def test_addr_generation_serializes_across_threads(self):
        _, gsu, cfg, _, _, image = make_units()
        view = image.alloc_array(list(range(64)))
        first = Instr.vgather(view.base, [0, 1, 2, 3])
        gsu.gather(0, first, 0)  # warm
        done_a, _ = gsu.gather(0, first, 100)
        # Second gather issued at the same cycle queues behind addr-gen.
        second = Instr.vgather(view.base, [4, 5, 6, 7])
        done_b, _ = gsu.gather(1, second, 100)
        assert done_b >= done_a + 4  # queued behind 4 addr-gen cycles


class TestGsuCombining:
    def test_same_line_combined_one_access(self):
        _, gsu, _, stats, _, image = make_units()
        view = image.alloc_array(list(range(16)))
        gsu.gather(0, Instr.vgather(view.base, [0, 1, 2, 3]), 0)
        assert stats.l1_accesses == 1

    def test_combining_savings_counted_for_sync_ops(self):
        _, gsu, _, stats, _, image = make_units()
        view = image.alloc_array(list(range(16)))
        gsu.gather(0, Instr.vgatherlink(view.base, [0, 1, 2, 3]), 0)
        assert stats.l1_accesses_saved_by_combining == 3
        assert stats.l1_sync_accesses == 1

    def test_combining_disabled_charges_per_lane(self):
        _, gsu, _, stats, _, image = make_units(gsu_combine_lines=False)
        view = image.alloc_array(list(range(16)))
        gsu.gather(0, Instr.vgather(view.base, [0, 1, 2, 3]), 0)
        assert stats.l1_accesses == 4
        assert stats.l1_accesses_saved_by_combining == 0


class TestGsuGlsc:
    def test_gatherlink_scattercond_roundtrip(self):
        _, gsu, _, stats, _, image = make_units()
        view = image.alloc_array([10, 20, 30, 40])
        m = Mask.all_ones(4)
        _, (values, got) = gsu.gather(
            0, Instr.vgatherlink(view.base, [0, 1, 2, 3], m), 0
        )
        assert values == (10, 20, 30, 40) and got.all()
        newvals = tuple(v + 1 for v in values)
        _, ok = gsu.scatter(
            0, Instr.vscattercond(view.base, [0, 1, 2, 3], newvals, got), 10
        )
        assert ok.all()
        assert view.to_list() == [11, 21, 31, 41]
        assert stats.scattercond_successes == 4
        assert stats.glsc_failure_rate == 0.0

    def test_alias_exactly_one_winner(self):
        _, gsu, _, stats, _, image = make_units()
        view = image.alloc_array([0, 0])
        m = Mask.all_ones(4)
        indices = [0, 0, 0, 1]  # three lanes alias word 0
        _, (values, got) = gsu.gather(
            0, Instr.vgatherlink(view.base, indices, m), 0
        )
        assert got.all()  # default: alias resolved at scatter time
        _, ok = gsu.scatter(
            0, Instr.vscattercond(view.base, indices, (7, 8, 9, 5), got), 10
        )
        assert ok.popcount() == 2  # one winner for word 0, plus lane 3
        assert ok.lane(0) and not ok.lane(1) and not ok.lane(2) and ok.lane(3)
        assert view[0] == 7  # lowest lane wins
        assert view[1] == 5
        assert stats.glsc_element_failures["alias"] == 2

    def test_alias_resolved_in_gather_when_configured(self):
        _, gsu, _, stats, _, image = make_units(glsc_alias_in_gather=True)
        view = image.alloc_array([0, 0])
        m = Mask.all_ones(4)
        indices = [0, 0, 1, 1]
        _, (values, got) = gsu.gather(
            0, Instr.vgatherlink(view.base, indices, m), 0
        )
        assert got == Mask(0b0101, 4)
        assert stats.glsc_element_failures["alias"] == 2
        _, ok = gsu.scatter(
            0, Instr.vscattercond(view.base, indices, (1, 2, 3, 4), got), 10
        )
        assert ok == got  # winners all succeed

    def test_masked_lanes_ignored(self):
        _, gsu, _, stats, _, image = make_units()
        view = image.alloc_array([10, 20, 30, 40])
        m = Mask(0b1010, 4)
        _, (values, got) = gsu.gather(
            0, Instr.vgatherlink(view.base, [0, 1, 2, 3], m), 0
        )
        assert got == m
        assert stats.gatherlink_elements == 2

    def test_failure_rate_counts_unwritten_lanes(self):
        """Lanes the kernel abandons (e.g. contended locks) count as
        failures even though the GSU never saw their scatter."""
        _, gsu, _, stats, _, image = make_units()
        view = image.alloc_array([0, 0, 0, 0])
        m = Mask.all_ones(4)
        _, (_, got) = gsu.gather(
            0, Instr.vgatherlink(view.base, [0, 1, 2, 3], m), 0
        )
        subset = Mask(0b0011, 4)
        instr = Instr.vscattercond(
            view.base, [0, 1, 2, 3], (1, 1, 1, 1), subset
        )
        gsu.scatter(0, instr, 10)
        assert stats.glsc_failure_rate == pytest.approx(0.5)

    def test_plain_scatter_last_lane_wins(self):
        _, gsu, _, _, _, image = make_units()
        view = image.alloc_array([0])
        instr = Instr.vscatter(view.base, [0, 0, 0, 0], (1, 2, 3, 4))
        gsu.scatter(0, instr, 0)
        assert view[0] == 4
