"""Property-based tests of GSU timing and semantics."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.gsu import Gsu
from repro.core.lsu import Lsu
from repro.core.ports import L1Port
from repro.isa.instructions import Instr
from repro.isa.masks import Mask
from repro.mem.coherence import CoherenceSystem
from repro.mem.image import MemoryImage
from repro.sim.config import MachineConfig
from repro.sim.stats import MachineStats


def make_gsu(width=4, **overrides):
    config = MachineConfig(
        n_cores=1, threads_per_core=1, simd_width=width,
        prefetch_enabled=False, **overrides,
    )
    stats = MachineStats()
    coherence = CoherenceSystem(config, stats)
    image = MemoryImage(config.mem_size_bytes, config.geometry)
    port = L1Port()
    gsu = Gsu(0, config, coherence, image, stats, port)
    view = image.alloc_array(list(range(256)))
    return gsu, view, config, stats


COMMON = dict(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)

indices4 = st.lists(st.integers(0, 255), min_size=4, max_size=4)
mask4 = st.integers(1, 15).map(lambda bits: Mask(bits, 4))


class TestGatherProperties:
    @settings(**COMMON)
    @given(indices=indices4, bits=st.integers(1, 15))
    def test_min_latency_floor(self, indices, bits):
        gsu, view, cfg, _ = make_gsu()
        mask = Mask(bits, 4)
        # warm the touched lines so the floor binds
        gsu.gather(0, Instr.vgather(view.base, indices), 0)
        start = 1000
        done, _ = gsu.gather(0, Instr.vgather(view.base, indices, mask), start)
        floor = start + cfg.gsu_assembly_cycles + mask.popcount()
        assert done >= floor
        # all hits: completes exactly at the max(access, floor) point
        assert done <= start + cfg.min_glsc_latency + cfg.l1_hit_latency

    @settings(**COMMON)
    @given(indices=indices4, bits=st.integers(1, 15))
    def test_gather_values_match_memory(self, indices, bits):
        gsu, view, _, _ = make_gsu()
        mask = Mask(bits, 4)
        _, values = gsu.gather(0, Instr.vgather(view.base, indices, mask), 0)
        for lane in range(4):
            expected = indices[lane] if mask.lane(lane) else 0
            assert values[lane] == expected

    @settings(**COMMON)
    @given(indices=indices4)
    def test_wider_mask_never_completes_earlier(self, indices):
        gsu_a, view_a, _, _ = make_gsu()
        gsu_b, view_b, _, _ = make_gsu()
        narrow = Mask(0b0001, 4)
        wide = Mask(0b1111, 4)
        # warm both
        gsu_a.gather(0, Instr.vgather(view_a.base, indices, wide), 0)
        gsu_b.gather(0, Instr.vgather(view_b.base, indices, wide), 0)
        done_narrow, _ = gsu_a.gather(
            0, Instr.vgather(view_a.base, indices, narrow), 1000
        )
        done_wide, _ = gsu_b.gather(
            0, Instr.vgather(view_b.base, indices, wide), 1000
        )
        assert done_wide >= done_narrow


class TestScatterProperties:
    @settings(**COMMON)
    @given(indices=indices4, bits=st.integers(1, 15))
    def test_linked_roundtrip_updates_exactly_active_lanes(
        self, indices, bits
    ):
        gsu, view, _, stats = make_gsu()
        mask = Mask(bits, 4)
        before = {i: view[i] for i in set(indices)}
        _, (values, got) = gsu.gather(
            0, Instr.vgatherlink(view.base, indices, mask), 0
        )
        newvals = tuple(v + 100 for v in values)
        _, ok = gsu.scatter(
            0, Instr.vscattercond(view.base, indices, newvals, got), 10
        )
        # Exactly one winner per distinct word among active lanes.
        winners_by_word = {}
        for lane in ok.active_lanes():
            word = indices[lane]
            assert word not in winners_by_word
            winners_by_word[word] = lane
        # Each written word got exactly +100 over its original value.
        for word, lane in winners_by_word.items():
            assert view[word] == before[word] + 100

    @settings(**COMMON)
    @given(indices=indices4)
    def test_combining_only_reduces_accesses(self, indices):
        gsu_on, view_on, _, stats_on = make_gsu()
        gsu_off, view_off, _, stats_off = make_gsu(gsu_combine_lines=False)
        mask = Mask.all_ones(4)
        gsu_on.gather(0, Instr.vgather(view_on.base, indices, mask), 0)
        gsu_off.gather(0, Instr.vgather(view_off.base, indices, mask), 0)
        assert stats_on.l1_accesses <= stats_off.l1_accesses
