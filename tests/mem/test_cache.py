"""Unit tests for the L1 cache model (tags, LRU, GLSC entries)."""

import pytest

from repro.errors import SimulationError
from repro.mem.cache import L1Cache, L1Line, MSI_M, MSI_S
from repro.mem.layout import LineGeometry


@pytest.fixture
def cache():
    # 4 sets x 2 ways, 64B lines: line addresses 0,256,512... share set 0.
    return L1Cache(core_id=0, n_sets=4, assoc=2, geometry=LineGeometry(64))


def set0_line(k):
    """The k-th distinct line address mapping to set 0."""
    return k * 4 * 64


class TestLookupInstall:
    def test_miss_then_hit(self, cache):
        assert cache.lookup(0) is None
        cache.install(0, MSI_S, now=1)
        line = cache.lookup(0)
        assert line is not None and line.state == MSI_S

    def test_double_install_rejected(self, cache):
        cache.install(0, MSI_S, now=1)
        with pytest.raises(SimulationError):
            cache.install(0, MSI_S, now=2)

    def test_no_eviction_returns_sentinel(self, cache):
        evicted = cache.install(0, MSI_S, now=1)
        assert evicted is not None and evicted.line_addr == -1

    def test_lru_eviction(self, cache):
        cache.install(set0_line(0), MSI_S, now=1)
        cache.install(set0_line(1), MSI_S, now=2)
        cache.touch(cache.lookup(set0_line(0)), now=3)
        evicted = cache.install(set0_line(2), MSI_S, now=4)
        assert evicted.line_addr == set0_line(1)
        assert cache.lookup(set0_line(0)) is not None
        assert cache.lookup(set0_line(1)) is None

    def test_victim_filter_protects_linked_lines(self, cache):
        cache.install(set0_line(0), MSI_S, now=1)
        cache.install(set0_line(1), MSI_S, now=2)
        cache.lookup(set0_line(0)).glsc_valid = True

        def not_linked(line):
            return not line.glsc_valid

        evicted = cache.install(set0_line(2), MSI_S, now=3, victim_ok=not_linked)
        assert evicted.line_addr == set0_line(1)

    def test_victim_filter_can_refuse_install(self, cache):
        cache.install(set0_line(0), MSI_S, now=1)
        cache.install(set0_line(1), MSI_S, now=2)
        for k in range(2):
            cache.lookup(set0_line(k)).glsc_valid = True

        refused = cache.install(
            set0_line(2), MSI_S, now=3, victim_ok=lambda l: not l.glsc_valid
        )
        assert refused is None
        assert cache.lookup(set0_line(2)) is None


class TestStateTransitions:
    def test_invalidate(self, cache):
        cache.install(0, MSI_M, now=1)
        line = cache.invalidate(0)
        assert line.state == MSI_M
        assert cache.lookup(0) is None
        assert cache.invalidate(0) is None


class TestGlscEntry:
    def test_clear_glsc(self):
        line = L1Line(0, MSI_S, now=0)
        line.glsc_valid = True
        line.glsc_tid = 2
        line.clear_glsc()
        assert not line.glsc_valid and line.glsc_tid == -1

    def test_repr_shows_glsc(self):
        line = L1Line(64, MSI_S, now=0)
        line.glsc_valid = True
        line.glsc_tid = 1
        assert "glsc=t1" in repr(line)


class TestOccupancy:
    def test_occupancy_and_resident_lines(self, cache):
        cache.install(0, MSI_S, now=1)
        cache.install(64, MSI_S, now=2)
        assert cache.occupancy() == 2
        addrs = {line.line_addr for line in cache.resident_lines()}
        assert addrs == {0, 64}

    def test_bad_geometry_rejected(self):
        with pytest.raises(SimulationError):
            L1Cache(0, 0, 2, LineGeometry(64))
