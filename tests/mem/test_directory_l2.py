"""Unit tests for directory entries and the inclusive L2."""

import pytest

from repro.errors import SimulationError
from repro.mem.cache import MESI_E, MOESI_O, MSI_M, MSI_S
from repro.mem.directory import DirectoryEntry, cores_in
from repro.mem.l2 import L2Cache
from repro.mem.layout import LineGeometry
from repro.mem.protocol import make_protocol


class TestDirectoryEntry:
    def test_sharers(self):
        e = DirectoryEntry(0, now=0)
        e.add_sharer(1)
        e.add_sharer(2)
        assert e.sharers == 0b110 and e.owner is None

    def test_owner_is_sole_sharer(self):
        e = DirectoryEntry(0, now=0)
        e.add_sharer(1)
        e.set_owner(3)
        assert e.owner == 3 and e.sharers == 0b1000

    def test_add_sharer_while_owned_by_other_rejected(self):
        e = DirectoryEntry(0, now=0)
        e.set_owner(1)
        with pytest.raises(SimulationError):
            e.add_sharer(2)

    def test_clear_owner_keeps_sharer(self):
        e = DirectoryEntry(0, now=0)
        e.set_owner(1)
        e.clear_owner()
        assert e.owner is None and e.sharers == 0b10

    def test_drop(self):
        e = DirectoryEntry(0, now=0)
        e.set_owner(1)
        e.drop(1)
        assert e.owner is None and e.sharers == 0

    def test_check_detects_inconsistency(self):
        for protocol in ("msi", "mesi", "moesi"):
            check_entry = make_protocol(protocol, host=None).check_entry
            e = DirectoryEntry(0, now=0)
            e.sharers = 0b110       # cores 1 and 2
            e.owner = 3             # owner's bit clear: wrong everywhere
            with pytest.raises(SimulationError):
                check_entry(e)
            e.owner = 1             # owner plus a foreign sharer: O only
            if protocol == "moesi":
                check_entry(e)
            else:
                with pytest.raises(SimulationError):
                    check_entry(e)
            e.sharers = 0b10        # sole owner: right everywhere
            check_entry(e)

    @pytest.mark.parametrize("protocol, owner_states", [
        ("msi", (MSI_M,)),
        ("mesi", (MSI_M, MESI_E)),
        ("moesi", (MSI_M, MESI_E, MOESI_O)),
    ])
    def test_expected_l1_states(self, protocol, owner_states):
        policy = make_protocol(protocol, host=None)
        e = DirectoryEntry(0, now=0)
        e.set_owner(1)
        assert policy.expected_l1_states(e, 1) == owner_states
        e.clear_owner()
        assert policy.expected_l1_states(e, 1) == (MSI_S,)
        assert policy.expected_l1_states(e, 2) == (MSI_S,)

    def test_cores_in_ascends(self):
        assert list(cores_in(0)) == []
        assert list(cores_in(0b1011_0001)) == [0, 4, 5, 7]
        assert list(cores_in(1 << 40)) == [40]


@pytest.fixture
def l2():
    # 2 sets x 2 ways: lines 0, 128, 256... map to set 0.
    return L2Cache(n_sets=2, assoc=2, n_banks=2, geometry=LineGeometry(64))


def set0_line(k):
    return k * 2 * 64


class TestL2:
    def test_fetch_miss_then_hit(self, l2):
        entry, hit, victim = l2.fetch(0, now=1)
        assert not hit and victim is None and entry.line_addr == 0
        entry2, hit2, _ = l2.fetch(0, now=2)
        assert hit2 and entry2 is entry

    def test_lru_victim_on_overflow(self, l2):
        l2.fetch(set0_line(0), now=1)
        l2.fetch(set0_line(1), now=2)
        l2.fetch(set0_line(0), now=3)  # refresh
        _, _, victim = l2.fetch(set0_line(2), now=4)
        assert victim is not None and victim.line_addr == set0_line(1)

    def test_victim_carries_directory_state(self, l2):
        entry, _, _ = l2.fetch(set0_line(0), now=1)
        entry.add_sharer(0)
        l2.fetch(set0_line(1), now=2)
        _, _, victim = l2.fetch(set0_line(2), now=3)
        assert victim.sharers == 0b1

    def test_bank_of(self, l2):
        assert l2.bank_of(0) == 0
        assert l2.bank_of(64) == 1

    def test_occupancy_and_entries(self, l2):
        l2.fetch(0, now=1)
        l2.fetch(64, now=1)
        assert l2.occupancy() == 2
        assert {e.line_addr for e in l2.entries()} == {0, 64}
