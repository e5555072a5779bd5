"""Protocol-policy tests: registry, transition tables, MESI/MOESI.

The MSI policy's behaviour is pinned bitwise by the golden-equivalence
harness (``tests/bench/test_equivalence.py``) and exercised in detail
by ``test_coherence.py``; this module covers what the seam *adds* —
the registry, the declarative state machines, the E and O states, the
silent-upgrade traffic savings, and the reservation-kill semantics
under every protocol.
"""

import pytest

from repro.errors import ConfigError
from repro.mem.cache import MESI_E, MOESI_O, MSI_M, MSI_S
from repro.mem.coherence import (
    CoherenceSystem,
    LEVEL_L1,
    LEVEL_REMOTE,
)
from repro.mem.protocol import (
    CoherenceProtocol,
    DEFAULT_PROTOCOL,
    MesiProtocol,
    MoesiProtocol,
    MsiProtocol,
    make_protocol,
    protocol_names,
    register_protocol,
)
from repro.obs import EventBus, MetricsSink
from repro.sim.config import MachineConfig
from repro.sim.stats import MachineStats

PROTOCOLS = ("msi", "mesi", "moesi")

ADDR = 0x1000


def make_system(protocol, obs=None, **overrides):
    defaults = dict(
        n_cores=2,
        threads_per_core=2,
        prefetch_enabled=False,
        protocol=protocol,
    )
    defaults.update(overrides)
    config = MachineConfig(**defaults)
    stats = MachineStats()
    return CoherenceSystem(config, stats, obs=obs), config, stats


def line_of(sys_, core, addr=ADDR):
    return sys_.l1s[core].lookup(sys_.geometry.line_addr(addr))


def entry_of(sys_, addr=ADDR):
    return sys_.l2.lookup(sys_.geometry.line_addr(addr))


class TestRegistry:
    def test_builtin_names_in_registration_order(self):
        assert protocol_names() == ("msi", "mesi", "moesi")
        assert DEFAULT_PROTOCOL == "msi"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigError):
            make_protocol("mosi", host=None)
        with pytest.raises(ConfigError):
            MachineConfig(protocol="mosi")

    def test_duplicate_registration_rejected(self):
        class Clone(MsiProtocol):
            name = "msi"

        with pytest.raises(ConfigError):
            register_protocol(Clone)

    def test_unnamed_protocol_rejected(self):
        class Nameless(CoherenceProtocol):
            pass

        with pytest.raises(ConfigError):
            register_protocol(Nameless)

    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_config_selects_policy(self, name):
        sys_, _, _ = make_system(name)
        assert sys_.protocol.name == name


class TestTransitionTables:
    def test_msi_table(self):
        assert MsiProtocol.states() == ("I", "M", "S")
        for edge in (("I", "S"), ("I", "M"), ("S", "M"), ("M", "S"),
                     ("S", "I"), ("M", "I")):
            assert MsiProtocol.legal_transition(*edge)
        # MSI has no E: neither fills to it nor leaves it.
        assert not MsiProtocol.legal_transition("I", "E")
        assert not MsiProtocol.legal_transition("E", "M")
        # No spontaneous un-invalidation or self-loops.
        assert not MsiProtocol.legal_transition("I", "I")
        assert not MsiProtocol.legal_transition("S", "S")

    def test_mesi_extends_msi(self):
        assert MesiProtocol.TRANSITIONS > MsiProtocol.TRANSITIONS
        assert MesiProtocol.states() == ("E", "I", "M", "S")
        for edge in (("I", "E"), ("E", "M"), ("E", "S"), ("E", "I")):
            assert MesiProtocol.legal_transition(*edge)
        assert not MesiProtocol.legal_transition("S", "E")
        assert not MesiProtocol.legal_transition("M", "E")

    def test_moesi_owner_state(self):
        assert MoesiProtocol.states() == ("E", "I", "M", "O", "S")
        for edge in (("M", "O"), ("O", "M"), ("O", "I")):
            assert MoesiProtocol.legal_transition(*edge)
        # A remote read moves M to O (owner keeps the data), never
        # straight to S as in MSI/MESI.
        assert not MoesiProtocol.legal_transition("M", "S")
        # O never silently becomes S or E.
        assert not MoesiProtocol.legal_transition("O", "S")
        assert not MoesiProtocol.legal_transition("O", "E")

    def test_dirty_states_follow_protocol(self):
        assert MsiProtocol.dirty_states == {MSI_M}
        assert MesiProtocol.dirty_states == {MSI_M}
        assert MoesiProtocol.dirty_states == {MSI_M, MOESI_O}


class TestMesiBehaviour:
    def test_sole_reader_fills_exclusive(self):
        sys_, _, _ = make_system("mesi")
        sys_.read(0, 0, ADDR, now=0)
        assert line_of(sys_, 0).state == MESI_E
        assert entry_of(sys_).owner == 0
        sys_.check_invariants()

    def test_second_reader_demotes_to_shared_without_writeback(self):
        sys_, _, stats = make_system("mesi")
        sys_.read(0, 0, ADDR, now=0)
        sys_.read(1, 0, ADDR, now=10)
        assert line_of(sys_, 0).state == MSI_S
        assert line_of(sys_, 1).state == MSI_S
        entry = entry_of(sys_)
        assert entry.owner is None and entry.sharers == 0b11
        # The forwarded line was clean: no writeback, unlike MSI's
        # unconditional one.
        assert stats.writebacks == 0
        assert sys_.protocol.counts["Fwd"] == 1
        sys_.check_invariants()

    def test_silent_upgrade_is_an_l1_hit(self):
        sys_, _, stats = make_system("mesi")
        sys_.read(0, 0, ADDR, now=0)
        access = sys_.write(0, 0, ADDR, now=1)
        assert access.level == LEVEL_L1
        assert line_of(sys_, 0).state == MSI_M
        counts = sys_.protocol.counts
        assert counts["silent_upgrade"] == 1
        assert counts["Upgrade"] == 0
        assert stats.l1_hits == 1
        sys_.check_invariants()

    def test_shared_write_still_pays_directory_upgrade(self):
        sys_, _, _ = make_system("mesi")
        sys_.read(0, 0, ADDR, now=0)
        sys_.read(1, 0, ADDR, now=10)
        access = sys_.write(0, 0, ADDR, now=20)
        assert access.level == LEVEL_REMOTE
        assert sys_.protocol.counts["Upgrade"] == 1
        assert line_of(sys_, 1) is None
        sys_.check_invariants()

    def test_dirty_forward_still_writes_back(self):
        sys_, _, stats = make_system("mesi")
        sys_.write(0, 0, ADDR, now=0)
        access = sys_.read(1, 0, ADDR, now=10)
        assert access.level == LEVEL_REMOTE
        assert line_of(sys_, 0).state == MSI_S
        assert stats.writebacks == 1
        sys_.check_invariants()


class TestMoesiBehaviour:
    def test_remote_read_of_dirty_line_moves_owner_to_o(self):
        sys_, _, stats = make_system("moesi")
        sys_.write(0, 0, ADDR, now=0)
        access = sys_.read(1, 0, ADDR, now=10)
        assert access.level == LEVEL_REMOTE
        assert line_of(sys_, 0).state == MOESI_O
        assert line_of(sys_, 1).state == MSI_S
        entry = entry_of(sys_)
        # MOESI's point: the owner keeps the dirty data, the requester
        # joins the sharers, and nothing is written back yet.
        assert entry.owner == 0 and entry.sharers == 0b11
        assert stats.writebacks == 0
        sys_.check_invariants()

    def test_owner_reclaims_exclusivity_with_upgrade(self):
        sys_, _, _ = make_system("moesi")
        sys_.write(0, 0, ADDR, now=0)
        sys_.read(1, 0, ADDR, now=10)
        access = sys_.write(0, 0, ADDR, now=20)
        assert access.level == LEVEL_REMOTE
        assert line_of(sys_, 0).state == MSI_M
        assert line_of(sys_, 1) is None
        assert sys_.protocol.counts["Upgrade"] == 1
        sys_.check_invariants()

    def test_writeback_deferred_until_o_line_dies(self):
        sys_, _, stats = make_system("moesi")
        sys_.write(0, 0, ADDR, now=0)
        sys_.read(1, 0, ADDR, now=10)       # M -> O, no writeback yet
        assert stats.writebacks == 0
        sys_.write(1, 0, ADDR, now=20)      # invalidates the O copy
        assert stats.writebacks == 1        # the deferred one happens now
        assert line_of(sys_, 0) is None
        sys_.check_invariants()

    def test_clean_exclusive_forward_dissolves_ownership(self):
        sys_, _, stats = make_system("moesi")
        sys_.read(0, 0, ADDR, now=0)        # fills E (MESI inheritance)
        assert line_of(sys_, 0).state == MESI_E
        sys_.read(1, 0, ADDR, now=10)
        assert line_of(sys_, 0).state == MSI_S
        assert entry_of(sys_).owner is None
        assert stats.writebacks == 0
        sys_.check_invariants()


class TestReservationsAcrossProtocols:
    """GLSC links must die on Inv and survive read forwards — under
    every protocol, because the reservation-kill mechanism is shared.
    """

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_remote_write_kills_glsc_link(self, protocol):
        sys_, _, _ = make_system(protocol)
        _, linked, _ = sys_.read_linked(0, 0, ADDR, now=0)
        assert linked
        sys_.write(1, 0, ADDR, now=10)
        sys_.check_invariants()
        _, ok, cause = sys_.write_conditional(0, 0, ADDR, now=20)
        assert not ok
        assert cause == "thread_conflict"

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_remote_read_forward_spares_glsc_link(self, protocol):
        sys_, _, _ = make_system(protocol)
        _, linked, _ = sys_.read_linked(0, 0, ADDR, now=0)
        assert linked
        sys_.read(1, 0, ADDR, now=10)       # forward, not an Inv
        sys_.check_invariants()
        _, ok, cause = sys_.write_conditional(0, 0, ADDR, now=20)
        assert ok and cause is None
        sys_.check_invariants()

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_scalar_reservation_killed_by_remote_write(self, protocol):
        sys_, _, _ = make_system(protocol)
        sys_.scalar_ll(0, 0, ADDR, now=0)
        sys_.write(1, 0, ADDR, now=10)
        assert not sys_.scalar_sc(0, 0, ADDR, now=20)[1]
        sys_.check_invariants()


class TestTrafficSavings:
    """MESI's acceptance criterion: read-then-write working sets cost
    one directory upgrade per line under MSI and zero under MESI.
    """

    def _read_modify_lines(self, protocol, lines=8):
        bus = EventBus()
        metrics = bus.attach(MetricsSink())
        sys_, cfg, _ = make_system(protocol, obs=bus)
        for i in range(lines):
            addr = ADDR + i * cfg.line_bytes
            sys_.read(0, 0, addr, now=i * 100)
            sys_.write(0, 0, addr, now=i * 100 + 50)
        sys_.check_invariants()
        return sys_.protocol.counts, metrics

    def test_mesi_eliminates_private_upgrades(self):
        msi, _ = self._read_modify_lines("msi")
        mesi, _ = self._read_modify_lines("mesi")
        assert msi["Upgrade"] == 8 and msi["silent_upgrade"] == 0
        assert mesi["Upgrade"] == 0 and mesi["silent_upgrade"] == 8
        # Same demand misses either way; the saving is pure traffic.
        assert msi["GetS"] == mesi["GetS"]

    def test_metrics_sink_mirrors_protocol_counts(self):
        counts, metrics = self._read_modify_lines("mesi")
        emitted = {kind: n for kind, n in counts.items() if n}
        assert dict(metrics.protocol_traffic) == emitted
        assert "protocol traffic:" in metrics.render()
        assert metrics.summary()["protocol_traffic"] == emitted
