"""Pluggable coherence protocol policies: MSI, MESI, MOESI.

:class:`~repro.mem.coherence.CoherenceSystem` owns the *mechanism* of
the memory hierarchy — the L1s, the banked L2 + directory, DRAM, the
reservation structures, and the bookkeeping every protocol shares
(install/evict/invalidate, reservation kills, back-invalidation).
The *policy* — what a read miss, a write miss, an upgrade, or a
prefetch fill do to coherence state, and what traffic they cost —
lives here, behind the message vocabulary of
:mod:`repro.mem.messages`.

Three policies register out of the box:

``msi``
    The reference protocol the paper's numbers were captured under.
    The default configuration stays *bitwise identical* to the goldens
    (cycle counts and stats digests), which
    ``tests/bench/test_equivalence.py`` gates.

``mesi``
    Adds the E state: a read miss that finds no other L1 holder
    installs clean-exclusive, and the later write upgrades E -> M
    *silently* — no Upgrade message, no directory round-trip, an L1-hit
    latency instead of an L2 one.  The saved messages are tallied as
    ``silent_upgrade``.

``moesi``
    Adds the O state on top of MESI: when a remote reader hits a
    modified line, the owner forwards the data and keeps it dirty
    (M -> O) instead of writing back to the L2; the requester is added
    as a sharer *alongside* the owner, and the writeback is deferred to
    the O line's eviction or invalidation.

Adding a protocol is: subclass one of the concrete policies, override
the fill/forward/write-hit hooks it changes, declare
``name``/``dirty_states``/``TRANSITIONS``, and decorate with
:func:`register_protocol`.  Select it via ``MachineConfig.protocol``
(CLI ``--protocol``).  The invariant checks need no override: the
directory owner rule lives in :meth:`DirectoryEntry.check`, and
:meth:`CoherenceProtocol.check_entry` / :meth:`expected_l1_states`
read the owner's states and the O-state relaxation off ``TRANSITIONS``.

Every policy keeps an always-on per-kind message tally in
:attr:`CoherenceProtocol.counts` (plain ints — cheap enough for
unobserved runs) and, when a sink subscribes to the ``protocol`` event
category, emits the actual message dataclasses on the bus.
"""

from __future__ import annotations

import weakref
from typing import Dict, NamedTuple, Optional, Tuple, Type

from repro.errors import ConfigError, SimulationError
from repro.mem.cache import MESI_E, MOESI_O, MSI_M, MSI_S, STATE_NAMES
from repro.mem.directory import DirectoryEntry, cores_in
from repro.mem.messages import (
    Ack,
    Fwd,
    GetM,
    GetS,
    MSG_KINDS,
    SilentUpgrade,
    Upgrade,
)
from repro.obs.events import CacheHit, CacheMiss, Writeback

__all__ = [
    "AccessResult",
    "LEVEL_L1",
    "LEVEL_L2",
    "LEVEL_REMOTE",
    "LEVEL_MEM",
    "DEFAULT_PROTOCOL",
    "CoherenceProtocol",
    "MsiProtocol",
    "MesiProtocol",
    "MoesiProtocol",
    "register_protocol",
    "protocol_names",
    "make_protocol",
]

#: Deepest level a transaction reached (for tests and debugging).
LEVEL_L1 = "L1"
LEVEL_L2 = "L2"
LEVEL_REMOTE = "REMOTE"
LEVEL_MEM = "MEM"


class AccessResult(NamedTuple):
    """Outcome of one coherence transaction."""

    latency: int
    level: str


DEFAULT_PROTOCOL = "msi"

#: name -> policy class, in registration order (msi, mesi, moesi).
_REGISTRY: Dict[str, Type["CoherenceProtocol"]] = {}


def register_protocol(cls: Type["CoherenceProtocol"]):
    """Class decorator: make ``cls`` selectable by its ``name``."""
    name = cls.name
    if not name or name == "?":
        raise ConfigError(f"protocol class {cls.__name__} has no name")
    if name in _REGISTRY:
        raise ConfigError(f"duplicate coherence protocol {name!r}")
    _REGISTRY[name] = cls
    return cls


def protocol_names() -> Tuple[str, ...]:
    """The registered protocol names, in registration order."""
    return tuple(_REGISTRY)


def make_protocol(name: str, host) -> "CoherenceProtocol":
    """Instantiate the policy ``name`` bound to ``host``."""
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ConfigError(
            f"unknown coherence protocol {name!r}; "
            f"expected one of {protocol_names()}"
        )
    return cls(host)


class CoherenceProtocol:
    """Policy half of the coherence seam.

    This base class implements the three transaction entry points the
    :class:`~repro.mem.coherence.CoherenceSystem` delegates to —
    :meth:`read_miss` (GetS), :meth:`obtain_modified` (GetM /
    Upgrade / silent upgrade), :meth:`prefetch_fill` — and the
    invariant checks (:meth:`expected_l1_states`, :meth:`check_entry`).
    Concrete policies declare :attr:`dirty_states` and a
    :attr:`TRANSITIONS` table of legal L1 state edges, from which the
    invariant checks are derived, and differentiate through the
    fill/forward/write-hit hooks.
    """

    #: Registry key; subclasses must override.
    name = "?"
    #: L1 states whose departure writes data back (M, plus O in MOESI).
    dirty_states = frozenset((MSI_M,))
    #: Legal (from, to) L1 state edges by name; "I" means not resident.
    TRANSITIONS: frozenset = frozenset()

    def __init__(self, host) -> None:
        # ``host`` (the CoherenceSystem) owns this policy, so the
        # back-reference is weak: the pair forms no reference cycle,
        # and a finished machine's caches and directory are freed by
        # reference counting even while the cyclic GC is paused.  A
        # policy built without a host still checks invariants.
        self.host = weakref.ref(host) if host is not None else None
        #: Always-on per-kind message tally (see MSG_KINDS).
        self.counts: Dict[str, int] = {kind: 0 for kind in MSG_KINDS}

    # -- declarative state machine ---------------------------------------

    @classmethod
    def legal_transition(cls, source: str, dest: str) -> bool:
        """Whether the L1 edge ``source`` -> ``dest`` can occur."""
        return (source, dest) in cls.TRANSITIONS

    @classmethod
    def states(cls) -> Tuple[str, ...]:
        """Every state the protocol's transition table mentions."""
        seen = {"I"}
        for source, dest in cls.TRANSITIONS:
            seen.add(source)
            seen.add(dest)
        return tuple(sorted(seen))

    # -- policy hooks ------------------------------------------------------

    def _fill_state_for_read(self, entry, core: int) -> int:
        """L1 state a read fill installs (after any owner forward)."""
        raise NotImplementedError

    def _grant_read(self, entry, core: int, state: int) -> None:
        """Record the read fill in the directory."""
        raise NotImplementedError

    def _forward_for_read(self, entry, core: int, line_addr: int,
                          now: int) -> None:
        """A remote owner holds the line a reader wants: forward it.

        Performs the owner-side state change, any writeback
        accounting, and the directory update; the caller charges the
        ``remote_l1_latency`` hop (demand misses) or ignores it
        (prefetch fills).
        """
        raise NotImplementedError

    def _write_hit(self, core: int, slot: int, line_addr: int, line,
                   now: int) -> AccessResult:
        """Obtain M for a line already resident in the writer's L1."""
        raise NotImplementedError

    # -- transactions ------------------------------------------------------

    def _fetch_l2(
        self, core: int, slot: int, line_addr: int, now: int
    ) -> Tuple[DirectoryEntry, bool, int]:
        """Bring ``line_addr`` into the inclusive L2 for ``core``'s fill.

        Back-invalidates the L2 victim's L1 copies (attributed to
        ``core``/``slot``; ``slot`` is -1 for a prefetch) and, on an L2
        miss, reads DRAM.  Returns ``(entry, l2_hit, dram_latency)``;
        ``dram_latency`` is 0 on a hit.
        """
        host = self.host()
        stats = host.stats
        entry, l2_hit, l2_victim = host.l2.fetch(line_addr, now)
        stats.l2_accesses += 1
        if l2_victim is not None:
            host._back_invalidate(l2_victim, now, core, slot)
        dram_latency = 0
        if not l2_hit:
            stats.l2_misses += 1
            dram_latency = host.dram.access()
            stats.mem_accesses += 1
        return entry, l2_hit, dram_latency

    def read_miss(
        self, core: int, slot: int, line_addr: int, now: int, victim_ok
    ) -> Optional[AccessResult]:
        """Service a GetS; returns None if the install was refused."""
        host = self.host()
        cfg = host.config
        obs = host.obs
        wants_cache = obs is not None and obs.wants_cache
        wants_protocol = obs is not None and obs.wants_protocol
        host.stats.l1_misses += 1
        self.counts["GetS"] += 1
        if wants_cache:
            obs.emit(CacheMiss(now, core, slot, line_addr, "L1", "read"))
        latency = cfg.l1_hit_latency + cfg.l2_latency
        wait = host._book_l2_bank(line_addr, now)
        latency += wait
        level = LEVEL_L2
        if wants_protocol:
            obs.emit(GetS(now, core, slot, line_addr, wait))
        entry, l2_hit, dram_latency = self._fetch_l2(
            core, slot, line_addr, now
        )
        if not l2_hit:
            latency += dram_latency
            level = LEVEL_MEM
        if wants_cache:
            obs.emit(
                CacheMiss(now, core, slot, line_addr, "L2", "read")
                if not l2_hit
                else CacheHit(now, core, slot, line_addr, "L2", "read")
            )
        if entry.owner is not None and entry.owner != core:
            self._forward_for_read(entry, core, line_addr, now)
            latency += cfg.remote_l1_latency
            if level != LEVEL_MEM:
                level = LEVEL_REMOTE
        state = self._fill_state_for_read(entry, core)
        installed = host._install_l1(core, line_addr, state, now, victim_ok,
                                     attacker_slot=slot)
        self.counts["Ack"] += 1
        if not installed:
            if wants_protocol:
                obs.emit(Ack(now, core, line_addr, latency, level, None))
            return None
        self._grant_read(entry, core, state)
        if wants_protocol:
            obs.emit(Ack(now, core, line_addr, latency, level, state))
        return AccessResult(latency, level)

    def obtain_modified(
        self, core: int, slot: int, line_addr: int, now: int
    ) -> AccessResult:
        """Bring ``line_addr`` to M state in ``core``'s L1.

        The already-M outcome (repeated stores to the same line) is by
        far the hottest and means the same thing in every registered
        protocol — exclusive dirty, nothing to do — so it is resolved
        here without the ``_write_hit`` hook call.  A protocol whose M
        state is not "already exclusive dirty" must override this.
        """
        host = self.host()
        line = host._l1_lookups[core](line_addr)
        if line is not None:
            if line.state == MSI_M:
                line.last_use = now
                host.stats.l1_hits += 1
                obs = host.obs
                if obs is not None and obs.wants_cache:
                    obs.emit(CacheHit(now, core, slot, line_addr, "L1",
                                      "write"))
                return host._hit_l1
            return self._write_hit(core, slot, line_addr, line, now)
        return self._write_miss(core, slot, line_addr, now)

    def _upgrade(
        self, core: int, slot: int, line_addr: int, line, now: int
    ) -> AccessResult:
        """Directory upgrade (S -> M, or O -> M) for a resident line.

        Not counted as an L1 hit or miss by the stats, so no L1
        hit/miss event is emitted either.
        """
        host = self.host()
        cfg = host.config
        obs = host.obs
        self.counts["Upgrade"] += 1
        latency = cfg.l1_hit_latency + cfg.l2_latency
        wait = host._book_l2_bank(line_addr, now)
        latency += wait
        level = LEVEL_L2
        host.stats.l2_accesses += 1
        if obs is not None and obs.wants_protocol:
            obs.emit(Upgrade(now, core, slot, line_addr, wait))
        entry = host.l2.lookup(line_addr)
        if entry is None:
            raise SimulationError(
                f"L1 of core {core} holds {line_addr:#x} but the "
                f"inclusive L2 does not"
            )
        others = entry.sharers & ~(1 << core)
        if others:
            latency += cfg.remote_l1_latency
            level = LEVEL_REMOTE
            for other in cores_in(others):
                host._invalidate_l1(other, line_addr, "remote_write", now,
                                    core, slot)
        entry.set_owner(core)
        entry.last_use = now
        line.state = MSI_M
        line.last_use = now
        self.counts["Ack"] += 1
        if obs is not None and obs.wants_protocol:
            obs.emit(Ack(now, core, line_addr, latency, level, MSI_M))
        return AccessResult(latency, level)

    def _write_miss(
        self, core: int, slot: int, line_addr: int, now: int
    ) -> AccessResult:
        """Service a GetM (write miss: read-for-ownership)."""
        host = self.host()
        cfg = host.config
        obs = host.obs
        wants_cache = obs is not None and obs.wants_cache
        wants_protocol = obs is not None and obs.wants_protocol
        host.stats.l1_misses += 1
        self.counts["GetM"] += 1
        if wants_cache:
            obs.emit(CacheMiss(now, core, slot, line_addr, "L1", "write"))
        host._train_prefetcher(core, slot, line_addr, now)
        latency = cfg.l1_hit_latency + cfg.l2_latency
        wait = host._book_l2_bank(line_addr, now)
        latency += wait
        level = LEVEL_L2
        if wants_protocol:
            obs.emit(GetM(now, core, slot, line_addr, wait))
        entry, l2_hit, dram_latency = self._fetch_l2(
            core, slot, line_addr, now
        )
        if not l2_hit:
            latency += dram_latency
            level = LEVEL_MEM
        if wants_cache:
            obs.emit(
                CacheMiss(now, core, slot, line_addr, "L2", "write")
                if not l2_hit
                else CacheHit(now, core, slot, line_addr, "L2", "write")
            )
        others = entry.sharers & ~(1 << core)
        if others:
            latency += cfg.remote_l1_latency
            if level != LEVEL_MEM:
                level = LEVEL_REMOTE
            for other in cores_in(others):
                host._invalidate_l1(other, line_addr, "remote_write", now,
                                    core, slot)
        if not host._install_l1(core, line_addr, MSI_M, now, victim_ok=None,
                                attacker_slot=slot):
            raise SimulationError("unfiltered L1 install refused")
        entry.set_owner(core)
        self.counts["Ack"] += 1
        if wants_protocol:
            obs.emit(Ack(now, core, line_addr, latency, level, MSI_M))
        return AccessResult(latency, level)

    def prefetch_fill(self, core: int, line_addr: int, now: int) -> None:
        """Install a prefetched line with no thread-visible latency."""
        host = self.host()
        obs = host.obs
        entry, _, _ = self._fetch_l2(core, -1, line_addr, now)
        if entry.owner is not None and entry.owner != core:
            self._forward_for_read(entry, core, line_addr, now)
        self.counts["GetS"] += 1
        if obs is not None and obs.wants_protocol:
            obs.emit(GetS(now, core, -1, line_addr, 0))
        state = self._fill_state_for_read(entry, core)
        if host._install_l1(
            core,
            line_addr,
            state,
            now,
            victim_ok=host._victim_filter(core),
            prefetched=True,
        ):
            self._grant_read(entry, core, state)

    # -- invariants --------------------------------------------------------

    def expected_l1_states(self, entry, core: int) -> Tuple[int, ...]:
        """L1 states the directory entry permits ``core`` to hold.

        A sharer that is not the owner holds S; the owner holds any
        other resident state of :attr:`TRANSITIONS` (one with an edge
        to I): M, plus E under MESI, plus O under MOESI.
        """
        if entry.owner != core:
            return (MSI_S,)
        transitions = self.TRANSITIONS
        return tuple(
            state for state, name in STATE_NAMES.items()
            if state != MSI_S and (name, "I") in transitions
        )

    def check_entry(self, entry) -> None:
        """The directory owner rule, relaxed if the protocol has O."""
        entry.check(shared_owner_ok=("O", "I") in self.TRANSITIONS)


@register_protocol
class MsiProtocol(CoherenceProtocol):
    """The paper's baseline directory MSI protocol.

    Every stat increment, directory mutation, and latency term happens
    in the order the goldens were captured in, so default-``msi`` runs
    stay bitwise identical to them.  MESI reuses its forward: an MSI
    owner is always in M, so "write back only if the owner's line is
    M" is MSI's unconditional writeback.
    """

    name = "msi"
    dirty_states = frozenset((MSI_M,))
    TRANSITIONS = frozenset((
        ("I", "S"),   # GetS fill
        ("I", "M"),   # GetM fill
        ("S", "M"),   # Upgrade
        ("M", "S"),   # Fwd: remote read downgrades the owner
        ("S", "I"),   # Inv / eviction
        ("M", "I"),   # Inv / eviction (with writeback)
    ))

    def _fill_state_for_read(self, entry, core: int) -> int:
        return MSI_S

    def _grant_read(self, entry, core: int, state: int) -> None:
        entry.add_sharer(core)

    def _forward_for_read(self, entry, core: int, line_addr: int,
                          now: int) -> None:
        # Forward + downgrade the owner to S, writing the data back to
        # the L2 if it is dirty (M; a MESI E owner is clean).
        # Reservations survive a remote *read*; only writes kill them.
        host = self.host()
        obs = host.obs
        owner = entry.owner
        line = host.l1s[owner].lookup(line_addr)
        if line is None:
            raise SimulationError(
                f"directory says core {owner} owns {line_addr:#x} "
                f"but its L1 does not hold it"
            )
        writeback = line.state == MSI_M
        if writeback:
            host.stats.writebacks += 1
            if obs is not None and obs.wants_coherence:
                obs.emit(Writeback(now, owner, line_addr, "downgrade"))
        line.state = MSI_S
        entry.clear_owner()
        self.counts["Fwd"] += 1
        if obs is not None and obs.wants_protocol:
            obs.emit(Fwd(now, owner, line_addr, writeback))

    def _write_hit(self, core: int, slot: int, line_addr: int, line,
                   now: int) -> AccessResult:
        # S -> M; obtain_modified has already resolved an M line.
        return self._upgrade(core, slot, line_addr, line, now)


@register_protocol
class MesiProtocol(MsiProtocol):
    """MESI: clean-exclusive fills, silent E -> M upgrades.

    The E state is represented in the directory as an owner (sole
    copy); whether the owner's data is clean or dirty is read off the
    owner's actual L1 line state when a forward is needed.
    """

    name = "mesi"
    TRANSITIONS = MsiProtocol.TRANSITIONS | frozenset((
        ("I", "E"),   # GetS fill with no other holder
        ("E", "M"),   # silent upgrade — no directory traffic
        ("E", "S"),   # Fwd: remote read, clean downgrade (no writeback)
        ("E", "I"),   # Inv / eviction (clean, no writeback)
    ))

    def _fill_state_for_read(self, entry, core: int) -> int:
        return MSI_S if entry.sharers else MESI_E

    def _grant_read(self, entry, core: int, state: int) -> None:
        if state == MESI_E:
            entry.set_owner(core)
        else:
            entry.add_sharer(core)

    def _write_hit(self, core: int, slot: int, line_addr: int, line,
                   now: int) -> AccessResult:
        if line.state == MESI_E:
            # The whole point of MESI: sole clean copy goes M with no
            # directory round-trip; the directory already records this
            # core as owner, so nothing moves.  Costs an L1 hit.
            host = self.host()
            obs = host.obs
            line.state = MSI_M
            line.last_use = now
            host.stats.l1_hits += 1
            self.counts["silent_upgrade"] += 1
            if obs is not None:
                if obs.wants_cache:
                    obs.emit(CacheHit(now, core, slot, line_addr, "L1",
                                      "write"))
                if obs.wants_protocol:
                    obs.emit(SilentUpgrade(now, core, slot, line_addr))
            return host._hit_l1
        return self._upgrade(core, slot, line_addr, line, now)


@register_protocol
class MoesiProtocol(MesiProtocol):
    """MOESI: owner-forwarding — a remote read leaves the owner dirty.

    M -> O on a forward; the requester joins the sharer set while the
    owner stays recorded, and the L2 writeback is deferred until the O
    line itself is evicted or invalidated (``dirty_states`` includes
    O, so the shared retire/invalidate paths account it).
    """

    name = "moesi"
    dirty_states = frozenset((MSI_M, MOESI_O))
    TRANSITIONS = (
        MesiProtocol.TRANSITIONS - frozenset((("M", "S"),))
    ) | frozenset((
        ("M", "O"),   # Fwd: owner keeps the dirty data
        ("O", "M"),   # Upgrade: owner reclaims exclusivity
        ("O", "I"),   # Inv / eviction (deferred writeback happens now)
    ))

    def _forward_for_read(self, entry, core: int, line_addr: int,
                          now: int) -> None:
        host = self.host()
        obs = host.obs
        owner = entry.owner
        line = host.l1s[owner].lookup(line_addr)
        if line is None:
            raise SimulationError(
                f"directory says core {owner} owns {line_addr:#x} "
                f"but its L1 does not hold it"
            )
        if line.state == MESI_E:
            # Clean exclusive: plain downgrade, ownership dissolves.
            line.state = MSI_S
            entry.clear_owner()
        else:
            # M or O: the owner keeps the dirty data and stays owner;
            # no L2 writeback now (that is MOESI's point).
            line.state = MOESI_O
        self.counts["Fwd"] += 1
        if obs is not None and obs.wants_protocol:
            obs.emit(Fwd(now, owner, line_addr, False))

    def _grant_read(self, entry, core: int, state: int) -> None:
        if state == MESI_E:
            entry.set_owner(core)
        else:
            entry.add_sharer(core, shared_owner_ok=True)
