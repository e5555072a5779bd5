"""Directory-based coherence controller (mechanism half of the seam).

This is the glue of the memory hierarchy: it owns the per-core L1s,
the shared inclusive L2 (with directory state), main memory, the
scalar ll/sc reservation file, the GLSC reservation tracker, and the
stride prefetcher, and it implements the coherence *transactions* the
core-side units (LSU and GSU) invoke:

=====================  ====================================================
``read``               load a word; line ends S (or stays M) in the L1
``write``              store a word; line ends M; other copies invalidated;
                       every reservation on the line is destroyed
``read_linked``        the per-line half of ``vgatherlink``: a read that
                       additionally takes a GLSC reservation, subject to
                       the failure policies of Section 3.2
``write_conditional``  the per-line half of ``vscattercond``: a write that
                       only proceeds if the GLSC reservation is intact
``scalar_ll/scalar_sc``  the Base architecture's primitives (Section 2.3)
=====================  ====================================================

Latency model (Table 1): 3-cycle L1 hit; +12 to reach the L2
bank/directory; +12 for any remote-L1 forward or invalidation hop;
+280 for main memory.  Transactions are resolved synchronously — the
caller learns the total latency and schedules its thread's wakeup —
which preserves the *relative* timing behaviour (miss overlap happens
in the GSU, which issues many transactions whose latencies run
concurrently).

The *policy* side — what a miss or upgrade does to coherence state,
and which states exist — lives in :mod:`repro.mem.protocol` behind
the message vocabulary of :mod:`repro.mem.messages`; this class keeps
the mechanism every protocol shares (install/evict/invalidate,
reservation kills, bank occupancy, chaos injection) and delegates the
transactions to the policy selected by ``MachineConfig.protocol``.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.errors import AlignmentError, SimulationError
from repro.core.glsc import GlscTracker, make_tracker
from repro.mem.cache import L1Cache, L1Line
from repro.mem.messages import Inv, PutM, PutS
from repro.mem.protocol import (
    AccessResult,
    LEVEL_L1,
    LEVEL_L2,
    LEVEL_MEM,
    LEVEL_REMOTE,
    make_protocol,
)
from repro.obs.events import (
    CacheHit,
    CacheMiss,
    Eviction,
    Invalidation,
    ReservationLost,
    ReservationSet,
    Writeback,
)
from repro.mem.dram import MainMemory
from repro.mem.l2 import L2Cache
from repro.mem.prefetch import StridePrefetcher
from repro.mem.reservations import ReservationFile
from repro.sim.config import MachineConfig
from repro.sim.stats import MachineStats

__all__ = [
    "AccessResult",
    "CoherenceSystem",
    "LEVEL_L1",
    "LEVEL_L2",
    "LEVEL_MEM",
    "LEVEL_REMOTE",
]

#: Reservation-loss cause of each reason an L1 copy is invalidated.
_LOSS_CAUSE = {"remote_write": "thread_conflict", "l2_eviction": "eviction"}


class CoherenceSystem:
    """Owns all shared memory-system state and implements transactions."""

    def __init__(
        self, config: MachineConfig, stats: MachineStats, obs=None
    ) -> None:
        """``obs`` is an optional :class:`~repro.obs.bus.EventBus`;
        when absent (or when no sink wants a category) the
        corresponding emission sites reduce to one boolean test and
        allocate nothing.  Events mirror the stats counters exactly:
        every ``l1_misses``/``writebacks``/``invalidations_sent``
        increment has a matching typed event with the same
        attribution.
        """
        self.config = config
        self.stats = stats
        self.obs = obs
        self.geometry = config.geometry
        self.l1s: Dict[int, L1Cache] = {
            core: L1Cache(core, config.l1_sets, config.l1_assoc, self.geometry)
            for core in range(config.n_cores)
        }
        self.l2 = L2Cache(
            config.l2_sets, config.l2_assoc, config.l2_banks, self.geometry
        )
        self.dram = MainMemory(config.mem_latency)
        self.reservations = ReservationFile(self.geometry)
        self.glsc: GlscTracker = make_tracker(
            self.l1s, config.n_cores, config.glsc_buffer_entries
        )
        self.prefetcher = StridePrefetcher(
            config.line_bytes, config.prefetch_degree, config.prefetch_enabled
        )
        # Why the last valid GLSC reservation on (core, line) died; the
        # GSU pops this to attribute scatter-conditional failures.
        self._glsc_loss_cause: Dict[Tuple[int, int], str] = {}
        # Failure injection (best-effort model stress test): when
        # configured, reservations are spuriously destroyed at random —
        # legal per Section 3, so every client must still be correct.
        self._chaos_rng = (
            random.Random(config.chaos_seed)
            if config.chaos_reservation_loss > 0
            else None
        )
        self.chaos_events = 0
        # Per-bank occupancy clocks: concurrent transactions to the
        # same L2 bank queue behind each other (the reason the paper's
        # L2 is split into 16 banks).
        self._bank_free = [0] * config.l2_banks
        self._line_bytes = self.geometry.line_bytes
        # Hot-path accelerators: positional L1 access (the dict keys
        # are exactly 0..n_cores-1) and a shared immutable result for
        # the overwhelmingly common L1-hit outcome.
        self._l1_list = [self.l1s[core] for core in range(config.n_cores)]
        self._l1_lookups = [l1.lookup for l1 in self._l1_list]
        self._hit_l1 = AccessResult(config.l1_hit_latency, LEVEL_L1)
        # Policy half of the seam: the protocol owns the transaction
        # state machine; the bound-method aliases keep the miss paths
        # one call deep, exactly as the pre-seam private methods were.
        self.protocol = make_protocol(config.protocol, self)
        self._dirty_states = self.protocol.dirty_states
        self._read_miss = self.protocol.read_miss
        self._obtain_modified = self.protocol.obtain_modified
        self._prefetch_fill = self.protocol.prefetch_fill

    # ------------------------------------------------------------------
    # public transactions
    # ------------------------------------------------------------------

    def read(
        self,
        core: int,
        slot: int,
        addr: int,
        now: int,
        *,
        sync: bool = False,
    ) -> AccessResult:
        """Load transaction: line ends up S (or stays M) in ``core``'s L1."""
        if addr < 0:
            raise AlignmentError(f"negative address {addr:#x}")
        line_addr = addr - addr % self._line_bytes
        stats = self.stats
        stats.l1_accesses += 1
        if sync:
            stats.l1_sync_accesses += 1
        if self._chaos_rng is not None:
            self._maybe_inject_loss(now)
        line = self._l1_lookups[core](line_addr)
        if line is not None:
            if line.prefetched:
                stats.prefetch_hits += 1
                line.prefetched = False
            line.last_use = now
            stats.l1_hits += 1
            obs = self.obs
            if obs is not None and obs.wants_cache:
                obs.emit(CacheHit(now, core, slot, line_addr, "L1", "read"))
            return self._hit_l1
        result = self._read_miss(core, slot, line_addr, now, victim_ok=None)
        self._train_prefetcher(core, slot, line_addr, now)
        return result

    def write(
        self,
        core: int,
        slot: int,
        addr: int,
        now: int,
        *,
        sync: bool = False,
    ) -> AccessResult:
        """Store transaction: obtain M, invalidate other copies.

        Destroys every scalar reservation and GLSC entry on the line
        (a store-conditional's own reservation must be consumed by the
        caller *before* invoking this).
        """
        if addr < 0:
            raise AlignmentError(f"negative address {addr:#x}")
        line_addr = addr - addr % self._line_bytes
        stats = self.stats
        stats.l1_accesses += 1
        if sync:
            stats.l1_sync_accesses += 1
        if self._chaos_rng is not None:
            self._maybe_inject_loss(now)
        result = self._obtain_modified(core, slot, line_addr, now)
        self._kill_reservations_on_write(core, line_addr, now,
                                         attacker_slot=slot)
        return result

    def read_linked(
        self,
        core: int,
        slot: int,
        addr: int,
        now: int,
    ) -> Tuple[AccessResult, bool, Optional[str]]:
        """Per-line gather-link: read + take a GLSC reservation.

        Returns ``(access, linked, failure_cause)``.  Failure causes
        follow Section 3.2's design freedoms:

        * ``link_stolen`` — another SMT thread on this core already
          holds the line's GLSC entry (freedom (a));
        * ``eviction`` — filling the line would evict a linked line and
          ``glsc_fail_on_link_eviction`` protects it (freedom (b));
        * ``miss_policy`` — the lane missed in the L1 and
          ``glsc_fail_on_miss`` chose to fail it rather than wait
          (freedom (c)); the fill still happens so a retry will hit.
        """
        if addr < 0:
            raise AlignmentError(f"negative address {addr:#x}")
        line_addr = addr - addr % self._line_bytes
        self.stats.l1_accesses += 1
        self.stats.l1_sync_accesses += 1
        if self._chaos_rng is not None:
            self._maybe_inject_loss(now)
        cfg = self.config
        obs = self.obs
        line = self._l1_lookups[core](line_addr)
        if line is not None:
            holder = self.glsc.holder(core, line_addr)
            if holder is not None and holder != slot:
                return (
                    self._hit_l1,
                    False,
                    "link_stolen",
                )
            self._note_demand_hit(line)
            line.last_use = now
            self.stats.l1_hits += 1
            self.glsc.link(core, slot, line_addr)
            self._glsc_loss_cause.pop((core, line_addr), None)
            if obs is not None:
                if obs.wants_cache:
                    obs.emit(
                        CacheHit(now, core, slot, line_addr, "L1", "read")
                    )
                if obs.wants_reservation:
                    obs.emit(
                        ReservationSet(now, core, slot, line_addr, "glsc")
                    )
            return (self._hit_l1, True, None)

        if cfg.glsc_fail_on_miss:
            # Fail the lane fast but start the fill in the background,
            # so the retry iteration finds the line resident.
            self._read_miss(
                core, slot, line_addr, now,
                victim_ok=self._victim_filter(core),
            )
            self._train_prefetcher(core, slot, line_addr, now)
            return (
                self._hit_l1,
                False,
                "miss_policy",
            )

        victim_ok = (
            self._victim_filter(core) if cfg.glsc_fail_on_link_eviction else None
        )
        result = self._read_miss(core, slot, line_addr, now, victim_ok=victim_ok)
        self._train_prefetcher(core, slot, line_addr, now)
        if result is None:
            # No evictable way in the set: every candidate holds a live
            # GLSC reservation.  The element fails (best-effort).
            return (
                AccessResult(cfg.l1_hit_latency + cfg.l2_latency, LEVEL_L2),
                False,
                "eviction",
            )
        self.glsc.link(core, slot, line_addr)
        self._glsc_loss_cause.pop((core, line_addr), None)
        if obs is not None and obs.wants_reservation:
            obs.emit(ReservationSet(now, core, slot, line_addr, "glsc"))
        return (result, True, None)

    def write_conditional(
        self,
        core: int,
        slot: int,
        addr: int,
        now: int,
    ) -> Tuple[AccessResult, bool, Optional[str]]:
        """Per-line scatter-conditional: write iff the reservation holds.

        Returns ``(access, success, failure_cause)``.  On success the
        GLSC entry is consumed, the line is brought to M, and all other
        reservations on the line are destroyed.
        """
        if addr < 0:
            raise AlignmentError(f"negative address {addr:#x}")
        line_addr = addr - addr % self._line_bytes
        self.stats.l1_accesses += 1
        self.stats.l1_sync_accesses += 1
        if self._chaos_rng is not None:
            self._maybe_inject_loss(now)
        if not self.glsc.check(core, slot, line_addr):
            cause = self._glsc_loss_cause.pop(
                (core, line_addr), "thread_conflict"
            )
            return (
                self._hit_l1,
                False,
                cause,
            )
        # Reservation intact: the line is resident (evictions clear the
        # entry), so this is at worst an S -> M upgrade.
        self.glsc.clear(core, line_addr)
        obs = self.obs
        if obs is not None and obs.wants_reservation:
            obs.emit(
                ReservationLost(now, core, slot, line_addr, "glsc",
                                "consumed", core, slot)
            )
        result = self._obtain_modified(core, slot, line_addr, now)
        self._kill_reservations_on_write(core, line_addr, now,
                                         attacker_slot=slot)
        return (result, True, None)

    def scalar_ll(
        self, core: int, slot: int, addr: int, now: int
    ) -> AccessResult:
        """Scalar load-linked: a read that sets this thread's reservation."""
        result = self.read(core, slot, addr, now, sync=True)
        self.reservations.set(core, slot, addr)
        obs = self.obs
        if obs is not None and obs.wants_reservation:
            obs.emit(
                ReservationSet(
                    now, core, slot, self.geometry.line_addr(addr), "scalar"
                )
            )
        return result

    def scalar_sc(
        self, core: int, slot: int, addr: int, now: int
    ) -> Tuple[AccessResult, bool]:
        """Scalar store-conditional; consumes the reservation either way."""
        held = self.reservations.holds(core, slot, addr)
        held_line = self.reservations.held_line(core, slot)
        self.reservations.clear_thread(core, slot)
        obs = self.obs
        if (
            held_line is not None
            and obs is not None
            and obs.wants_reservation
        ):
            obs.emit(
                ReservationLost(
                    now, core, slot, held_line, "scalar",
                    "consumed" if held else "mismatch",
                    core, slot,
                )
            )
        if not held:
            self._count_l1_access(sync=True, now=now)
            return self._hit_l1, False
        result = self.write(core, slot, addr, now, sync=True)
        return result, True

    # ------------------------------------------------------------------
    # bulk warm-up
    # ------------------------------------------------------------------

    def can_warm_fill(self) -> bool:
        """Whether :meth:`warm_fill` is equivalent to the per-read loop.

        Chaos injection consumes RNG draws on every access, so a warm
        pass that skips accesses would desynchronize the draw sequence;
        callers fall back to the slow loop in that case.
        """
        return self._chaos_rng is None

    def warm_fill(self, first: int, limit: int) -> None:
        """Bulk cache warm-up: sequential line fill into every core's L1.

        State-equivalent to::

            for core in range(n_cores):
                for line in range(first, limit, line_bytes):
                    self.read(core, 0, line, now=0)

        but the per-access bookkeeping of the full ``read`` transaction
        — latency accounting, chaos checks, result allocation, LRU
        touches that rewrite 0 with 0 — is skipped.  Misses still go
        through the real protocol path (``_read_miss`` + prefetcher
        training), so L1/L2/directory contents, bank clocks, DRAM
        access counts, and prefetched-bit patterns match the slow loop
        bit for bit.  Stats counters are *not* maintained; callers
        reset them afterwards (as ``Machine.warm_caches`` always did).
        """
        if self._chaos_rng is not None:
            raise SimulationError(
                "warm_fill requires chaos injection to be disabled"
            )
        line_bytes = self._line_bytes
        for core in range(self.config.n_cores):
            lookup = self.l1s[core].lookup
            for line_addr in range(first, limit, line_bytes):
                line = lookup(line_addr)
                if line is not None:
                    # The slow path's demand-hit bookkeeping reduces to
                    # clearing the prefetched bit (stats reset anyway,
                    # last_use is already 0 during warming).
                    line.prefetched = False
                    continue
                self._read_miss(core, 0, line_addr, 0, victim_ok=None)
                self._train_prefetcher(core, 0, line_addr, 0)

    # ------------------------------------------------------------------
    # transaction internals
    # ------------------------------------------------------------------

    def _book_l2_bank(self, line_addr: int, now: int) -> int:
        """Queue on the line's L2 bank; returns added waiting cycles."""
        bank = self.l2.bank_of(line_addr)
        free = self._bank_free[bank]
        start = now if now > free else free
        self._bank_free[bank] = start + self.config.l2_bank_busy_cycles
        return start - now

    def _count_l1_access(self, sync: bool, now: int) -> None:
        self.stats.l1_accesses += 1
        if sync:
            self.stats.l1_sync_accesses += 1
        if self._chaos_rng is not None:
            self._maybe_inject_loss(now)

    def _maybe_inject_loss(self, now: int) -> None:
        """Spuriously destroy random reservations (failure injection)."""
        probability = self.config.chaos_reservation_loss
        if self._chaos_rng.random() < probability:
            victims = self.reservations.live_keys()
            if victims:
                core, slot = self._chaos_rng.choice(victims)
                held_line = self.reservations.held_line(core, slot)
                self.reservations.clear_thread(core, slot)
                self.chaos_events += 1
                obs = self.obs
                if obs is not None and obs.wants_reservation:
                    obs.emit(
                        ReservationLost(
                            now, core, slot, held_line, "scalar", "chaos"
                        )
                    )
        if self._chaos_rng.random() < probability:
            entries = self.glsc.live_entries()
            if entries:
                core, line_addr = self._chaos_rng.choice(entries)
                self._kill_glsc(core, line_addr, "eviction", now)
                self.chaos_events += 1

    def _note_demand_hit(self, line: L1Line) -> None:
        if line.prefetched:
            self.stats.prefetch_hits += 1
            line.prefetched = False

    def _victim_filter(self, core: int):
        """Eviction filter that protects lines with live GLSC entries."""

        def ok(line: L1Line) -> bool:
            return self.glsc.holder(core, line.line_addr) is None

        return ok

    def _install_l1(
        self,
        core: int,
        line_addr: int,
        state: int,
        now: int,
        victim_ok,
        prefetched: bool = False,
        attacker_slot: int = -1,
    ) -> bool:
        """Install a line into an L1, handling the victim's bookkeeping.

        ``attacker_slot`` names the SMT slot whose fill displaces the
        victim (attribution only; -1 for prefetch/unknown).
        """
        evicted = self.l1s[core].install(line_addr, state, now, victim_ok)
        if evicted is None:
            return False
        if evicted.line_addr >= 0:
            self._retire_l1_line(core, evicted, now,
                                 attacker_core=core,
                                 attacker_slot=attacker_slot)
        new_line = self.l1s[core].lookup(line_addr)
        new_line.prefetched = prefetched
        return True

    def _retire_l1_line(
        self,
        core: int,
        line: L1Line,
        now: int,
        attacker_core: int = -1,
        attacker_slot: int = -1,
    ) -> None:
        """A line left ``core``'s L1 by eviction: fix directory + reservations."""
        obs = self.obs
        dirty = line.state in self._dirty_states
        if dirty:
            self.stats.writebacks += 1
        self.protocol.counts["PutM" if dirty else "PutS"] += 1
        if obs is not None:
            if obs.wants_cache:
                obs.emit(Eviction(now, core, line.line_addr, dirty))
            if dirty and obs.wants_coherence:
                obs.emit(Writeback(now, core, line.line_addr, "eviction"))
            if obs.wants_protocol:
                obs.emit(
                    PutM(now, core, line.line_addr)
                    if dirty
                    else PutS(now, core, line.line_addr)
                )
        entry = self.l2.lookup(line.line_addr)
        if entry is None:
            raise SimulationError(
                f"evicting {line.line_addr:#x} from core {core} but the "
                f"inclusive L2 does not hold it"
            )
        entry.drop(core)
        victims = self.reservations.clear_core_line(core, line.line_addr)
        self._emit_scalar_losses(victims, line.line_addr, "eviction", now,
                                 attacker_core, attacker_slot)
        self._kill_glsc_departed(core, line, "eviction", now,
                                 attacker_core, attacker_slot)

    def _invalidate_l1(
        self,
        core: int,
        line_addr: int,
        cause: str,
        now: int,
        attacker_core: int = -1,
        attacker_slot: int = -1,
    ) -> None:
        """Invalidate one L1 copy and destroy its reservations.

        ``cause`` is ``"remote_write"`` (another core obtains M; the
        reservations die of ``thread_conflict``) or ``"l2_eviction"``
        (the inclusive L2 dropped the line; they die of ``eviction``).
        """
        line = self.l1s[core].invalidate(line_addr)
        if line is None:
            raise SimulationError(
                f"{cause} of {line_addr:#x}: directory lists core {core} "
                f"but its L1 lacks the line"
            )
        obs = self.obs
        dirty = line.state in self._dirty_states
        if dirty:
            self.stats.writebacks += 1
        self.stats.invalidations_sent += 1
        self.protocol.counts["Inv"] += 1
        if obs is not None:
            if obs.wants_coherence:
                obs.emit(Invalidation(now, core, line_addr, cause))
                if dirty:
                    obs.emit(Writeback(now, core, line_addr, "invalidation"))
            if obs.wants_protocol:
                obs.emit(Inv(now, core, line_addr, cause))
        loss = _LOSS_CAUSE[cause]
        victims = self.reservations.clear_core_line(core, line_addr)
        self._emit_scalar_losses(victims, line_addr, loss, now,
                                 attacker_core, attacker_slot)
        self._kill_glsc_departed(core, line, loss, now,
                                 attacker_core, attacker_slot)

    def _back_invalidate(
        self,
        victim_entry,
        now: int,
        attacker_core: int = -1,
        attacker_slot: int = -1,
    ) -> None:
        """Inclusive-L2 eviction: remove every L1 copy of the victim."""
        for core in sorted(victim_entry.sharers):
            self._invalidate_l1(core, victim_entry.line_addr, "l2_eviction",
                                now, attacker_core, attacker_slot)

    def _emit_scalar_losses(
        self,
        victims,
        line_addr: int,
        cause: str,
        now: int,
        attacker_core: int = -1,
        attacker_slot: int = -1,
    ) -> None:
        """Emit one ReservationLost per scalar reservation casualty."""
        if not victims:
            return
        obs = self.obs
        if obs is None or not obs.wants_reservation:
            return
        for core, slot in victims:
            obs.emit(
                ReservationLost(now, core, slot, line_addr, "scalar", cause,
                                attacker_core, attacker_slot)
            )

    def _kill_glsc(
        self,
        core: int,
        line_addr: int,
        cause: str,
        now: int,
        attacker_core: int = -1,
        attacker_slot: int = -1,
    ) -> None:
        """Clear a GLSC entry, remembering why it died (for Table 4)."""
        holder = self.glsc.take(core, line_addr)
        if holder is not None:
            self._glsc_loss_cause[(core, line_addr)] = cause
            obs = self.obs
            if obs is not None and obs.wants_reservation:
                obs.emit(
                    ReservationLost(now, core, holder, line_addr, "glsc",
                                    cause, attacker_core, attacker_slot)
                )

    def _kill_glsc_departed(
        self,
        core: int,
        line: L1Line,
        cause: str,
        now: int,
        attacker_core: int = -1,
        attacker_slot: int = -1,
    ) -> None:
        """Like :meth:`_kill_glsc`, for a line already removed from the L1.

        The tag tracker's state left with the line object, so consult
        its GLSC bits directly; the buffer tracker still needs an
        explicit clear.
        """
        holder = self.glsc.holder(core, line.line_addr)
        had_entry = line.glsc_valid or holder is not None
        if had_entry:
            self._glsc_loss_cause[(core, line.line_addr)] = cause
            obs = self.obs
            if obs is not None and obs.wants_reservation:
                slot = line.glsc_tid if line.glsc_valid else holder
                obs.emit(
                    ReservationLost(now, core, slot, line.line_addr, "glsc",
                                    cause, attacker_core, attacker_slot)
                )
        self.glsc.clear(core, line.line_addr)

    def _kill_reservations_on_write(
        self,
        writer_core: int,
        line_addr: int,
        now: int,
        attacker_slot: int = -1,
    ) -> None:
        """A word on ``line_addr`` was written: destroy every reservation.

        Runs once per store, so the common no-reservations case is
        cheap: the scalar file is consulted only when it has any holder
        at all, and :meth:`_kill_glsc` takes the GLSC entry (holder +
        clear in one lookup) rather than querying then clearing it.
        """
        reservations = self.reservations
        if reservations._held:
            victims = reservations.clear_line(line_addr)
            if victims:
                self._emit_scalar_losses(victims, line_addr,
                                         "thread_conflict", now,
                                         writer_core, attacker_slot)
        # Other cores' GLSC entries died with their invalidations; the
        # writer's own core may still hold one (another SMT thread, or
        # a stale own link) — normal stores clear it too (Section 3.3).
        self._kill_glsc(writer_core, line_addr, "thread_conflict", now,
                        writer_core, attacker_slot)

    # ------------------------------------------------------------------
    # prefetcher
    # ------------------------------------------------------------------

    def _train_prefetcher(
        self, core: int, slot: int, line_addr: int, now: int
    ) -> None:
        targets = self.prefetcher.on_demand_miss(core, slot, line_addr)
        for target in targets:
            if self.l1s[core].lookup(target) is not None:
                continue
            self.stats.prefetches_issued += 1
            self._prefetch_fill(core, target, now)

    # ------------------------------------------------------------------
    # invariant checking (used by property tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the coherence invariants; raises SimulationError."""
        protocol = self.protocol
        for entry in self.l2.entries():
            protocol.check_entry(entry)
            for core in entry.sharers:
                line = self.l1s[core].lookup(entry.line_addr)
                if line is None:
                    raise SimulationError(
                        f"directory lists core {core} for "
                        f"{entry.line_addr:#x} but L1 lacks it"
                    )
                allowed = protocol.expected_l1_states(entry, core)
                if line.state not in allowed:
                    raise SimulationError(
                        f"core {core} holds {entry.line_addr:#x} in "
                        f"{line.state}, {protocol.name} directory "
                        f"implies one of {sorted(allowed)}"
                    )
        for core, l1 in self.l1s.items():
            for line in l1.resident_lines():
                entry = self.l2.lookup(line.line_addr)
                if entry is None:
                    raise SimulationError(
                        f"L1 of core {core} holds {line.line_addr:#x} "
                        f"not present in the inclusive L2"
                    )
                if core not in entry.sharers:
                    raise SimulationError(
                        f"L1 of core {core} holds {line.line_addr:#x} "
                        f"but the directory does not list it"
                    )
