"""Shared, inclusive, banked L2 cache with integrated directory.

The paper's L2 (Table 1): 16 MB, 8-way, 16 banks, physically
distributed, inclusive of the private L1s, holding the directory
information for each resident line.  We model tags + directory state;
data words live in the flat memory image.

Inclusivity matters for GLSC: when an L2 victim is chosen, every L1
copy must be back-invalidated, which silently destroys any gather-link
reservations on that line — one of the legal reservation-loss causes
the best-effort model permits (Section 3).

The directory entry attached to each resident line (owner + sharer
bitmap, :mod:`repro.mem.directory`) is protocol-agnostic storage; how
it is read and updated per transaction is decided by the coherence
seam's policy object (:mod:`repro.mem.protocol`), so the same banked
structure serves MSI, MESI, and MOESI unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.errors import SimulationError
from repro.mem.directory import DirectoryEntry
from repro.mem.layout import LineGeometry

__all__ = ["L2Cache"]


class L2Cache:
    """Set-associative inclusive L2 with per-line directory entries.

    Sets are insertion-ordered dicts keyed by line address (O(1)
    lookup, reference-identical LRU tie-breaking by fill order) and
    materialize lazily: a 16MB L2 has 32k sets, of which a simulation
    touches a tiny fraction.
    """

    __slots__ = (
        "n_sets",
        "assoc",
        "n_banks",
        "geometry",
        "_sets",
        "_set_shift",
        "_set_mask",
        "_bank_mask",
    )

    def __init__(
        self,
        n_sets: int,
        assoc: int,
        n_banks: int,
        geometry: LineGeometry,
    ) -> None:
        if n_sets < 1 or assoc < 1 or n_banks < 1:
            raise SimulationError("L2 must have >= 1 set, way, and bank")
        self.n_sets = n_sets
        self.assoc = assoc
        self.n_banks = n_banks
        self.geometry = geometry
        # Set and bank counts are powers of two (MachineConfig checks
        # them): masks pick the set and the bank.
        self._set_shift = geometry.line_bytes.bit_length() - 1
        self._set_mask = n_sets - 1
        self._bank_mask = n_banks - 1
        self._sets: Dict[int, Dict[int, DirectoryEntry]] = {}

    def _set_for(self, line_addr: int) -> Dict[int, DirectoryEntry]:
        index = (line_addr >> self._set_shift) & self._set_mask
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = {}
        return cache_set

    def bank_of(self, line_addr: int) -> int:
        """Which bank serves ``line_addr`` (lines interleave across banks)."""
        return (line_addr >> self._set_shift) & self._bank_mask

    def lookup(self, line_addr: int) -> Optional[DirectoryEntry]:
        """The directory entry for a resident line, or None (L2 miss)."""
        return self._set_for(line_addr).get(line_addr)

    def fetch(
        self, line_addr: int, now: int
    ) -> Tuple[DirectoryEntry, bool, Optional[DirectoryEntry]]:
        """Return ``(entry, l2_hit, victim)`` for ``line_addr``.

        On a miss the line is fetched (caller charges main-memory
        latency) and installed; if the set is full, the LRU entry is
        evicted and returned as ``victim`` so the coherence controller
        can back-invalidate its L1 copies (inclusivity).
        """
        cache_set = self._set_for(line_addr)
        entry = cache_set.get(line_addr)
        if entry is not None:
            entry.last_use = now
            return entry, True, None
        victim: Optional[DirectoryEntry] = None
        if len(cache_set) >= self.assoc:
            victim = min(cache_set.values(), key=lambda e: e.last_use)
            del cache_set[victim.line_addr]
        entry = DirectoryEntry(line_addr, now)
        cache_set[line_addr] = entry
        return entry, False, victim

    def entries(self) -> Iterator[DirectoryEntry]:
        """All resident directory entries (for invariant checks)."""
        for cache_set in self._sets.values():
            yield from cache_set.values()

    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(s) for s in self._sets.values())
