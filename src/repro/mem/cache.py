"""Private L1 data cache model.

Tags-only timing cache: data words live in the flat
:class:`~repro.mem.image.MemoryImage`; the cache tracks presence,
coherence state, LRU, and — the paper's L1 extension (Section 3.3) —
one *GLSC entry* per line: a valid bit plus the SMT-thread id that
holds the gather-link reservation.

Which states a line can actually occupy is the business of the
configured :class:`~repro.mem.protocol.CoherenceProtocol`: the default
MSI policy uses only S and M, MESI adds E (clean exclusive), and MOESI
adds O (owned — dirty but shared).  The cache itself is
state-agnostic; it stores whatever small int the protocol installs.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import SimulationError
from repro.mem.layout import LineGeometry

__all__ = [
    "MSI_M",
    "MSI_S",
    "MESI_E",
    "MOESI_O",
    "STATE_NAMES",
    "L1Line",
    "L1Cache",
]

#: Coherence states, interned as small ints for cheap compares on the
#: hot path; absence from the cache is the I state.  S and M are the
#: MSI core every protocol shares; E and O exist only under the
#: protocols that install them (``mesi`` / ``moesi``).
MSI_S = 1
MSI_M = 2
MESI_E = 3
MOESI_O = 4

STATE_NAMES = {MSI_S: "S", MSI_M: "M", MESI_E: "E", MOESI_O: "O"}
_STATE_NAMES = STATE_NAMES


class L1Line:
    """One resident L1 cache line (tag + state + GLSC entry)."""

    __slots__ = (
        "line_addr",
        "state",
        "glsc_valid",
        "glsc_tid",
        "last_use",
        "prefetched",
    )

    def __init__(self, line_addr: int, state: int, now: int) -> None:
        self.line_addr = line_addr
        self.state = state
        self.glsc_valid = False
        self.glsc_tid = -1
        self.last_use = now
        self.prefetched = False

    def clear_glsc(self) -> None:
        """Drop the GLSC reservation on this line, if any."""
        self.glsc_valid = False
        self.glsc_tid = -1

    def __repr__(self) -> str:
        glsc = f", glsc=t{self.glsc_tid}" if self.glsc_valid else ""
        state = _STATE_NAMES.get(self.state, self.state)
        return f"L1Line({self.line_addr:#x}, {state}{glsc})"


class L1Cache:
    """A set-associative, LRU, tags-only L1 cache for one core.

    Each set is an insertion-ordered dict keyed by line address, so
    lookups are O(1) instead of a way scan, while eviction keeps the
    reference semantics: least ``last_use`` wins, ties broken by
    insertion (fill) order.
    """

    __slots__ = (
        "core_id",
        "n_sets",
        "assoc",
        "geometry",
        "_sets",
        "_set_shift",
        "_set_mask",
    )

    def __init__(
        self,
        core_id: int,
        n_sets: int,
        assoc: int,
        geometry: LineGeometry,
    ) -> None:
        if n_sets < 1 or assoc < 1:
            raise SimulationError("L1 must have >= 1 set and >= 1 way")
        self.core_id = core_id
        self.n_sets = n_sets
        self.assoc = assoc
        self.geometry = geometry
        # n_sets is a power of two (MachineConfig checks it): a mask
        # picks the set.
        self._set_shift = geometry.line_bytes.bit_length() - 1
        self._set_mask = n_sets - 1
        self._sets: List[Dict[int, L1Line]] = [{} for _ in range(n_sets)]

    # -- lookup ----------------------------------------------------------

    def _set_for(self, line_addr: int) -> Dict[int, L1Line]:
        return self._sets[(line_addr >> self._set_shift) & self._set_mask]

    def lookup(self, line_addr: int) -> Optional[L1Line]:
        """The resident line for ``line_addr``, or None (I state)."""
        return self._sets[
            (line_addr >> self._set_shift) & self._set_mask
        ].get(line_addr)

    def touch(self, line: L1Line, now: int) -> None:
        """Record a use for LRU purposes."""
        line.last_use = now

    # -- state changes -----------------------------------------------------

    def install(
        self,
        line_addr: int,
        state: int,
        now: int,
        victim_ok: Optional[Callable[[L1Line], bool]] = None,
    ) -> Optional[L1Line]:
        """Bring ``line_addr`` in with ``state``, evicting LRU if needed.

        ``victim_ok`` filters eviction candidates; this is how the GSU
        implements the "never evict a linked line for a gather-link"
        policy (Section 3.2b).  Returns the evicted :class:`L1Line`
        (caller handles its writeback and directory update), a fresh
        sentinel with ``line_addr == -1`` when no eviction was needed,
        or ``None`` when no acceptable victim exists (install refused).
        """
        cache_set = self._set_for(line_addr)
        if line_addr in cache_set:
            raise SimulationError(
                f"install of already-resident line {line_addr:#x} "
                f"in core {self.core_id}"
            )
        evicted: Optional[L1Line] = None
        if len(cache_set) >= self.assoc:
            candidates = [
                line
                for line in cache_set.values()
                if victim_ok is None or victim_ok(line)
            ]
            if not candidates:
                return None
            evicted = min(candidates, key=lambda line: line.last_use)
            del cache_set[evicted.line_addr]
        cache_set[line_addr] = L1Line(line_addr, state, now)
        if evicted is None:
            return L1Line(-1, MSI_S, now)  # sentinel: no victim
        return evicted

    def invalidate(self, line_addr: int) -> Optional[L1Line]:
        """Remove ``line_addr`` (→ I).  Returns the line that was resident."""
        return self._set_for(line_addr).pop(line_addr, None)

    def resident_lines(self) -> Iterator[L1Line]:
        """All resident lines (for invariant checks and tests)."""
        for cache_set in self._sets:
            yield from cache_set.values()

    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(s) for s in self._sets)
