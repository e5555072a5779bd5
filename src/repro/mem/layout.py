"""Address arithmetic for the simulated memory system.

The machine is word-oriented: every data element is a 32-bit word
(``WORD_BYTES`` = 4), matching the paper's definition of SIMD width as
the number of 32-bit elements.  Cache lines are ``line_bytes`` wide
(64 B in the paper's configuration, Table 1).

All addresses in the simulator are byte addresses; loads/stores must be
word-aligned.  :class:`LineGeometry` centralizes the line arithmetic so
the caches, directory, and GSU all agree on it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import AlignmentError, ConfigError

__all__ = ["WORD_BYTES", "LineGeometry", "Region", "RegionMap"]

WORD_BYTES = 4


@dataclass(frozen=True)
class Region:
    """A named allocation in the simulated memory image.

    Purely observational: regions exist so diagnostics (the contention
    observatory, traces) can say "the y output array" instead of a raw
    hex line address.  The simulator itself never consults them.
    """

    name: str
    base: int
    nbytes: int

    @property
    def end(self) -> int:
        """First byte address past the region."""
        return self.base + self.nbytes

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class RegionMap:
    """Address -> region-name symbolization over named allocations.

    Kept sorted by base address; lookups binary-search.  Unnamed gaps
    symbolize to the hex address, so callers can always render
    something.
    """

    def __init__(self) -> None:
        self._regions: List[Region] = []
        self._bases: List[int] = []

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self):
        return iter(self._regions)

    def add(self, name: str, base: int, nbytes: int) -> Region:
        """Record a named allocation (regions never overlap: the bump
        allocator hands out disjoint ranges)."""
        region = Region(name, base, nbytes)
        index = bisect.bisect_left(self._bases, base)
        self._regions.insert(index, region)
        self._bases.insert(index, base)
        return region

    def find(self, addr: int) -> Optional[Region]:
        """The region containing ``addr``, or None."""
        index = bisect.bisect_right(self._bases, addr) - 1
        if index < 0:
            return None
        region = self._regions[index]
        return region if region.contains(addr) else None

    def symbolize(self, addr: int) -> str:
        """``name+0xoffset`` for named addresses, hex otherwise."""
        region = self.find(addr)
        if region is None:
            return f"{addr:#x}"
        offset = addr - region.base
        return region.name if offset == 0 else f"{region.name}+{offset:#x}"

    def to_dict(self) -> Dict[str, Tuple[int, int]]:
        """``{name: (base, nbytes)}`` (JSON-able; duplicate names keep
        the first occurrence)."""
        out: Dict[str, Tuple[int, int]] = {}
        for region in self._regions:
            out.setdefault(region.name, (region.base, region.nbytes))
        return out


def _is_pow2(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


@dataclass(frozen=True)
class LineGeometry:
    """Line-size-derived address arithmetic shared across the hierarchy."""

    line_bytes: int = 64

    def __post_init__(self) -> None:
        if not _is_pow2(self.line_bytes):
            raise ConfigError(
                f"line_bytes must be a power of two, got {self.line_bytes}"
            )
        if self.line_bytes < WORD_BYTES:
            raise ConfigError(
                f"line_bytes must be >= {WORD_BYTES}, got {self.line_bytes}"
            )

    @property
    def words_per_line(self) -> int:
        """Number of 32-bit words in one cache line."""
        return self.line_bytes // WORD_BYTES

    def check_word_aligned(self, addr: int) -> None:
        """Raise AlignmentError unless ``addr`` is word-aligned."""
        if addr < 0:
            raise AlignmentError(f"negative address {addr:#x}")
        if addr % WORD_BYTES:
            raise AlignmentError(f"address {addr:#x} is not word-aligned")

    def line_addr(self, addr: int) -> int:
        """Base byte address of the line containing ``addr``."""
        if addr < 0:
            raise AlignmentError(f"negative address {addr:#x}")
        return addr - addr % self.line_bytes
