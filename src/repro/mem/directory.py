"""Directory state for the shared L2.

Each L2-resident line carries the coherence directory information the
paper describes ("The shared cache holds directory information for each
cache line to maintain coherence amongst the private caches"): a
bitmask of the L1 sharers (bit ``c`` set when core ``c`` holds a copy)
and the owning core when some L1 holds the line exclusively.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import SimulationError

__all__ = ["DirectoryEntry", "cores_in"]


def cores_in(mask: int) -> Iterator[int]:
    """The core ids whose bits are set in ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class DirectoryEntry:
    """Directory record for one L2-resident line."""

    __slots__ = ("line_addr", "sharers", "owner", "last_use")

    def __init__(self, line_addr: int, now: int) -> None:
        self.line_addr = line_addr
        self.sharers = 0
        self.owner: Optional[int] = None
        self.last_use = now

    def add_sharer(self, core_id: int, shared_owner_ok: bool = False) -> None:
        """Record that ``core_id`` holds the line in S state.

        ``shared_owner_ok`` is the MOESI relaxation: an O-state owner
        keeps the line (dirty) while readers join the sharers, so
        owner and foreign sharers may coexist.  MSI/MESI keep the
        strict exclusive-owner rule.
        """
        if (
            not shared_owner_ok
            and self.owner is not None
            and self.owner != core_id
        ):
            raise SimulationError(
                f"line {self.line_addr:#x}: adding sharer {core_id} while "
                f"owned by {self.owner}"
            )
        self.sharers |= 1 << core_id

    def set_owner(self, core_id: int) -> None:
        """Record that ``core_id`` holds the line exclusively (sole copy)."""
        self.sharers = 1 << core_id
        self.owner = core_id

    def clear_owner(self) -> None:
        """Owner downgraded to S (its sharer bit stays set)."""
        self.owner = None

    def drop(self, core_id: int) -> None:
        """``core_id`` no longer holds the line (eviction/invalidation)."""
        self.sharers &= ~(1 << core_id)
        if self.owner == core_id:
            self.owner = None

    def check(self, shared_owner_ok: bool = False) -> None:
        """Assert the owner rule (used by invariant tests).

        An owner's sharer bit is set, and it is the only bit set unless
        the protocol has an O state (``shared_owner_ok``), whose owner
        keeps the dirty line while readers share it.
        """
        if self.owner is None:
            return
        bit = 1 << self.owner
        if not self.sharers & bit or (
            not shared_owner_ok and self.sharers != bit
        ):
            raise SimulationError(
                f"line {self.line_addr:#x}: owner {self.owner} but "
                f"sharers {list(cores_in(self.sharers))}"
            )

    def __repr__(self) -> str:
        return (
            f"DirectoryEntry({self.line_addr:#x}, "
            f"sharers={list(cores_in(self.sharers))}, owner={self.owner})"
        )
