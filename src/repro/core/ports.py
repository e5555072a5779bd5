"""L1 cache port arbitration.

The paper's GSU shares the L1 cache ports with the LSU (Section 2.2),
and the L1 arbitrates between them with LSU priority (Section 4.1).
With the simulator's synchronous transactions, contention reduces to a
booking problem: each access occupies the port for one cycle, and an
access wanting the port at cycle *t* actually starts at the first free
cycle >= *t*.

LSU priority is approximated by booking order: the core issues LSU
instructions before resuming GSU address generation for the same cycle,
so LSU requests grab earlier slots.
"""

from __future__ import annotations

__all__ = ["L1Port"]


class L1Port:
    """Single-cycle-occupancy port shared by the LSU and GSU of a core."""

    __slots__ = ("_next_free", "busy_cycles")

    def __init__(self) -> None:
        self._next_free = 0
        self.busy_cycles = 0

    def book(self, earliest: int) -> int:
        """Reserve the port at the first free cycle >= ``earliest``."""
        free = self._next_free
        start = earliest if earliest > free else free
        self._next_free = start + 1
        self.busy_cycles += 1
        return start
