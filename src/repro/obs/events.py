"""Typed observability events emitted by the memory hierarchy and GSU.

Every event is a small immutable record (a :class:`typing.NamedTuple`
made frozen and type-strict by :func:`repro.records.record`, built
positionally) carrying the simulation cycle it happened at plus enough
identity to attribute it (core, SMT slot, line address, cause).
Events are grouped into *categories* — the unit of subscription on
the :class:`~repro.obs.bus.EventBus`:

=============  ========================================================
``instr``      retired instructions (:class:`~repro.sim.trace.
               TraceEvent`, collected by :class:`~repro.sim.trace.
               InstructionTrace`)
``cache``      L1/L2 demand hits and misses, L1 evictions
``coherence``  invalidations (remote writes, inclusive-L2 victims) and
               dirty writebacks
``reservation`` scalar ll/sc and GLSC reservation set / lost (with the
               cause of death)
``glsc``       gather-link / scatter-conditional element outcomes and
               GSU line-combining merges
``protocol``   transaction-level coherence messages (GetS/GetM/
               Upgrade/PutM/PutS/Inv/Fwd/Ack plus MESI's
               silent-upgrade marker) — the seam vocabulary of
               :mod:`repro.mem.messages`, emitted by the configured
               :class:`~repro.mem.protocol.CoherenceProtocol`
``service``    sweep-service lifecycle transitions
               (:class:`TaskPhase`: enqueued/claimed/simulated/saved,
               plus the unhappy-path requeued/nacked/poisoned) —
               wall-clock events from the queue/worker stack, not
               simulation-cycle events
=============  ========================================================

Design constraints:

* **Alignment with stats** — wherever a :class:`~repro.sim.stats.
  MachineStats` counter increments, the corresponding event is emitted
  with the *same* attribution, so aggregating the event stream
  reproduces the counters exactly (the test suite asserts this for L1
  misses and for the Table 4 failure-cause breakdown).
* **Zero cost when disabled** — events are only constructed behind an
  ``obs is not None and obs.wants_<category>`` guard, so an
  uninstrumented run never allocates one (guard-tested).
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Dict, NamedTuple, Optional, Tuple

from repro.records import record

__all__ = [
    "CATEGORIES",
    "EVENT_TYPES",
    "PROTOCOL_MESSAGES",
    "CacheHit",
    "CacheMiss",
    "Eviction",
    "Writeback",
    "Invalidation",
    "ReservationSet",
    "ReservationLost",
    "ElementOutcome",
    "LineCombine",
    "TaskPhase",
    "event_to_dict",
]

#: Subscription categories, in display order.
CATEGORIES = (
    "instr", "cache", "coherence", "reservation", "glsc", "protocol",
    "service",
)


@record
class CacheHit(NamedTuple):
    """A demand access that hit (counted in ``l1_hits``/L2 presence)."""

    category = "cache"

    cycle: int
    core: int
    slot: int
    line_addr: int
    level: str  # "L1" | "L2"
    op: str     # "read" | "write"


@record
class CacheMiss(NamedTuple):
    """A demand access that missed at ``level`` and went deeper."""

    category = "cache"

    cycle: int
    core: int
    slot: int
    line_addr: int
    level: str  # "L1" | "L2"  (an L2 miss goes to main memory)
    op: str     # "read" | "write"


@record
class Eviction(NamedTuple):
    """A line left an L1 by capacity/conflict replacement."""

    category = "cache"

    cycle: int
    core: int
    line_addr: int
    dirty: bool


@record
class Writeback(NamedTuple):
    """Dirty data left an L1 (counted in ``stats.writebacks``)."""

    category = "coherence"

    cycle: int
    core: int
    line_addr: int
    reason: str  # "eviction" | "invalidation" | "downgrade"


@record
class Invalidation(NamedTuple):
    """An L1 copy was invalidated by the coherence protocol."""

    category = "coherence"

    cycle: int
    core: int      # the core that *lost* the line
    line_addr: int
    cause: str     # "remote_write" | "l2_eviction"


@record
class ReservationSet(NamedTuple):
    """A reservation was acquired (scalar ``ll`` or GLSC gather-link)."""

    category = "reservation"

    cycle: int
    core: int
    slot: int
    line_addr: int
    kind: str  # "scalar" | "glsc"


@record
class ReservationLost(NamedTuple):
    """A live reservation was destroyed (or consumed by its owner).

    ``cause`` uses the same vocabulary as
    :data:`~repro.sim.stats.FAILURE_CAUSES` where the loss feeds a GLSC
    element failure (``thread_conflict``, ``eviction``), plus
    ``consumed`` for a successful scatter-conditional / sc retiring its
    own reservation.

    ``attacker_core``/``attacker_slot`` name the hardware thread whose
    access destroyed the reservation (the writer, the upgrader, or the
    thread whose fill evicted the line); both are -1 when the killer is
    the environment (chaos injection) or unknown.  A self-inflicted
    loss (``consumed``/``mismatch``) attributes to the holder itself.
    """

    category = "reservation"

    cycle: int
    core: int
    slot: int      # holder; -1 when unknown
    line_addr: int
    kind: str      # "scalar" | "glsc"
    cause: str
    attacker_core: int = -1
    attacker_slot: int = -1


@record
class ElementOutcome(NamedTuple):
    """Outcome of GLSC element operations on one cache line.

    One event per (instruction, line, outcome) group: ``lanes`` is how
    many SIMD lanes share it.  Failures carry the Table 4 cause; the
    per-cause lane sums reproduce
    ``MachineStats.glsc_element_failures`` exactly.
    """

    category = "glsc"

    cycle: int
    core: int
    slot: int
    line_addr: int
    op: str               # "gatherlink" | "scattercond"
    lanes: int
    ok: bool
    cause: Optional[str]  # a FAILURE_CAUSES member when ok is False


@record
class LineCombine(NamedTuple):
    """The GSU merged same-line lanes into one L1 access (Section 2.2)."""

    category = "glsc"

    cycle: int
    core: int
    slot: int
    line_addr: int
    op: str           # "gather" | "scatter"
    lanes_saved: int  # L1 accesses avoided (group size - 1)
    sync: bool        # whether the access counts as an atomic op


@record
class TaskPhase(NamedTuple):
    """One sweep-service lifecycle transition for one spec digest.

    Unlike the simulation events above, ``ts`` is a wall-clock unix
    timestamp — service events happen in real time across processes,
    not on a simulated cycle counter.  Emission sites follow the same
    ``obs is not None and obs.wants_service`` guard, so an unobserved
    queue/worker allocates no event objects (guard-tested).
    """

    category = "service"

    ts: float
    digest: str
    phase: str     # a sweeptrace.PHASES member or requeued/nacked/poisoned
    actor: str     # worker id / "queue"
    trace_id: str  # "" when the task was submitted untraced


def _trace_event_type():
    from repro.sim.trace import TraceEvent

    return TraceEvent


def all_event_types() -> Tuple[type, ...]:
    """Every event class the bus can carry (including TraceEvent)."""
    return (_trace_event_type(),) + EVENT_TYPES


#: The protocol-transaction events are the coherence seam's message
#: records themselves (``category = "protocol"``), so the stream a
#: sink sees *is* the directory traffic the selected protocol spoke.
from repro.mem.messages import PROTOCOL_MESSAGES  # noqa: E402

#: Static tuple of the event classes the bus carries (TraceEvent joins
#: lazily via :func:`all_event_types` to avoid an import cycle).
EVENT_TYPES = (
    CacheHit,
    CacheMiss,
    Eviction,
    Writeback,
    Invalidation,
    ReservationSet,
    ReservationLost,
    ElementOutcome,
    LineCombine,
    TaskPhase,
) + PROTOCOL_MESSAGES


def event_to_dict(event: Any) -> Dict[str, Any]:
    """One event as a flat JSON-able dict (``type``/``cat`` + fields).

    Enum values (e.g. :class:`~repro.isa.instructions.Kind` on retired
    instructions) serialize by name.
    """
    out: Dict[str, Any] = {
        "type": type(event).__name__,
        "cat": event.category,
    }
    for name, value in zip(event._fields, event):
        if isinstance(value, Enum):
            value = value.name
        out[name] = value
    return out
