"""Transaction-level message vocabulary of the coherence seam.

The directory protocol is spoken in *messages*, the way
``to_the_moon``'s AXI-style MSI directory phrases it: the L1 side
issues a request (:class:`GetS`, :class:`GetM`, :class:`Upgrade`), the
directory answers with an :class:`Ack`, and along the way it may fan
out :class:`Inv` (invalidate an L1 copy) and :class:`Fwd`
(forward/downgrade the owner's copy) to third parties; :class:`PutM`
and :class:`PutS` notify the directory of dirty/clean evictions.  A
:class:`~repro.mem.protocol.CoherenceProtocol` implementation is
exactly a policy for turning requests into responses plus side
messages; :class:`~repro.mem.coherence.CoherenceSystem` no longer
knows *how* a miss is serviced, only that it issues a request and an
``Ack`` comes back.

Messages are also bus events (``category = "protocol"``): when an
:class:`~repro.obs.bus.EventBus` has a sink subscribed to the
``protocol`` category, every seam message is emitted on the bus, so
Perfetto traces and :class:`~repro.obs.sinks.MetricsSink` show
upgrade/forward traffic per protocol.  They obey the bus's
zero-cost-when-disabled contract — emission sites construct a message
only behind a ``wants_protocol`` guard; the always-on per-kind tallies
live in :attr:`~repro.mem.protocol.CoherenceProtocol.counts` as plain
integers.  Request/response messages carry the two quantities the
timing model produces:

* ``occupancy`` — cycles the request waited for its L2 bank (the
  banked-directory queueing cost, request side), and
* ``latency`` — total thread-visible cycles of the transaction
  (:class:`Ack`, response side).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.records import record

__all__ = [
    "MSG_KINDS",
    "PROTOCOL_MESSAGES",
    "GetS",
    "GetM",
    "Upgrade",
    "SilentUpgrade",
    "PutM",
    "PutS",
    "Inv",
    "Fwd",
    "Ack",
]

#: Every message kind a protocol can speak, in documentation order.
#: ``silent_upgrade`` is not a message on the wire — it is MESI's
#: whole point (an E->M transition with *no* directory traffic) — but
#: it is tallied alongside the real messages so traffic comparisons
#: can show what the protocol saved.
MSG_KINDS: Tuple[str, ...] = (
    "GetS",
    "GetM",
    "Upgrade",
    "silent_upgrade",
    "PutM",
    "PutS",
    "Inv",
    "Fwd",
    "Ack",
)


@record
class GetS(NamedTuple):
    """L1 -> directory: read miss; requester wants a readable copy."""

    category = "protocol"
    kind = "GetS"

    cycle: int
    core: int
    slot: int
    line_addr: int
    #: Cycles the request spent queued behind the line's L2 bank.
    occupancy: int = 0


@record
class GetM(NamedTuple):
    """L1 -> directory: write miss; requester wants the sole M copy."""

    category = "protocol"
    kind = "GetM"

    cycle: int
    core: int
    slot: int
    line_addr: int
    occupancy: int = 0


@record
class Upgrade(NamedTuple):
    """L1 -> directory: S -> M upgrade for an already-resident line."""

    category = "protocol"
    kind = "Upgrade"

    cycle: int
    core: int
    slot: int
    line_addr: int
    occupancy: int = 0


@record
class SilentUpgrade(NamedTuple):
    """E -> M with no directory traffic (MESI/MOESI's saved Upgrade).

    Not a message on the wire; emitted so traffic comparisons can see
    the upgrades the E state elided.
    """

    category = "protocol"
    kind = "silent_upgrade"

    cycle: int
    core: int
    slot: int
    line_addr: int


@record
class PutM(NamedTuple):
    """L1 -> directory: a dirty line left the L1 (eviction writeback)."""

    category = "protocol"
    kind = "PutM"

    cycle: int
    core: int
    line_addr: int


@record
class PutS(NamedTuple):
    """L1 -> directory: a clean line left the L1 (eviction notice).

    Real MESI implementations may drop clean lines silently; this
    model always notifies so the directory's sharer sets stay exact
    (the inclusive L2 needs them for back-invalidation).
    """

    category = "protocol"
    kind = "PutS"

    cycle: int
    core: int
    line_addr: int


@record
class Inv(NamedTuple):
    """Directory -> L1: invalidate your copy (writer upgrading, or the
    inclusive L2 evicted the line)."""

    category = "protocol"
    kind = "Inv"

    cycle: int
    core: int      # the core that loses its copy
    line_addr: int
    cause: str     # "remote_write" | "l2_eviction"


@record
class Fwd(NamedTuple):
    """Directory -> owner: forward your copy to a reader.

    Under MSI/MESI the owner downgrades to S and (if dirty) writes
    back; under MOESI the owner keeps the dirty data and moves to O.
    """

    category = "protocol"
    kind = "Fwd"

    cycle: int
    core: int        # the owning core being forwarded from
    line_addr: int
    writeback: bool  # whether dirty data returned to the L2


@record
class Ack(NamedTuple):
    """Directory -> requester: transaction complete.

    ``latency`` is the total thread-visible cost; ``level`` names the
    deepest level reached (the :class:`~repro.mem.coherence.
    AccessResult` vocabulary); ``state`` is the L1 state the requester
    installed (``None`` when the install was refused, e.g. every
    eviction candidate held a live GLSC reservation).
    """

    category = "protocol"
    kind = "Ack"

    cycle: int
    core: int
    line_addr: int
    latency: int
    level: str
    state: Optional[int]


#: The message classes, in :data:`MSG_KINDS` order — joined into
#: :data:`repro.obs.events.EVENT_TYPES` so the bus, the sinks, and the
#: no-allocation guard all treat seam messages as first-class events.
PROTOCOL_MESSAGES: Tuple[type, ...] = (
    GetS,
    GetM,
    Upgrade,
    SilentUpgrade,
    PutM,
    PutS,
    Inv,
    Fwd,
    Ack,
)
