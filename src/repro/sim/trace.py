"""Instruction tracing and execution summaries.

:class:`InstructionTrace` is an :class:`~repro.obs.bus.EventBus` sink
for the ``instr`` category: attached to the bus a machine runs with,
it receives every retired instruction (thread, kind, issue cycle,
completion cycle, sync attribution) as a :class:`TraceEvent`.  This is
the introspection seam for debugging kernels and for analyses the
stock counters do not cover (latency histograms, per-kind time
breakdowns, interleaving dumps)::

    bus = EventBus()
    trace = bus.attach(InstructionTrace())
    execute_spec(spec, obs=bus)
    print(trace.render())

Its :meth:`~InstructionTrace.kind_profile` reproduces the
per-instruction latency breakdowns used while calibrating this model
against the paper's Table 4.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional

from repro.isa.instructions import Kind
from repro.obs.bus import Sink
from repro.records import record

__all__ = ["TraceEvent", "InstructionTrace", "KindProfile"]


@record
class TraceEvent(NamedTuple):
    """One retired instruction (event category ``"instr"``)."""

    category = "instr"

    cycle: int
    completion: int
    thread: int
    core: int
    kind: Kind
    sync: bool

    @property
    def latency(self) -> int:
        """Cycles the issuing thread was occupied by this instruction."""
        return max(self.completion - self.cycle, 1)


@dataclass
class KindProfile:
    """Aggregate statistics for one instruction kind."""

    count: int = 0
    total_latency: int = 0
    max_latency: int = 0

    @property
    def mean_latency(self) -> float:
        """Average occupancy per instruction of this kind."""
        return self.total_latency / self.count if self.count else 0.0


class InstructionTrace(Sink):
    """Collects events (optionally capped) and summarizes them.

    ``limit`` bounds memory for long runs: once reached, events are
    dropped but the aggregate profile keeps updating, so summaries stay
    exact while the event list is a prefix.
    """

    categories = ("instr",)

    def __init__(self, limit: Optional[int] = None) -> None:
        self.events: List[TraceEvent] = []
        self.dropped = 0
        self.limit = limit
        self._profile: Dict[Kind, KindProfile] = defaultdict(KindProfile)

    def record(self, event: TraceEvent) -> None:
        """Called once per retired instruction, in issue order per core."""
        if self.limit is None or len(self.events) < self.limit:
            self.events.append(event)
        else:
            self.dropped += 1
        profile = self._profile[event.kind]
        profile.count += 1
        profile.total_latency += event.latency
        profile.max_latency = max(profile.max_latency, event.latency)

    handlers = {TraceEvent: record}

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def kind_profile(self) -> Dict[Kind, KindProfile]:
        """Per-kind counts and latency aggregates (exact, uncapped)."""
        return dict(self._profile)

    def for_thread(self, thread: int) -> List[TraceEvent]:
        """Collected events of one thread, in issue order."""
        return [e for e in self.events if e.thread == thread]

    def sync_share(self) -> float:
        """Fraction of recorded occupancy spent in sync instructions."""
        total = sum(e.latency for e in self.events)
        if total == 0:
            return 0.0
        return sum(e.latency for e in self.events if e.sync) / total

    def render(self, top: int = 10) -> str:
        """Human-readable per-kind latency table, highest total first."""
        rows = sorted(
            self._profile.items(),
            key=lambda item: -item[1].total_latency,
        )[:top]
        lines = [f"{'kind':14s} {'count':>8s} {'mean':>8s} {'max':>6s} "
                 f"{'total':>10s}"]
        for kind, profile in rows:
            lines.append(
                f"{kind.name:14s} {profile.count:8d} "
                f"{profile.mean_latency:8.1f} {profile.max_latency:6d} "
                f"{profile.total_latency:10d}"
            )
        return "\n".join(lines)
