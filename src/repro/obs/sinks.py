"""Standard sinks: in-memory aggregation and bounded JSONL capture.

:class:`MetricsSink` answers the calibration-debugging questions the
paper's analysis sections ask (why did a reservation die? how long do
links live? which thread burned the cycles?) without storing the raw
stream.  :class:`JsonlSink` stores the raw stream — bounded, one JSON
object per line — for ad-hoc analysis with standard tools.
"""

from __future__ import annotations

import json
import warnings
from collections import Counter, defaultdict
from typing import IO, Any, Dict, List, Optional, Tuple, Union

from repro.obs.bus import Sink
from repro.obs.events import (
    CacheHit,
    CacheMiss,
    ElementOutcome,
    Eviction,
    Invalidation,
    LineCombine,
    PROTOCOL_MESSAGES,
    ReservationLost,
    ReservationSet,
    Writeback,
    event_to_dict,
)
from repro.sim.trace import TraceEvent

__all__ = ["MetricsSink", "JsonlSink"]


class MetricsSink(Sink):
    """Aggregates the event stream into attribution-grade metrics.

    * **Reservation lifetimes** — cycles between a GLSC link being set
      and destroyed (or consumed), as a power-of-two histogram plus
      exact totals, split by cause of death;
    * **Failure timelines** — per-cause GLSC element-failure lane
      counts bucketed by cycle window (``bucket`` cycles wide), so a
      contention burst is visible as a spike, not a final-total blur;
    * **Per-thread occupancy** — busy/sync cycles and instruction
      counts per hardware thread, from retired-instruction events;
    * **Hierarchy counters** — hits/misses by level, evictions,
      invalidations, writebacks, combining savings; these reproduce
      the matching :class:`~repro.sim.stats.MachineStats` counters
      exactly (asserted by tests).
    """

    def __init__(self, bucket: int = 1024) -> None:
        if bucket < 1:
            raise ValueError(f"bucket must be >= 1, got {bucket}")
        self.bucket = bucket
        # cache/coherence counters
        self.hits: Dict[str, int] = Counter()          # level -> count
        self.misses: Dict[str, int] = Counter()        # level -> count
        self.evictions = 0
        self.invalidations: Dict[str, int] = Counter()  # cause -> count
        self.writebacks: Dict[str, int] = Counter()     # reason -> count
        # coherence-seam traffic: message kind -> count (MSG_KINDS
        # vocabulary; mirrors CoherenceProtocol.counts when the sink
        # subscribes to the "protocol" category)
        self.protocol_traffic: Dict[str, int] = Counter()
        # GLSC / reservation attribution
        self.element_failures: Dict[str, int] = Counter()   # cause -> lanes
        self.element_successes: Dict[str, int] = Counter()  # op -> lanes
        self.lanes_saved_by_combining = 0
        self.reservation_deaths: Dict[str, int] = Counter()  # cause -> count
        self.failure_timeline: Dict[str, Dict[int, int]] = defaultdict(Counter)
        # lifetime tracking: (core, line) -> set cycle, for GLSC links
        self._live_links: Dict[Tuple[int, int], int] = {}
        self.lifetime_hist: Dict[str, Dict[int, int]] = defaultdict(Counter)
        self.lifetime_total: Dict[str, int] = Counter()
        self.lifetime_count: Dict[str, int] = Counter()
        # per-thread occupancy, from instr events
        self.thread_busy: Dict[int, int] = Counter()
        self.thread_sync: Dict[int, int] = Counter()
        self.thread_instructions: Dict[int, int] = Counter()
        self.events_seen = 0

    # -- event handling ----------------------------------------------------

    def on_event(self, event: Any) -> None:
        self.events_seen += 1
        handler = self._HANDLERS.get(type(event))
        if handler is not None:
            handler(self, event)

    def _on_instr(self, event: Any) -> None:
        self.thread_busy[event.thread] += event.latency
        self.thread_instructions[event.thread] += 1
        if event.sync:
            self.thread_sync[event.thread] += event.latency

    def _on_hit(self, event: CacheHit) -> None:
        self.hits[event.level] += 1

    def _on_miss(self, event: CacheMiss) -> None:
        self.misses[event.level] += 1

    def _on_eviction(self, event: Eviction) -> None:
        self.evictions += 1

    def _on_invalidation(self, event: Invalidation) -> None:
        self.invalidations[event.cause] += 1

    def _on_writeback(self, event: Writeback) -> None:
        self.writebacks[event.reason] += 1

    def _on_reservation_set(self, event: ReservationSet) -> None:
        if event.kind == "glsc":
            self._live_links[(event.core, event.line_addr)] = event.cycle

    def _on_reservation_lost(self, event: ReservationLost) -> None:
        self.reservation_deaths[event.cause] += 1
        if event.kind != "glsc":
            return
        born = self._live_links.pop((event.core, event.line_addr), None)
        if born is None:
            return
        age = max(event.cycle - born, 0)
        self.lifetime_hist[event.cause][age.bit_length()] += 1
        self.lifetime_total[event.cause] += age
        self.lifetime_count[event.cause] += 1

    def _on_element(self, event: ElementOutcome) -> None:
        if event.ok:
            self.element_successes[event.op] += event.lanes
        else:
            self.element_failures[event.cause] += event.lanes
            self.failure_timeline[event.cause][
                event.cycle // self.bucket
            ] += event.lanes

    def _on_combine(self, event: LineCombine) -> None:
        if event.sync:
            self.lanes_saved_by_combining += event.lanes_saved

    def _on_protocol(self, event: Any) -> None:
        self.protocol_traffic[event.kind] += 1

    #: Event class -> handler (one dict lookup per event).
    _HANDLERS = {
        TraceEvent: _on_instr,
        CacheHit: _on_hit,
        CacheMiss: _on_miss,
        Eviction: _on_eviction,
        Invalidation: _on_invalidation,
        Writeback: _on_writeback,
        ReservationSet: _on_reservation_set,
        ReservationLost: _on_reservation_lost,
        ElementOutcome: _on_element,
        LineCombine: _on_combine,
    }
    for _msg in PROTOCOL_MESSAGES:
        _HANDLERS[_msg] = _on_protocol
    del _msg

    # -- queries ----------------------------------------------------------

    def mean_lifetime(self, cause: str) -> float:
        """Mean GLSC reservation age at death for ``cause`` (cycles)."""
        count = self.lifetime_count.get(cause, 0)
        if count == 0:
            return 0.0
        return self.lifetime_total[cause] / count

    def summary(self) -> Dict[str, Any]:
        """The headline aggregates as plain JSON-able data."""
        return {
            "events": self.events_seen,
            "l1_hits": self.hits.get("L1", 0),
            "l1_misses": self.misses.get("L1", 0),
            "l2_hits": self.hits.get("L2", 0),
            "l2_misses": self.misses.get("L2", 0),
            "evictions": self.evictions,
            "invalidations": dict(self.invalidations),
            "writebacks": dict(self.writebacks),
            "protocol_traffic": dict(self.protocol_traffic),
            "element_failures": dict(self.element_failures),
            "element_successes": dict(self.element_successes),
            "lanes_saved_by_combining": self.lanes_saved_by_combining,
            "reservation_deaths": dict(self.reservation_deaths),
            "mean_link_lifetime": {
                cause: self.mean_lifetime(cause)
                for cause in sorted(self.lifetime_count)
            },
            "thread_busy_cycles": dict(self.thread_busy),
            "thread_sync_cycles": dict(self.thread_sync),
        }

    def render(self) -> str:
        """Human-readable metrics report (harness ``profile`` output)."""
        lines = [f"events observed: {self.events_seen}"]
        if self.hits or self.misses:
            lines.append(
                f"L1 {self.hits.get('L1', 0)} hits / "
                f"{self.misses.get('L1', 0)} misses;  "
                f"L2 {self.hits.get('L2', 0)} hits / "
                f"{self.misses.get('L2', 0)} misses;  "
                f"{self.evictions} L1 evictions"
            )
        if self.invalidations or self.writebacks:
            inv = ", ".join(
                f"{cause}={n}" for cause, n in sorted(self.invalidations.items())
            )
            wb = ", ".join(
                f"{reason}={n}" for reason, n in sorted(self.writebacks.items())
            )
            lines.append(f"invalidations: {inv or '-'};  writebacks: {wb or '-'}")
        if self.protocol_traffic:
            traffic = ", ".join(
                f"{kind}={n}"
                for kind, n in sorted(self.protocol_traffic.items())
            )
            lines.append(f"protocol traffic: {traffic}")
        if self.element_failures or self.element_successes:
            ok = sum(self.element_successes.values())
            fails = ", ".join(
                f"{cause}={n}"
                for cause, n in sorted(self.element_failures.items())
            )
            lines.append(
                f"GLSC element lanes: {ok} ok;  failures: {fails or 'none'};  "
                f"{self.lanes_saved_by_combining} L1 accesses saved by "
                f"combining"
            )
        if self.lifetime_count:
            ages = ", ".join(
                f"{cause}={self.mean_lifetime(cause):.0f}cyc"
                for cause in sorted(self.lifetime_count)
            )
            lines.append(f"mean link lifetime by cause of death: {ages}")
        if self.thread_busy:
            top = sorted(
                self.thread_busy.items(), key=lambda kv: -kv[1]
            )[:8]
            occ = ", ".join(f"t{tid}={busy}" for tid, busy in top)
            lines.append(f"busiest threads (occupied cycles): {occ}")
        return "\n".join(lines)


class JsonlSink(Sink):
    """Writes events as newline-delimited JSON, bounded by ``limit``.

    Once ``limit`` events are written, further events only increment
    :attr:`dropped` — the file stays a prefix of the stream, like
    :class:`~repro.sim.trace.InstructionTrace`'s event list.  The
    first dropped event emits a one-time :class:`RuntimeWarning` (a
    truncated dump silently passing for a complete one is exactly the
    kind of observability gap this layer exists to close);
    :meth:`summary` reports the written/dropped totals and the CLI
    prints it after every ``trace --jsonl`` run.
    """

    def __init__(
        self, destination: Union[str, IO[str]], limit: Optional[int] = None
    ) -> None:
        if isinstance(destination, str):
            self._fh: IO[str] = open(destination, "w", encoding="utf-8")
            self._owns_fh = True
        else:
            self._fh = destination
            self._owns_fh = False
        self.limit = limit
        self.written = 0
        self.dropped = 0

    def on_event(self, event: Any) -> None:
        if self.limit is not None and self.written >= self.limit:
            if self.dropped == 0:
                warnings.warn(
                    f"JsonlSink hit its {self.limit}-event bound; "
                    "further events are dropped (the file is a prefix "
                    "of the stream, not the whole run)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self.dropped += 1
            return
        json.dump(event_to_dict(event), self._fh, separators=(",", ":"))
        self._fh.write("\n")
        self.written += 1

    def summary(self) -> str:
        """One-line accounting of what made it to disk."""
        bound = "unbounded" if self.limit is None else f"limit {self.limit}"
        return (
            f"jsonl: {self.written} events written, "
            f"{self.dropped} dropped ({bound})"
        )

    def close(self) -> None:
        self._fh.flush()
        if self._owns_fh:
            self._fh.close()
