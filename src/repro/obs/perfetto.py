"""Chrome trace-event exporter: open a simulation in ui.perfetto.dev.

:class:`PerfettoSink` converts the event stream into the Chrome
trace-event JSON format (the ``traceEvents`` array understood by
https://ui.perfetto.dev and ``chrome://tracing``).  Layout:

* one **process per core** (``pid = core``, named ``core N``);
* one **thread track per hardware thread** (``tid = global thread
  id``): retired instructions appear as complete slices ("X" events)
  whose duration is the instruction's occupancy, so the interleaving
  the SMT scheduler actually produced is directly visible;
* one **memory track per core** (``tid = MEM_TRACK_BASE + core``):
  cache misses, evictions, invalidations, writebacks, GLSC element
  failures and line-combines appear as instant events; GLSC
  reservations appear as async spans ("b"/"e") from link to death, so
  a reservation's lifetime — and the cause that ended it — reads as a
  bar with a labelled end.

Timestamps are simulation cycles interpreted as microseconds (1 cycle
= 1 us); relative durations are what matter.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, IO, List, Optional, Set, Tuple, Union

from repro.obs.bus import Sink

__all__ = ["PerfettoSink", "SweepTraceExporter", "MEM_TRACK_BASE"]

#: tid offset for the per-core memory-hierarchy tracks (far above any
#: plausible hardware-thread id).
MEM_TRACK_BASE = 1_000_000


class PerfettoSink(Sink):
    """Collects events and serializes Chrome trace-event JSON."""

    def __init__(self, include_hits: bool = False) -> None:
        #: whether to emit an instant per L1/L2 *hit* (high volume;
        #: misses and coherence traffic are usually what you look at).
        self.include_hits = include_hits
        self._events: List[Dict[str, Any]] = []
        self._known_tracks: Set[Tuple[int, int]] = set()
        self._known_cores: Set[int] = set()
        # open async reservation spans: (core, line, kind) -> span id
        self._open_spans: Dict[Tuple[int, int, str], int] = {}
        self._next_span = 1
        self._last_ts = 0
        # running reservation-kill tally per victim core ("C" track)
        self._kill_counts: Dict[int, int] = {}

    # -- track bookkeeping -------------------------------------------------

    def _meta(self, pid: int, name: str, tid: Optional[int] = None) -> None:
        if tid is None:
            self._events.append({
                "ph": "M", "name": "process_name", "pid": pid,
                "args": {"name": name},
            })
            self._events.append({
                "ph": "M", "name": "process_sort_index", "pid": pid,
                "args": {"sort_index": pid},
            })
        else:
            self._events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": name},
            })

    def _core_track(self, core: int) -> int:
        if core not in self._known_cores:
            self._known_cores.add(core)
            self._meta(core, f"core {core}")
            self._meta(core, "memory hierarchy", MEM_TRACK_BASE + core)
        return MEM_TRACK_BASE + core

    def _thread_track(self, core: int, thread: int) -> int:
        self._core_track(core)
        if (core, thread) not in self._known_tracks:
            self._known_tracks.add((core, thread))
            self._meta(core, f"thread {thread}", thread)
        return thread

    def _instant(
        self, ts: int, core: int, name: str, args: Dict[str, Any]
    ) -> None:
        self._events.append({
            "ph": "i", "s": "t", "ts": ts, "pid": core,
            "tid": self._core_track(core), "name": name,
            "cat": "memory", "args": args,
        })

    # -- event handling ----------------------------------------------------

    def on_event(self, event: Any) -> None:
        cycle = getattr(event, "cycle", None)
        if cycle is None:
            # Service-plane events (category "service") carry wall-clock
            # timestamps, not simulation cycles; they belong to
            # SweepTraceExporter, so a catch-all subscription skips them.
            return
        self._last_ts = max(self._last_ts, cycle)
        name = type(event).__name__
        if name == "TraceEvent":
            self._events.append({
                "ph": "X", "ts": event.cycle, "dur": event.latency,
                "pid": event.core,
                "tid": self._thread_track(event.core, event.thread),
                "name": event.kind.name, "cat": "instr",
                "args": {"sync": event.sync,
                         "completion": event.completion},
            })
        elif name == "CacheMiss":
            self._instant(
                event.cycle, event.core, f"{event.level}-miss",
                {"line": hex(event.line_addr), "op": event.op,
                 "slot": event.slot},
            )
        elif name == "CacheHit":
            if self.include_hits:
                self._instant(
                    event.cycle, event.core, f"{event.level}-hit",
                    {"line": hex(event.line_addr), "op": event.op},
                )
        elif name == "Eviction":
            self._instant(
                event.cycle, event.core, "L1-evict",
                {"line": hex(event.line_addr), "dirty": event.dirty},
            )
        elif name == "Invalidation":
            self._instant(
                event.cycle, event.core, "invalidate",
                {"line": hex(event.line_addr), "cause": event.cause},
            )
        elif name == "Writeback":
            self._instant(
                event.cycle, event.core, "writeback",
                {"line": hex(event.line_addr), "reason": event.reason},
            )
        elif name == "ReservationSet":
            key = (event.core, event.line_addr, event.kind)
            self._end_span(key, event.cycle, "relink")
            span = self._next_span
            self._next_span += 1
            self._open_spans[key] = span
            self._events.append({
                "ph": "b", "id": span, "ts": event.cycle, "pid": event.core,
                "tid": self._core_track(event.core),
                "name": f"{event.kind}-reservation", "cat": "reservation",
                "args": {"line": hex(event.line_addr), "slot": event.slot},
            })
        elif name == "ReservationLost":
            key = (event.core, event.line_addr, event.kind)
            self._end_span(key, event.cycle, event.cause)
            self._instant(
                event.cycle, event.core, f"reservation-lost:{event.cause}",
                {"line": hex(event.line_addr), "kind": event.kind,
                 "slot": event.slot, "cause": event.cause,
                 "attacker_core": getattr(event, "attacker_core", -1),
                 "attacker_slot": getattr(event, "attacker_slot", -1)},
            )
            if event.cause != "consumed":
                # Running kill tally per victim core: a "C" counter
                # track whose staircase makes contention bursts visible
                # at a glance next to the instants.
                count = self._kill_counts.get(event.core, 0) + 1
                self._kill_counts[event.core] = count
                self._events.append({
                    "ph": "C", "ts": event.cycle, "pid": event.core,
                    "name": "reservation-kills", "cat": "reservation",
                    "args": {"kills": count},
                })
        elif name == "ElementOutcome":
            if event.ok:
                return  # successes are visible as the instruction slice
            self._instant(
                event.cycle, event.core, f"glsc-fail:{event.cause}",
                {"op": event.op, "lanes": event.lanes,
                 "line": hex(event.line_addr), "cause": event.cause,
                 "slot": event.slot},
            )
        elif name == "LineCombine":
            self._instant(
                event.cycle, event.core, "line-combine",
                {"op": event.op, "lanes_saved": event.lanes_saved,
                 "line": hex(event.line_addr), "sync": event.sync},
            )
        elif getattr(event, "category", None) == "protocol":
            # Coherence-seam messages (GetS/GetM/Upgrade/.../Ack):
            # instants on the memory track, named by message kind.
            args: Dict[str, Any] = {"line": hex(event.line_addr)}
            for extra in ("occupancy", "latency", "level", "cause",
                          "writeback", "state"):
                value = getattr(event, extra, None)
                if value is not None:
                    args[extra] = value
            self._instant(
                event.cycle, event.core, f"coh:{event.kind}", args
            )

    def _end_span(
        self, key: Tuple[int, int, str], ts: int, cause: str
    ) -> None:
        span = self._open_spans.pop(key, None)
        if span is None:
            return
        core = key[0]
        self._events.append({
            "ph": "e", "id": span, "ts": ts, "pid": core,
            "tid": self._core_track(core),
            "name": f"{key[2]}-reservation", "cat": "reservation",
            "args": {"cause": cause},
        })

    def close(self) -> None:
        # Close any reservation still live at the end of the run so
        # the trace contains no dangling async begins.
        for key in list(self._open_spans):
            self._end_span(key, self._last_ts, "run_end")

    # -- output ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The complete Chrome trace-event document."""
        from repro import __version__

        return {
            "traceEvents": list(self._events),
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.obs.perfetto",
                "version": __version__,
                "clock": "1 simulated cycle = 1us",
            },
        }

    def write(self, destination: Union[str, "os.PathLike", IO[str]]) -> None:
        """Serialize to ``destination`` (path or open text file)."""
        self.close()
        if isinstance(destination, (str, os.PathLike)):
            with open(destination, "w", encoding="utf-8") as fh:
                json.dump(self.to_dict(), fh)
        else:
            json.dump(self.to_dict(), destination)

    def __len__(self) -> int:
        return len(self._events)


class SweepTraceExporter(Sink):
    """Multi-process Chrome trace of one distributed sweep drain.

    Where :class:`PerfettoSink` lays out one simulation (cores as
    processes, cycles as time), this exporter lays out one *sweep*
    crossing the service (wall-clock time, microsecond resolution):

    * pid 0 — the **sweep lifecycle** process: one async span ("b"/"e")
      per spec digest, stretching from its first recorded phase
      (normally ``enqueued``) to its last (normally ``saved``), with
      an instant per phase transition;
    * one **process per actor** (each worker, the queue):
      a worker's ``claimed → simulated`` interval renders as a
      ``simulate`` slice and ``simulated → saved`` as a ``save``
      slice, so a two-worker drain shows both workers' interleaved
      work as parallel process tracks.

    Feed it either live :class:`~repro.obs.events.TaskPhase` events
    (it is a ``service``-category :class:`~repro.obs.bus.Sink`) or
    span records collected from the queue's sidecar files with
    :func:`~repro.obs.sweeptrace.collect_spans` (the cross-process
    path used by ``repro sweep-trace``).
    """

    categories = ("service",)

    #: The phase pairs drawn as duration slices on actor tracks.
    SLICES = (("claimed", "simulated", "simulate"),
              ("simulated", "saved", "save"))

    def __init__(self) -> None:
        self._records: List[Dict[str, Any]] = []

    def on_event(self, event: Any) -> None:
        if getattr(event, "category", None) != "service":
            return
        self.add({
            "ts": event.ts, "phase": event.phase, "digest": event.digest,
            "actor": event.actor, "trace_id": event.trace_id,
        })

    def add(self, record: Dict[str, Any]) -> None:
        """Add one span record (``{ts, phase, digest, actor, ...}``)."""
        if "ts" in record and "digest" in record and "phase" in record:
            self._records.append(record)

    @classmethod
    def from_spans(
        cls, spans: List[Dict[str, Any]]
    ) -> "SweepTraceExporter":
        exporter = cls()
        for record in spans:
            exporter.add(record)
        return exporter

    def __len__(self) -> int:
        return len(self._records)

    # -- document --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The complete Chrome trace-event document."""
        from repro import __version__

        events: List[Dict[str, Any]] = []
        records = sorted(self._records, key=lambda r: r["ts"])
        if records:
            t0 = records[0]["ts"]

            def us(ts: float) -> int:
                return int(round((ts - t0) * 1e6))

            events.append({
                "ph": "M", "name": "process_name", "pid": 0,
                "args": {"name": "sweep lifecycle"},
            })
            events.append({
                "ph": "M", "name": "process_sort_index", "pid": 0,
                "args": {"sort_index": 0},
            })
            actor_pid: Dict[str, int] = {}
            for record in records:
                actor = str(record.get("actor", "") or "?")
                if actor not in actor_pid:
                    pid = len(actor_pid) + 1
                    actor_pid[actor] = pid
                    events.append({
                        "ph": "M", "name": "process_name", "pid": pid,
                        "args": {"name": actor},
                    })
                    events.append({
                        "ph": "M", "name": "process_sort_index",
                        "pid": pid, "args": {"sort_index": pid},
                    })

            by_digest: Dict[str, List[Dict[str, Any]]] = {}
            for record in records:
                by_digest.setdefault(record["digest"], []).append(record)

            span_id = 1
            for digest in sorted(by_digest):
                group = by_digest[digest]
                first, last = group[0], group[-1]
                name = digest[:12]
                trace_id = next(
                    (r.get("trace_id") for r in group
                     if r.get("trace_id")), "",
                )
                events.append({
                    "ph": "b", "id": span_id, "ts": us(first["ts"]),
                    "pid": 0, "tid": 0, "name": name, "cat": "lifecycle",
                    "args": {"digest": digest, "trace_id": trace_id},
                })
                events.append({
                    "ph": "e", "id": span_id,
                    "ts": max(us(last["ts"]), us(first["ts"]) + 1),
                    "pid": 0, "tid": 0, "name": name, "cat": "lifecycle",
                    "args": {"last_phase": last["phase"]},
                })
                span_id += 1
                for record in group:
                    events.append({
                        "ph": "i", "s": "t", "ts": us(record["ts"]),
                        "pid": 0, "tid": 0, "name": record["phase"],
                        "cat": "lifecycle",
                        "args": {"digest": name,
                                 "actor": record.get("actor", "")},
                    })

                # Actor-track slices: first occurrence of each phase
                # per (actor, digest) pairs into simulate/save slices.
                per_actor: Dict[str, Dict[str, float]] = {}
                for record in group:
                    actor = str(record.get("actor", "") or "?")
                    per_actor.setdefault(actor, {}).setdefault(
                        record["phase"], record["ts"]
                    )
                for actor, phases in per_actor.items():
                    pid = actor_pid[actor]
                    sliced: set = set()
                    for begin, end, label in self.SLICES:
                        if begin in phases and end in phases:
                            start = us(phases[begin])
                            events.append({
                                "ph": "X", "ts": start,
                                "dur": max(us(phases[end]) - start, 1),
                                "pid": pid, "tid": 0,
                                "name": f"{label} {name}", "cat": "work",
                                "args": {"digest": digest},
                            })
                            sliced.update((begin, end))
                    for phase, ts in phases.items():
                        if phase in sliced:
                            continue
                        events.append({
                            "ph": "i", "s": "t", "ts": us(ts),
                            "pid": pid, "tid": 0,
                            "name": f"{phase} {name}", "cat": "work",
                            "args": {"digest": digest},
                        })

        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.obs.perfetto.SweepTraceExporter",
                "version": __version__,
                "clock": "wall time, us since first span",
                "spans": len(self._records),
            },
        }

    def write(self, destination: Union[str, "os.PathLike", IO[str]]) -> None:
        """Serialize to ``destination`` (path or open text file)."""
        if isinstance(destination, (str, os.PathLike)):
            with open(destination, "w", encoding="utf-8") as fh:
                json.dump(self.to_dict(), fh)
        else:
            json.dump(self.to_dict(), destination)
