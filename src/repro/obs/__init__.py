"""Observability layer: typed event bus, sinks, and run telemetry.

The simulator's end-of-run counters (:class:`~repro.sim.stats.
MachineStats`) say *how much* happened; this package says *when* and
*why*.  The paper's whole argument rests on micro-event attribution —
which reservation died to which invalidation, which lanes aliased,
which L1 accesses the GSU combined away (Sections 3-5, Table 4) — so
the model exposes the same attribution as a stream of typed events.

Three pieces:

* :mod:`repro.obs.events` — the event taxonomy (immutable records,
  one category per subsystem: ``instr``, ``cache``, ``coherence``,
  ``reservation``, ``glsc``);
* :mod:`repro.obs.bus` — :class:`EventBus`, the dispatch fabric.
  Emission sites are guarded by per-category boolean flags, so with no
  bus (or no sink subscribed to a category) a run allocates **no event
  objects at all** — the disabled path is a single attribute test;
* sinks — :class:`MetricsSink` (in-memory aggregation: reservation
  lifetime histograms, per-cause failure timelines, per-thread
  occupancy), :class:`JsonlSink` (bounded newline-delimited JSON), and
  :class:`PerfettoSink` (Chrome trace-event JSON: open the output in
  https://ui.perfetto.dev with threads x cores laid out as tracks).

Quickstart::

    from repro.obs import EventBus, MetricsSink, PerfettoSink
    from repro.sim.executor import RunSpec, execute_spec

    bus = EventBus()
    metrics = bus.attach(MetricsSink())
    perfetto = bus.attach(PerfettoSink())
    stats = execute_spec(RunSpec("tms", "A"), obs=bus)
    bus.close()
    perfetto.write("tms-glsc.trace.json")   # -> ui.perfetto.dev
    print(metrics.render())

Run-level telemetry (wall time, sim throughput, cache provenance)
lives in :mod:`repro.obs.telemetry` and is collected by the
:class:`~repro.sim.executor.Executor` for every spec it serves.
"""

from repro.obs.bus import EventBus, Sink
from repro.obs.contention import ContentionSink, ContentionSummary
from repro.obs.events import (
    CATEGORIES,
    CacheHit,
    CacheMiss,
    ElementOutcome,
    Eviction,
    EVENT_TYPES,
    Invalidation,
    LineCombine,
    ReservationLost,
    ReservationSet,
    Writeback,
    event_to_dict,
)
from repro.obs.log import NULL_LOGGER, StructLogger, to_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.perfetto import PerfettoSink, SweepTraceExporter
from repro.obs.sinks import JsonlSink, MetricsSink
from repro.obs.sweeptrace import (
    SpanLog,
    collect_spans,
    new_trace_id,
    read_heartbeats,
    write_heartbeat,
)
from repro.obs.telemetry import RunTelemetry, run_provenance

__all__ = [
    "CATEGORIES",
    "CacheHit",
    "CacheMiss",
    "ContentionSink",
    "ContentionSummary",
    "Counter",
    "ElementOutcome",
    "EVENT_TYPES",
    "EventBus",
    "Eviction",
    "Gauge",
    "Histogram",
    "Invalidation",
    "JsonlSink",
    "LineCombine",
    "MetricsRegistry",
    "MetricsSink",
    "NULL_LOGGER",
    "PerfettoSink",
    "ReservationLost",
    "ReservationSet",
    "RunTelemetry",
    "Sink",
    "SpanLog",
    "StructLogger",
    "SweepTraceExporter",
    "Writeback",
    "collect_spans",
    "event_to_dict",
    "get_registry",
    "new_trace_id",
    "read_heartbeats",
    "run_provenance",
    "to_logger",
    "write_heartbeat",
]
