"""Tests for the event bus: routing, flags, lifecycle."""

import pytest

from repro.errors import ConfigError
from repro.isa.instructions import Kind
from repro.obs.bus import EventBus, Sink
from repro.obs.events import (
    CATEGORIES, CacheHit, CacheMiss, ReservationLost,
)
from repro.sim.trace import TraceEvent


class Collect(Sink):
    def __init__(self, categories=None):
        self.categories = categories
        self.events = []
        self.closed = 0

    def on_event(self, event):
        self.events.append(event)

    def close(self):
        self.closed += 1


def instr_event():
    return TraceEvent(
        cycle=0, completion=3, thread=0, core=0, kind=Kind.ALU, sync=False
    )


class TestSubscription:
    def test_attach_returns_the_sink(self):
        bus = EventBus()
        sink = Collect()
        assert bus.attach(sink) is sink
        assert bus.sinks == [sink]

    def test_default_subscription_is_every_category(self):
        bus = EventBus()
        bus.attach(Collect())
        for category in CATEGORIES:
            assert bus.wants(category)

    def test_explicit_categories_override_the_default(self):
        bus = EventBus()
        bus.attach(Collect(), categories=("cache",))
        assert bus.wants("cache")
        assert not bus.wants("instr")
        assert not bus.wants("glsc")

    def test_sink_class_default_categories_respected(self):
        bus = EventBus()
        bus.attach(Collect(categories=("reservation",)))
        assert bus.wants("reservation")
        assert not bus.wants("cache")

    def test_unknown_category_rejected(self):
        bus = EventBus()
        with pytest.raises(ConfigError):
            bus.attach(Collect(), categories=("cache", "nope"))

    def test_wants_flags_track_attachments(self):
        bus = EventBus()
        assert not any(
            [bus.wants_instr, bus.wants_cache, bus.wants_coherence,
             bus.wants_reservation, bus.wants_glsc]
        )
        bus.attach(Collect(), categories=("cache", "glsc"))
        assert bus.wants_cache and bus.wants_glsc
        assert not bus.wants_instr
        assert not bus.wants_coherence
        assert not bus.wants_reservation


class TestDispatch:
    def test_events_route_by_category(self):
        bus = EventBus()
        cache_sink = bus.attach(Collect(), categories=("cache",))
        instr_sink = bus.attach(Collect(), categories=("instr",))
        everything = bus.attach(Collect())

        miss = CacheMiss(1, 0, 0, 0x40, "L1", "read")
        instr = instr_event()
        bus.emit(miss)
        bus.emit(instr)

        assert cache_sink.events == [miss]
        assert instr_sink.events == [instr]
        assert everything.events == [miss, instr]

    def test_emission_order_preserved(self):
        bus = EventBus()
        sink = bus.attach(Collect())
        events = [
            CacheMiss(i, 0, 0, 0x40 * i, "L1", "read") for i in range(5)
        ]
        for event in events:
            bus.emit(event)
        assert sink.events == events

    def test_tracer_is_a_valid_instr_sink(self):
        from repro.sim.trace import InstructionTrace

        bus = EventBus()
        trace = bus.attach(InstructionTrace())
        assert bus.wants_instr
        assert not bus.wants_cache  # categories == ("instr",)
        event = instr_event()
        bus.emit(event)
        assert list(trace) == [event]


    def test_handler_table_sinks_get_direct_calls(self):
        class Misses(Sink):
            def __init__(self):
                self.seen = []

            def on_event(self, event):
                raise AssertionError("the bus should call the handler")

            def _on_miss(self, event):
                self.seen.append(event)

            handlers = {CacheMiss: _on_miss}

        bus = EventBus()
        misses = bus.attach(Misses(), categories=("cache",))
        everything = bus.attach(Collect())
        miss = CacheMiss(1, 0, 0, 0x40, "L1", "read")
        hit = CacheHit(2, 0, 0, 0x40, "L1", "read")
        bus.emit(miss)
        bus.emit(hit)  # same category, no handler: not delivered
        assert misses.seen == [miss]
        assert everything.events == [miss, hit]

    def test_attach_after_emit_reroutes(self):
        bus = EventBus()
        first = bus.attach(Collect(), categories=("cache",))
        bus.emit(CacheMiss(1, 0, 0, 0x40, "L1", "read"))
        second = bus.attach(Collect(), categories=("cache",))
        miss = CacheMiss(2, 0, 0, 0x80, "L1", "read")
        bus.emit(miss)
        assert len(first.events) == 2
        assert second.events == [miss]


class TestLifecycle:
    def test_close_reaches_every_sink_once(self):
        bus = EventBus()
        first, second = bus.attach(Collect()), bus.attach(Collect())
        bus.close()
        bus.close()  # idempotent
        assert first.closed == 1
        assert second.closed == 1

    def test_context_manager_closes(self):
        sink = Collect()
        with EventBus() as bus:
            bus.attach(sink)
            bus.emit(ReservationLost(1, 0, 0, 0x40, "scalar", "chaos"))
        assert sink.closed == 1
        assert len(sink.events) == 1
