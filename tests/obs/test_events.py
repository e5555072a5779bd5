"""Tests for the typed observability events."""

import dataclasses

import pytest

from repro.isa.instructions import Kind
from repro.obs.events import (
    CATEGORIES,
    EVENT_TYPES,
    CacheMiss,
    ElementOutcome,
    LineCombine,
    ReservationLost,
    all_event_types,
    event_to_dict,
)
from repro.sim.trace import TraceEvent


class TestEventTypes:
    def test_every_type_has_a_known_category(self):
        for event_type in all_event_types():
            assert event_type.category in CATEGORIES

    def test_all_event_types_includes_trace_event(self):
        assert TraceEvent in all_event_types()
        assert TraceEvent not in EVENT_TYPES  # static tuple stays lazy

    def test_events_are_frozen(self):
        event = CacheMiss(5, 0, 1, 0x100, "L1", "read")
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.cycle = 6

    @pytest.mark.parametrize(
        "event_type", all_event_types(), ids=lambda t: t.__name__
    )
    def test_every_record_is_frozen(self, event_type):
        event = event_type(*range(len(event_type._fields)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.cycle = 6
        with pytest.raises(dataclasses.FrozenInstanceError):
            del event.cycle
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.extra = 1

    def test_different_types_never_compare_equal(self):
        from repro.mem.messages import GetM, GetS, PutM, PutS

        assert GetS(1, 0, 0, 0x40) != GetM(1, 0, 0, 0x40)
        assert not GetS(1, 0, 0, 0x40) == GetM(1, 0, 0, 0x40)
        assert PutM(1, 0, 0x40) != PutS(1, 0, 0x40)
        # nor equal to the plain tuple of their fields, either way round
        assert CacheMiss(5, 0, 1, 0x100, "L1", "read") != (
            5, 0, 1, 0x100, "L1", "read")
        assert (5, 0, 1, 0x100, "L1", "read") != CacheMiss(
            5, 0, 1, 0x100, "L1", "read")

    def test_same_type_equal_fields_are_equal_and_hash_alike(self):
        a = ReservationLost(3, 1, 0, 0x80, "glsc", "eviction")
        b = ReservationLost(3, 1, 0, 0x80, "glsc", "eviction", -1, -1)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_trace_event_latency(self):
        event = TraceEvent(10, 14, 2, 0, Kind.VGATHERLINK, True)
        assert event.latency == 4
        assert TraceEvent(10, 10, 2, 0, Kind.ALU, False).latency == 1
        assert "latency" not in TraceEvent._fields

    def test_category_is_not_a_field(self):
        # category lives on the class so construction never pays for it
        for event_type in all_event_types():
            assert "category" not in event_type._fields


class TestEventToDict:
    def test_flat_dict_with_type_and_category(self):
        event = CacheMiss(5, 0, 1, 0x100, "L1", "read")
        data = event_to_dict(event)
        assert data == {
            "type": "CacheMiss",
            "cat": "cache",
            "cycle": 5,
            "core": 0,
            "slot": 1,
            "line_addr": 0x100,
            "level": "L1",
            "op": "read",
        }

    def test_enum_fields_serialize_by_name(self):
        event = TraceEvent(
            cycle=1, completion=4, thread=2, core=0,
            kind=Kind.VGATHERLINK, sync=True,
        )
        data = event_to_dict(event)
        assert data["kind"] == "VGATHERLINK"
        assert data["cat"] == "instr"

    def test_optional_cause_passes_through(self):
        ok = ElementOutcome(9, 0, 0, 0x40, "gatherlink", 3, True, None)
        bad = ElementOutcome(9, 0, 0, 0x40, "scattercond", 1, False, "alias")
        assert event_to_dict(ok)["cause"] is None
        assert event_to_dict(bad)["cause"] == "alias"

    def test_json_serializable(self):
        import json

        events = [
            ReservationLost(3, 1, 0, 0x80, "glsc", "eviction"),
            LineCombine(7, 0, 2, 0xC0, "gather", 3, True),
        ]
        text = json.dumps([event_to_dict(e) for e in events])
        assert "eviction" in text and "lanes_saved" in text
