"""Tests for the instruction-trace subsystem."""

import pytest

from repro.isa.instructions import Kind
from repro.obs.bus import EventBus
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.trace import InstructionTrace, TraceEvent


def traced_run(program_factory, n_threads=1, limit=None, bus=None, **cfg):
    defaults = dict(n_cores=1, threads_per_core=max(n_threads, 1),
                    simd_width=4)
    defaults.update(cfg)
    bus = bus or EventBus()
    trace = bus.attach(InstructionTrace(limit=limit))
    machine = Machine(MachineConfig(**defaults), obs=bus)
    for _ in range(n_threads):
        machine.add_program(program_factory(machine))
    machine.run()
    return trace, machine


def simple_program(machine):
    word = machine.image.alloc_zeros(1)

    def program(ctx):
        yield ctx.alu(3)
        value = yield ctx.load(word.base)
        yield ctx.store(word.base, value + 1)

    return program


class TestCollection:
    def test_records_every_instruction(self):
        trace, _ = traced_run(simple_program)
        assert len(trace) == 3
        kinds = [e.kind for e in trace]
        assert kinds == [Kind.ALU, Kind.LOAD, Kind.STORE]

    def test_events_carry_timing(self):
        trace, _ = traced_run(simple_program)
        alu, load, store = list(trace)
        assert alu.latency == 3
        assert load.latency >= 3  # at least an L1 hit
        assert load.cycle >= alu.completion

    def test_limit_caps_events_but_not_profile(self):
        trace, _ = traced_run(simple_program, limit=1)
        assert len(trace) == 1
        assert trace.dropped == 2
        profile = trace.kind_profile()
        assert sum(p.count for p in profile.values()) == 3

    def test_for_thread(self):
        trace, _ = traced_run(simple_program, n_threads=2)
        assert len(trace.for_thread(0)) == 3
        assert len(trace.for_thread(1)) == 3


class TestSummaries:
    def test_kind_profile_latencies(self):
        trace, _ = traced_run(simple_program)
        profile = trace.kind_profile()
        assert profile[Kind.ALU].count == 1
        assert profile[Kind.ALU].mean_latency == pytest.approx(3.0)
        assert profile[Kind.LOAD].max_latency >= 3

    def test_sync_share(self):
        def factory(machine):
            word = machine.image.alloc_zeros(1)

            def program(ctx):
                value = yield ctx.ll(word.base)
                yield ctx.sc(word.base, value + 1)

            return program

        trace, _ = traced_run(factory)
        assert trace.sync_share() == pytest.approx(1.0)

    def test_render_mentions_kinds(self):
        trace, _ = traced_run(simple_program)
        text = trace.render()
        assert "ALU" in text and "LOAD" in text

    def test_event_latency_floor(self):
        event = TraceEvent(
            cycle=5, completion=5, thread=0, core=0, kind=Kind.ALU,
            sync=False,
        )
        assert event.latency == 1


class TestBusSeam:
    """A trace sees the same stream alone or beside other sinks."""

    def test_trace_alone_and_beside_other_sinks_agree(self):
        from repro.obs.sinks import MetricsSink

        alone, _ = traced_run(simple_program)

        bus = EventBus()
        bus.attach(MetricsSink())  # subscribes to every category
        beside, _ = traced_run(simple_program, bus=bus)

        assert list(beside) == list(alone)
        assert beside.kind_profile() == alone.kind_profile()

    def test_tracer_close_called_through_bus(self):
        closes = []

        class Closing(InstructionTrace):
            def close(self):
                closes.append(True)

        bus = EventBus()
        bus.attach(Closing())
        bus.close()
        assert closes == [True]


class TestGsuTracing:
    def test_glsc_instructions_traced_as_sync(self):
        def factory(machine):
            data = machine.image.alloc_array([1, 2, 3, 4])

            def program(ctx):
                vals, got = yield ctx.vgatherlink(data.base, [0, 1, 2, 3])
                yield ctx.vscattercond(
                    data.base, [0, 1, 2, 3],
                    tuple(v + 1 for v in vals), got,
                )

            return program

        trace, _ = traced_run(factory)
        assert all(e.sync for e in trace)
        kinds = {e.kind for e in trace}
        assert kinds == {Kind.VGATHERLINK, Kind.VSCATTERCOND}
