"""Guard: a run without observers never constructs an event.

The event-bus contract (see ``repro.obs.bus``) is that every emission
site tests ``obs is not None and obs.wants_<category>`` *before*
building the event object.  These tests enforce it by poisoning every
event constructor and running real simulations: if any hot path
allocates an event unconditionally, the poisoned constructor raises.
"""

import contextlib

import pytest

from repro.obs.bus import EventBus
from repro.obs.events import all_event_types
from repro.obs.sinks import MetricsSink
from repro.sim.config import named_config
from repro.sim.runner import run_kernel


class _Poisoned(RuntimeError):
    pass


@contextlib.contextmanager
def poisoned(event_types):
    """Make constructing any of ``event_types`` raise.

    Replaces each dataclass ``__init__`` (always present in the class
    dict, so it can be restored exactly; overriding ``__new__`` cannot
    be undone cleanly in CPython) with one that raises.
    """
    def boom(self, *args, **kwargs):
        raise _Poisoned(
            f"{type(self).__name__} constructed while disabled"
        )

    saved = {}
    for event_type in event_types:
        saved[event_type] = event_type.__init__
        event_type.__init__ = boom
    try:
        yield
    finally:
        for event_type, init in saved.items():
            event_type.__init__ = init


class TestDisabledPathAllocatesNothing:
    @pytest.mark.parametrize("variant", ["glsc", "base"])
    def test_unobserved_run_builds_no_events(self, variant):
        with poisoned(all_event_types()):
            result = run_kernel("hip", "tiny", named_config("1x2"), variant)
        assert result.cycles > 0

    def test_instr_only_bus_builds_no_memory_events(self):
        # A sink subscribed to `instr` alone must not make the memory
        # hierarchy allocate cache/coherence/reservation/glsc events.
        from repro.sim.trace import TraceEvent

        bus = EventBus()
        sink = bus.attach(MetricsSink(), categories=("instr",))
        with poisoned([t for t in all_event_types() if t is not TraceEvent]):
            result = run_kernel(
                "hip", "tiny", named_config("1x2"), "glsc", obs=bus
            )
        assert result.cycles > 0
        assert sink.thread_instructions  # instr events still flowed

    def test_unobserved_contended_run_builds_no_events(self):
        # A multi-core contended point exercises the attacker-threaded
        # ReservationLost emit sites (invalidations, back-invalidations,
        # write_conditional kills) — all must stay behind the guards.
        with poisoned(all_event_types()):
            result = run_kernel("tms", "tiny", named_config("4x4"), "glsc")
        assert result.cycles > 0

    def test_reservation_events_carry_attacker_identity(self):
        # Positive check on the new fields: with a reservation
        # subscriber, cross-thread kills must name a real attacker.
        from repro.obs.contention import ContentionSink

        bus = EventBus()
        sink = bus.attach(ContentionSink(n_cores=4))
        result = run_kernel(
            "tms", "tiny", named_config("4x4"), "glsc", obs=bus
        )
        bus.close()
        assert result.cycles > 0
        summary = sink.summary()
        assert summary.total_kills > 0
        attackers = set(summary.row_sums())
        assert attackers and all(tid >= 0 for tid in attackers)

    def test_poison_actually_bites_when_enabled(self):
        # Sanity check on the guard itself: with a cache subscriber the
        # same poisoned run must trip, proving the tests above pass
        # because nothing was built — not because poisoning is inert.
        from repro.obs.events import CacheHit, CacheMiss

        bus = EventBus()
        bus.attach(MetricsSink(), categories=("cache",))
        with poisoned((CacheHit, CacheMiss)):
            with pytest.raises(_Poisoned):
                run_kernel(
                    "hip", "tiny", named_config("1x2"), "glsc", obs=bus
                )


class TestPoisonCoversEveryRecord:
    """The poison must bite on every event type's real constructor.

    Event records are NamedTuples, built by a positional ``__new__``;
    ``type.__call__`` still runs ``__init__`` afterwards, which is what
    :func:`poisoned` replaces.  If a record type ever stops passing
    through ``__init__``, the guard tests above would pass vacuously —
    this catches that.
    """

    @pytest.mark.parametrize(
        "event_type", all_event_types(), ids=lambda t: t.__name__
    )
    def test_unguarded_construction_raises(self, event_type):
        args = tuple(range(len(event_type._fields)))
        with poisoned((event_type,)):
            with pytest.raises(_Poisoned):
                event_type(*args)
        # Restored exactly: construction works again, positionally.
        assert tuple(event_type(*args)) == args


class TestEvictionIsACacheEvent:
    """``Eviction`` (category ``cache``) is built behind ``wants_cache``."""

    SPEC = ("gbc", "A", "4x4", "base")  # a point with L1 evictions

    def run(self, categories):
        kernel, dataset, topology, variant = self.SPEC
        bus = EventBus()
        sink = bus.attach(MetricsSink(), categories=categories)
        run_kernel(kernel, dataset, named_config(topology), variant, obs=bus)
        bus.close()
        return sink

    def test_cache_only_sink_counts_every_eviction(self):
        everything = self.run(None)
        cache_only = self.run(("cache",))
        assert everything.evictions > 0
        assert cache_only.evictions == everything.evictions

    def test_coherence_only_bus_builds_no_evictions(self):
        from repro.obs.events import Eviction

        with poisoned((Eviction,)):
            sink = self.run(("coherence",))
        assert sink.writebacks  # coherence events still flowed
        assert sink.evictions == 0
