"""The event bus: near-zero overhead dispatch from model to sinks.

:class:`EventBus` is the simulator's one observation seam: any number
of sinks, each subscribed to any subset of event categories (see
:mod:`repro.obs.events`).  Retired instructions are the ``instr``
category; :class:`~repro.sim.trace.InstructionTrace` collects them.

The hot-path contract
---------------------

Simulator code *never* builds an event unconditionally.  Every
emission site is written::

    obs = self.obs
    if obs is not None and obs.wants_cache:
        obs.emit(CacheMiss(...))

``wants_<category>`` are plain boolean attributes recomputed on
:meth:`attach`, so the disabled path costs one attribute load and one
test — no event allocation, no dynamic lookup, no call.  The test
suite enforces this by poisoning every event constructor and running
an un-instrumented simulation.

The enabled path is kept just as lean: :meth:`EventBus.emit` makes
one dict lookup, by event class, for a tuple of handlers resolved the
first time that class is emitted, then calls each directly.  A sink
that declares a :attr:`Sink.handlers` table is called straight at the
handler for the event's class, and not at all for the classes of its
categories it has no handler for; any other sink gets ``on_event``.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Tuple, TypeVar,
)

from repro.errors import ConfigError
from repro.obs.events import CATEGORIES

__all__ = ["Sink", "EventBus"]

S = TypeVar("S", bound="Sink")


class Sink:
    """Observer protocol: receives every event of its categories.

    ``categories`` is the default subscription (``None`` = all); an
    explicit set passed to :meth:`EventBus.attach` overrides it.
    """

    #: Default categories this sink wants (None = every category).
    categories: Optional[Iterable[str]] = None

    #: Optional direct-dispatch table, event class -> ``handler(self,
    #: event)``.  When set, the bus delivers an event of a subscribed
    #: category only if its class has a handler, and calls that handler
    #: directly.
    handlers: Optional[Dict[type, Callable[[Any, Any], None]]] = None

    def on_event(self, event: Any) -> None:
        """Called once per event, in emission order.

        The default dispatches through :attr:`handlers`; a sink without
        a table overrides this.
        """
        if self.handlers is None:
            raise NotImplementedError
        handler = self.handlers.get(type(event))
        if handler is not None:
            handler(self, event)

    def close(self) -> None:
        """Flush/teardown; called once by :meth:`EventBus.close`."""


class EventBus:
    """Routes typed events to subscribed sinks by category."""

    def __init__(self) -> None:
        self._sinks: List[Sink] = []
        self._subscribers: Dict[str, List[Sink]] = {
            cat: [] for cat in CATEGORIES
        }
        # event class -> bound handlers; filled lazily by _route()
        self._routes: Dict[type, Tuple[Callable[[Any], None], ...]] = {}
        self._closed = False
        self.wants_instr = False
        self.wants_cache = False
        self.wants_coherence = False
        self.wants_reservation = False
        self.wants_glsc = False
        self.wants_protocol = False

    # -- subscription ----------------------------------------------------

    def attach(
        self, sink: S, categories: Optional[Iterable[str]] = None
    ) -> S:
        """Subscribe ``sink``; returns it (for one-line construction)."""
        wanted = categories if categories is not None else sink.categories
        cats = tuple(wanted) if wanted is not None else CATEGORIES
        unknown = [c for c in cats if c not in self._subscribers]
        if unknown:
            raise ConfigError(
                f"unknown event categories {unknown}; "
                f"expected a subset of {CATEGORIES}"
            )
        self._sinks.append(sink)
        for cat in cats:
            self._subscribers[cat].append(sink)
        self._routes.clear()
        self._refresh_flags()
        return sink

    def _refresh_flags(self) -> None:
        self.wants_instr = bool(self._subscribers["instr"])
        self.wants_cache = bool(self._subscribers["cache"])
        self.wants_coherence = bool(self._subscribers["coherence"])
        self.wants_reservation = bool(self._subscribers["reservation"])
        self.wants_glsc = bool(self._subscribers["glsc"])
        self.wants_protocol = bool(self._subscribers["protocol"])

    def wants(self, category: str) -> bool:
        """Whether any sink subscribes to ``category``."""
        return bool(self._subscribers[category])

    @property
    def sinks(self) -> List[Sink]:
        """The attached sinks, in attach order."""
        return list(self._sinks)

    # -- dispatch ----------------------------------------------------------

    def emit(self, event: Any) -> None:
        """Deliver ``event`` to every sink of its category."""
        try:
            route = self._routes[type(event)]
        except KeyError:
            route = self._route(type(event))
        for handler in route:
            handler(event)

    def _route(self, event_type: type) -> Tuple[Callable[[Any], None], ...]:
        """Resolve (and cache) the handlers for one event class."""
        route = []
        for sink in self._subscribers[event_type.category]:
            # duck-typed sinks need not subclass Sink
            table = getattr(sink, "handlers", None)
            if table is None:
                route.append(sink.on_event)
            elif event_type in table:
                route.append(table[event_type].__get__(sink))
        self._routes[event_type] = resolved = tuple(route)
        return resolved

    def close(self) -> None:
        """Close every sink exactly once (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for sink in self._sinks:
            sink.close()

    def __enter__(self) -> "EventBus":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
