"""Process-local metrics registry: counters, gauges, histograms.

Where :mod:`repro.obs.events` streams *simulation* micro-events, this
module counts *service* macro-events: queue transitions, specs per
queue file, and store puts and their bytes.  One
:class:`MetricsRegistry` per process aggregates everything the queue
and store in that process do; callers read a series back
with :meth:`MetricsRegistry.get`.  Workers in other processes publish
their tallies as heartbeat files instead (see
:mod:`repro.obs.sweeptrace`).

Design points:

* **Get-or-create** — ``registry.counter("queue_tasks_total", ...)``
  returns the existing metric when the name is already registered, so
  every :class:`~repro.service.queue.WorkQueue` /
  :class:`~repro.sim.store.ResultStore` instance in one process feeds
  the same series.  Re-registering a name as a different metric type
  is a :class:`~repro.errors.ConfigError`, as is re-registering a
  histogram with different ``buckets`` — two callers silently feeding
  one series with incompatible bucket layouts would corrupt it.
* **Labels** — metrics declare their label *names* up front; samples
  are keyed by label-value tuples (``counter.inc(op="acked")``).
* **Thread-safe** — one lock per registry guards registration, one
  per metric guards samples; worker threads in tests and the CLI
  can share a registry.
* **No global mutable state required** — components accept a
  ``metrics=`` registry; :func:`get_registry` provides the process
  default for the common single-registry case.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets (seconds): sub-millisecond store and
#: queue operations up to minute-long simulations.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0,
)


def _label_key(
    labelnames: Sequence[str], labels: Dict[str, str], metric: str
) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ConfigError(
            f"metric {metric!r} takes labels {tuple(labelnames)}, "
            f"got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Metric:
    """Common plumbing: name/help/labelnames plus a sample lock."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        return _label_key(self.labelnames, labels, self.name)


class Counter(_Metric):
    """Monotonically increasing count (per label combination)."""

    kind = "counter"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ConfigError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def samples(self) -> List[Tuple[Tuple[str, ...], float]]:
        with self._lock:
            return sorted(self._values.items())


class Gauge(Counter):
    """A value that can go up and down (depths, timestamps)."""

    kind = "gauge"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def set(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)


class Histogram(_Metric):
    """Cumulative-bucket histogram of observations (latency style)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ConfigError(f"histogram {name} needs >= 1 bucket")
        self.bounds = tuple(bounds)
        # per label key: [per-bound counts..., +Inf count], sum
        self._counts: Dict[Tuple[str, ...], List[int]] = {}
        self._sums: Dict[Tuple[str, ...], float] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            counts = self._counts.setdefault(
                key, [0] * (len(self.bounds) + 1)
            )
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value

    def count(self, **labels: str) -> int:
        key = self._key(labels)
        with self._lock:
            return sum(self._counts.get(key, ()))

    def sum(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return self._sums.get(key, 0.0)

    def samples(self) -> List[Tuple[Tuple[str, ...], List[int], float]]:
        with self._lock:
            return sorted(
                (key, list(counts), self._sums.get(key, 0.0))
                for key, counts in self._counts.items()
            )


class MetricsRegistry:
    """A named collection of metrics (get-or-create by name)."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # -- registration (get-or-create) ------------------------------------

    def _register(self, cls, name: str, **kwargs) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ConfigError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                if "buckets" in kwargs:
                    wanted = tuple(sorted(
                        float(b) for b in kwargs["buckets"]
                    ))
                    if wanted != existing.bounds:
                        raise ConfigError(
                            f"histogram {name!r} already registered "
                            f"with buckets {existing.bounds}, cannot "
                            f"re-register with {wanted}"
                        )
                return existing
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register(
            Counter, name, help=help, labelnames=labelnames
        )

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help=help, labelnames=labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(
            Histogram, name, help=help, labelnames=labelnames,
            buckets=buckets,
        )

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)


#: The process-default registry (components take ``metrics=`` to
#: override; tests pass a fresh one).
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process default (returns the previous one)."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous
