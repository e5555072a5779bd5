"""Sweep service: the executor/store pair as a multi-host backend.

The run layer already makes every simulation a content-addressed
value (:class:`~repro.sim.executor.RunSpec` digests keying a
:class:`~repro.sim.store.ResultStore`).  This package spreads one
sweep over any number of processes and hosts that share a filesystem:

* :class:`~repro.service.queue.WorkQueue` — a file-based work queue
  (``queue://<dir>``) with atomic-rename claims and lease/requeue-on-
  timeout semantics, so N independent worker processes drain one
  sweep and stragglers are retried;
* :mod:`~repro.service.worker` — the ``repro worker`` drain loop:
  claim, simulate, persist to the shared store, acknowledge.

``Executor(store=..., backend="queue://<dir>")`` is the submitter: it
enqueues the specs its store lacks and collects the records the
workers save.  ``repro status queue://<dir>`` shows a drain in
progress, read straight from the queue directory.

Determinism is the contract that makes this safe: a spec's result is
a pure function of its digest, so any worker on any host produces the
same record (byte-identical apart from provenance), racing writers
are harmless, and a warm store answers without simulating.
"""

from repro.service.queue import WorkQueue, parse_queue_url
from repro.service.worker import worker_loop

__all__ = [
    "WorkQueue",
    "parse_queue_url",
    "worker_loop",
]
