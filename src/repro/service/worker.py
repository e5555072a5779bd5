"""The ``repro worker`` drain loop: claim, simulate, persist, ack.

A worker owns nothing: it binds a :class:`~repro.service.queue.WorkQueue`
and a shared :class:`~repro.sim.store.ResultStore`, and repeats

    requeue expired leases -> claim a file -> (skip members the store
    already has) -> one :class:`~repro.sim.batch.BatchRunner` over the
    rest -> store save with worker/host/batch provenance -> ack

until told to stop.  N workers on N hosts drain one sweep with no
coordination beyond the queue directory and the store; determinism
guarantees their records are byte-identical (sans provenance) to a
serial run's, which the service tests and CI assert.

Telemetry: the loop counts claims, store-skips, and task outcomes in
the queue's metrics registry (``worker_claims_total`` etc., labelled
by worker id), observes per-task simulation wall time into a
``worker_sim_seconds`` histogram, and — because workers are separate
*processes* whose registries nobody else can see — periodically
snapshots its tallies into ``<queue>/workers/<worker_id>.json``
heartbeat files (:func:`~repro.obs.sweeptrace.write_heartbeat`) that
``repro status queue://<dir>`` reads.  Every record a worker saves
names it in ``provenance["worker_id"]``.  When a claimed
task carries a sweep ``trace_id``, the worker appends
``claimed``/``simulated``/``saved`` spans to its sidecar in the queue
directory and stamps the trace id into the stored record's
provenance, so ``repro sweep-trace`` can rebuild the whole
distributed drain afterwards.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.obs.log import StructLogger, to_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.sweeptrace import write_heartbeat
from repro.obs.telemetry import run_provenance
from repro.service.queue import Task, WorkQueue
from repro.sim.store import ResultStore

__all__ = ["WorkerSummary", "worker_loop", "default_worker_id"]

#: How often a live worker refreshes its heartbeat file (seconds).
DEFAULT_HEARTBEAT_S = 5.0


def default_worker_id() -> str:
    """A reasonably unique worker name: ``<host>-<pid>``."""
    import platform

    return f"{platform.node()}-{os.getpid()}"


@dataclass
class WorkerSummary:
    """What one :func:`worker_loop` invocation did."""

    worker_id: str = ""
    executed: int = 0        # specs simulated fresh
    skipped: int = 0         # specs whose digest the store already had
    failed: int = 0          # claimed files whose simulation raised (nacked)
    requeued: int = 0        # expired leases this worker recycled
    claims: int = 0          # successful claims of queue files
    sim_wall_s: float = 0.0  # wall seconds spent inside BatchRunner
    wall_time_s: float = 0.0
    digests: List[str] = field(default_factory=list)
    # contention roll-up across executed tasks (from MachineStats)
    contention_failed_lanes: int = 0
    contention_sc_failures: int = 0

    def heartbeat_counters(self) -> dict:
        """The tallies a worker publishes in its heartbeat file."""
        return {
            "claims": self.claims,
            "executed": self.executed,
            "skipped": self.skipped,
            "failed": self.failed,
            "requeued": self.requeued,
            "sim_wall_s": round(self.sim_wall_s, 6),
            "contention_failed_lanes": self.contention_failed_lanes,
            "contention_sc_failures": self.contention_sc_failures,
        }


class _WorkerMetrics:
    """The worker-side series, bound to one worker id."""

    def __init__(self, registry: MetricsRegistry, worker_id: str) -> None:
        self.worker_id = worker_id
        self.claims = registry.counter(
            "worker_claims_total", "Tasks this worker claimed",
            labelnames=("worker_id",),
        )
        self.tasks = registry.counter(
            "worker_tasks_total", "Claimed-task outcomes",
            labelnames=("worker_id", "outcome"),
        )
        self.sim_seconds = registry.histogram(
            "worker_sim_seconds",
            "Wall seconds per fresh simulation",
            labelnames=("worker_id",),
        )
        # Contention roll-up: workers run unobserved (no event bus),
        # so these series derive from each task's end-of-run counters
        # rather than the contention sink — coarser, but free.
        self.contention_lanes = registry.counter(
            "contention_failed_lanes_total",
            "Failed GLSC element lanes across simulated tasks, by cause",
            labelnames=("worker_id", "cause"),
        )
        self.contention_sc = registry.counter(
            "contention_sc_failures_total",
            "Failed scalar store-conditionals across simulated tasks",
            labelnames=("worker_id",),
        )
        self.contention_rate = registry.histogram(
            "contention_failure_rate",
            "Per-task GLSC element failure rate",
            labelnames=("worker_id",),
            buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0),
        )

    def claim(self) -> None:
        self.claims.inc(worker_id=self.worker_id)

    def outcome(self, outcome: str) -> None:
        self.tasks.inc(worker_id=self.worker_id, outcome=outcome)

    def simulated(self, wall_s: float) -> None:
        self.sim_seconds.observe(wall_s, worker_id=self.worker_id)

    def contention(self, stats) -> None:
        """Fold one task's conflict counters into the series."""
        for cause, lanes in stats.glsc_element_failures.items():
            if lanes:
                self.contention_lanes.inc(
                    lanes, worker_id=self.worker_id, cause=cause
                )
        if stats.sc_failures:
            self.contention_sc.inc(
                stats.sc_failures, worker_id=self.worker_id
            )
        self.contention_rate.observe(
            stats.glsc_failure_rate, worker_id=self.worker_id
        )


def worker_loop(
    queue: WorkQueue,
    store: ResultStore,
    worker_id: Optional[str] = None,
    poll_s: float = 0.2,
    exit_when_empty: bool = False,
    idle_exit_s: Optional[float] = None,
    max_tasks: Optional[int] = None,
    log: Optional[StructLogger] = None,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
) -> WorkerSummary:
    """Drain the queue until a stop condition holds.

    ``exit_when_empty`` returns as soon as the queue has neither
    pending nor leased tasks (the batch-drain mode CI uses);
    ``idle_exit_s`` returns after that many seconds without claiming
    anything (lets a worker outlive brief gaps between submissions);
    ``max_tasks`` bounds fresh spec executions (checked after each
    claimed file).  With none of them set the
    loop runs forever — the always-on service worker.

    ``log`` is a :class:`~repro.obs.log.StructLogger`, or ``None`` for
    silence.

    A failed simulation is nacked back to pending and counted; the
    worker moves on rather than dying, so one poison spec cannot take
    a fleet down.  A worker never re-claims a digest it already failed
    (the task stays pending for *other* workers, visible in ``failed``
    tallies and the queue's pending count), and ``exit_when_empty``
    treats a queue holding only this worker's failures as drained.
    """
    worker_id = worker_id or default_worker_id()
    summary = WorkerSummary(worker_id=worker_id)
    logger = to_logger(log, component="worker").bind(worker_id=worker_id)
    metrics = _WorkerMetrics(queue.metrics, worker_id)
    spans = queue.span_log(worker_id)
    started = time.perf_counter()
    last_work = time.monotonic()
    last_beat = 0.0
    logger.info(
        "start", event_detail="draining",
        queue=str(queue.root), store=str(store.root),
    )
    poisoned: set = set()    # digests this worker failed; never re-claim

    def beat(force: bool = False) -> None:
        nonlocal last_beat
        now = time.monotonic()
        if force or now - last_beat >= heartbeat_s:
            write_heartbeat(
                queue.root, worker_id, summary.heartbeat_counters()
            )
            last_beat = now

    try:
        beat(force=True)
        while True:
            summary.requeued += len(queue.requeue_expired())
            task = queue.claim(worker_id, exclude=poisoned)
            if task is None:
                beat()
                if exit_when_empty and _drained(queue, poisoned):
                    break
                if (
                    idle_exit_s is not None
                    and time.monotonic() - last_work > idle_exit_s
                ):
                    break
                time.sleep(poll_s)
                continue
            last_work = time.monotonic()
            summary.claims += 1
            metrics.claim()
            if task.trace_id:
                spans.record("claimed", task.digest, task.trace_id)
            if not _execute(task, queue, store, summary,
                            metrics, logger, spans):
                poisoned.add(task.digest)
            beat()
            if (
                max_tasks is not None
                and summary.executed >= max_tasks
            ):
                break
    finally:
        summary.wall_time_s = time.perf_counter() - started
        beat(force=True)
        logger.info(
            "done", executed=summary.executed, skipped=summary.skipped,
            failed=summary.failed, requeued=summary.requeued,
            wall_s=round(summary.wall_time_s, 3),
        )
    return summary


def _drained(queue: WorkQueue, poisoned: set) -> bool:
    """Nothing left this worker could make progress on."""
    counts = queue.counts()
    if counts["leased"]:
        return False                   # someone may still nack/expire
    if counts["pending"] == 0:
        return True
    return set(queue.pending_digests()) <= poisoned


def _execute(
    task: Task,
    queue: WorkQueue,
    store: ResultStore,
    summary: WorkerSummary,
    metrics: _WorkerMetrics,
    logger: StructLogger,
    spans,
) -> bool:
    """Drain one claimed file through an in-process BatchRunner.

    Members whose digest the store already has are skipped: another
    worker (or a requeued straggler's original run) produced them, and
    determinism makes re-simulating pure waste.  The rest simulate
    together — shared interned inputs, one merged event heap.
    Save-then-ack covers the whole file, so a crash mid-file requeues
    it and the re-run skips whatever did land.  A simulation error
    nacks the *whole file* back to pending: members are independent,
    but the file is the queue's unit of retry.
    """
    from repro.sim.batch import BatchRunner

    fresh = [
        (digest, spec) for digest, spec in task.members
        if store.load_record(digest) is None
    ]
    skipped = len(task.members) - len(fresh)
    if skipped:
        summary.skipped += skipped
        for _ in range(skipped):
            metrics.outcome("skipped")
    if not fresh:
        queue.ack(task)
        logger.debug(
            "skip", digest=task.digest[:12],
            reason="every member already in store",
        )
        return True
    begun = time.perf_counter()
    try:
        results = BatchRunner([spec for _, spec in fresh]).run()
    except Exception as exc:  # noqa: BLE001 — a worker must survive
        queue.nack(task)
        summary.failed += 1
        metrics.outcome("failed")
        logger.warning(
            "fail", digest=task.digest[:12],
            size=len(fresh), error=repr(exc), trace_id=task.trace_id,
        )
        return False
    wall_s = time.perf_counter() - begun
    summary.sim_wall_s += wall_s
    for (digest, spec), result in zip(fresh, results):
        stats = result.stats
        metrics.simulated(result.wall_s)
        metrics.contention(stats)
        summary.contention_failed_lanes += stats.glsc_failures_total
        summary.contention_sc_failures += stats.sc_failures
        if task.trace_id:
            spans.record(
                "simulated", digest, task.trace_id,
                wall_s=round(result.wall_s, 6), cycles=stats.cycles,
            )
        provenance = run_provenance(result.wall_s)
        provenance["worker_id"] = summary.worker_id
        provenance["batch_id"] = task.digest
        provenance["batch_occupancy"] = len(fresh)
        if task.trace_id:
            provenance["trace_id"] = task.trace_id
        store.save(
            digest,
            stats,
            spec=spec.to_dict(),
            config=spec.config().to_dict(),
            provenance=provenance,
        )
        if task.trace_id:
            spans.record("saved", digest, task.trace_id)
        summary.executed += 1
        metrics.outcome("executed")
        summary.digests.append(digest)
    queue.ack(task)
    logger.info(
        "done-task", digest=task.digest[:12], size=len(fresh),
        skipped=skipped, wall_s=round(wall_s, 3),
        trace_id=task.trace_id,
    )
    return True
