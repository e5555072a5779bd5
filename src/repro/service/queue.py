"""File-based work queue with lease/requeue-on-timeout semantics.

One queue directory is the rendezvous for a whole sweep: any number
of submitters enqueue :class:`~repro.sim.executor.RunSpec` payloads,
any number of ``repro worker`` processes (on any host sharing the
filesystem) drain them.  No daemon owns the queue — every mutation is
a single atomic filesystem operation, so crashed participants never
wedge it.

Layout::

    <root>/
      pending/<digest>.json          submitted, unclaimed tasks
      leased/<digest>.<nonce>.json   claimed tasks, with lease metadata
      spans/<actor>.jsonl            sweep-trace sidecars (see
                                     :mod:`repro.obs.sweeptrace`)
      workers/<worker_id>.json       worker heartbeat snapshots

Every task file carries a member list of ``(digest, spec)`` pairs
(plus the file's digest, submission time, and — for traced sweeps —
the sweep's trace id).  :meth:`WorkQueue.submit` publishes a one-member
file named by the spec digest; :meth:`WorkQueue.submit_many` publishes
one file per group of up to N specs, named ``batch-<sha>`` over the
member digests when the group has more than one.  A file claims, acks,
nacks and requeues as one unit, and workers drain it through one
in-process :class:`~repro.sim.batch.BatchRunner`.  The
``queue_batch_size`` histogram records specs per file.  The state
machine:

* **submit** — atomic publish into ``pending/`` (temp file +
  ``os.replace``).  Submitting a digest that is already pending or
  leased is a no-op, so many clients can submit overlapping sweeps.
* **claim** — ``os.rename(pending/<d>.json, leased/<d>.<nonce>.json)``.
  Rename is atomic and fails for every process but one, so a task can
  never be claimed twice; the winner then rewrites the leased file
  with its identity and a lease deadline.
* **ack** — the worker persisted the result to the shared store;
  unlink the leased file.  The store write happens *before* the ack,
  so a crash between the two leaves a lease that expires and requeues
  — the re-run produces a value-equal record (simulations are
  deterministic), which the next worker skips via the store check.
* **requeue** — anyone (workers between claims, the executor while
  polling) may call
  :meth:`WorkQueue.requeue_expired`: leased files whose deadline
  passed are renamed back into ``pending/``.  The nonce in the leased
  filename keeps a straggler's late ``ack`` from deleting a lease now
  held by the replacement worker.

Telemetry: every transition bumps a ``queue_tasks_total{op=...}``
counter in the queue's :class:`~repro.obs.metrics.MetricsRegistry`
(submitted/claimed/acked/nacked/requeued/poisoned), and
:meth:`WorkQueue.counts` scans the directories for the pending/leased
depths (other processes move the same files, so there is nothing
local to cache).  A traced sweep's lifecycle is recorded once, in the
span sidecars under ``spans/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Collection,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigError
from repro.obs.log import NULL_LOGGER, StructLogger
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.sweeptrace import SpanLog
from repro.sim.executor import RunSpec

__all__ = ["Task", "WorkQueue", "parse_queue_url", "DEFAULT_LEASE_S"]

#: How long a claim holds a task before anyone may requeue it.
DEFAULT_LEASE_S = 120.0

#: URL scheme selecting this backend (``queue:///abs`` or ``queue://rel``).
QUEUE_SCHEME = "queue://"


def parse_queue_url(url: str) -> Path:
    """The directory a ``queue://<dir>`` backend URL names."""
    if not url.startswith(QUEUE_SCHEME):
        raise ConfigError(
            f"unsupported backend URL {url!r} (expected {QUEUE_SCHEME}<dir>)"
        )
    root = url[len(QUEUE_SCHEME):]
    if not root:
        raise ConfigError(f"backend URL {url!r} names no directory")
    return Path(root)


@dataclass(frozen=True)
class Task:
    """One claimed queue file (hold it only between claim and ack).

    :attr:`members` lists every ``(digest, spec)`` pair in submission
    order; :attr:`digest` names the file — the spec digest for a
    one-member file, ``batch-<sha>`` otherwise.
    """

    digest: str
    members: Tuple[Tuple[str, RunSpec], ...]
    lease_path: Path
    trace_id: str = ""  # sweep trace the submitter threaded through


def _member_list(
    members: Sequence[Tuple[str, RunSpec]]
) -> List[Dict[str, Any]]:
    """The JSON member list every queue file carries."""
    return [
        {"digest": digest, "spec": spec.to_dict()}
        for digest, spec in members
    ]


class WorkQueue:
    """Shared-directory task queue of :class:`RunSpec` payloads."""

    def __init__(
        self,
        root: Path,
        lease_s: float = DEFAULT_LEASE_S,
        metrics: Optional[MetricsRegistry] = None,
        logger: Optional[StructLogger] = None,
    ) -> None:
        if lease_s <= 0:
            raise ConfigError(f"lease_s must be > 0, got {lease_s}")
        self.root = Path(root)
        self.lease_s = lease_s
        self.pending_dir = self.root / "pending"
        self.leased_dir = self.root / "leased"
        self._nonce = 0
        self.metrics = metrics if metrics is not None else get_registry()
        self.logger = (logger or NULL_LOGGER).bind(queue=str(self.root))
        self._tasks_total = self.metrics.counter(
            "queue_tasks_total",
            "Queue state transitions by operation",
            labelnames=("op",),
        )
        self._batch_size_hist = self.metrics.histogram(
            "queue_batch_size",
            "Specs per submitted queue file (1 = unbatched)",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
        )
        self._span_log: Optional[SpanLog] = None

    @classmethod
    def from_url(
        cls, url: str, lease_s: float = DEFAULT_LEASE_S, **kwargs: Any
    ) -> "WorkQueue":
        """Construct from a ``queue://<dir>`` backend URL."""
        return cls(parse_queue_url(url), lease_s=lease_s, **kwargs)

    # -- telemetry plumbing ----------------------------------------------

    def _count(self, op: str) -> None:
        """One transition: bump the op counter."""
        self._tasks_total.inc(op=op)

    def span_log(self, actor: str = "queue") -> SpanLog:
        """The sweep-trace sidecar writer for ``actor`` in this queue."""
        if self._span_log is None or self._span_log.actor != actor:
            self._span_log = SpanLog(self.root, actor)
        return self._span_log

    # -- submit ----------------------------------------------------------

    def submit(
        self,
        spec: RunSpec,
        digest: Optional[str] = None,
        trace_id: str = "",
    ) -> bool:
        """Enqueue one spec; False if its digest is already in flight.

        ``digest`` may be passed to spare re-hashing when the caller
        (the executor) already resolved it.  ``trace_id``
        threads a sweep-scoped trace through the payload: claimed
        tasks carry it, the worker stamps it into the stored record's
        provenance, and an ``enqueued`` span lands in the queue's
        trace sidecar (see :mod:`repro.obs.sweeptrace`).
        """
        return self._publish([(digest or spec.digest(), spec)], trace_id)

    def submit_many(
        self,
        specs: Sequence[RunSpec],
        batch_size: int,
        digests: Optional[Sequence[str]] = None,
        trace_id: str = "",
    ) -> int:
        """Enqueue specs as files of up to ``batch_size`` specs each.

        One queue file per group keeps the filesystem traffic (and the
        claim/ack round-trips) at ``N / batch_size`` instead of ``N``,
        and lets the claiming worker drain the whole group through one
        :class:`~repro.sim.batch.BatchRunner`.  Resubmitting an
        identical group while it is pending or leased is a no-op,
        mirroring :meth:`submit`.  ``digests`` optionally provides
        pre-computed member digests (parallel to ``specs``).  Returns
        how many *specs* were newly queued.
        """
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        specs = list(specs)
        if digests is None:
            digests = [spec.digest() for spec in specs]
        else:
            digests = list(digests)
            if len(digests) != len(specs):
                raise ConfigError(
                    f"{len(digests)} digests for {len(specs)} specs"
                )
        queued = 0
        for base in range(0, len(specs), batch_size):
            group = list(zip(digests[base:base + batch_size],
                             specs[base:base + batch_size]))
            if self._publish(group, trace_id):
                queued += len(group)
        return queued

    def _publish(
        self, group: Sequence[Tuple[str, RunSpec]], trace_id: str
    ) -> bool:
        """Atomically land one group as a pending file; False if in flight.

        A one-member file is named by its spec digest, so
        :meth:`_in_flight` answers for that spec directly; a larger
        group is named ``batch-<sha>`` over its member digests.
        """
        if len(group) == 1:
            name = group[0][0]
        else:
            name = "batch-" + hashlib.sha256(
                "".join(digest for digest, _ in group).encode("utf-8")
            ).hexdigest()[:40]
        if self._in_flight(name):
            return False
        self.pending_dir.mkdir(parents=True, exist_ok=True)
        self.leased_dir.mkdir(parents=True, exist_ok=True)
        payload: Dict[str, Any] = {
            "digest": name,
            "batch": _member_list(group),
            "enqueued": time.time(),
        }
        if trace_id:
            payload["trace"] = {"id": trace_id}
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.pending_dir), prefix=f".{name[:12]}.",
            suffix=".tmp",
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp_name, self.pending_dir / f"{name}.json")
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._count("submitted")
        self._batch_size_hist.observe(float(len(group)))
        self.logger.debug(
            "submit", digest=name[:12], size=len(group), trace_id=trace_id
        )
        if trace_id:
            for digest, _ in group:
                self.span_log().record("enqueued", digest, trace_id)
        return True

    def _in_flight(self, digest: str) -> bool:
        if (self.pending_dir / f"{digest}.json").exists():
            return True
        return any(self.leased_dir.glob(f"{digest}.*.json"))

    # -- claim / ack -----------------------------------------------------

    def claim(
        self,
        worker_id: str = "",
        exclude: Collection[str] = (),
    ) -> Optional[Task]:
        """Atomically take one pending task, or None if none remain.

        The rename is the claim; losing a race for one task just moves
        on to the next.  The winner stamps the leased file with its
        identity and deadline (sweepers fall back to the file's mtime
        if that rewrite never lands).  ``exclude`` digests are skipped
        without claiming — workers pass the specs they already failed,
        so a poison task stays pending for *other* workers instead of
        livelocking this one (pending tasks sort stably, so a nacked
        task would otherwise be the very next claim again).
        """
        for name in self._task_files(self.pending_dir):
            digest = name[: -len(".json")]
            if digest in exclude:
                continue
            self._nonce += 1
            nonce = f"{os.getpid()}-{self._nonce}-{time.time_ns() % 10**9}"
            lease_path = self.leased_dir / f"{digest}.{nonce}.json"
            try:
                os.rename(self.pending_dir / name, lease_path)
            except OSError:
                continue  # someone else won this task
            task = self._load_task(digest, lease_path)
            if task is None:
                # Unreadable payload: drop the lease rather than loop
                # on a poison task forever.
                try:
                    os.unlink(lease_path)
                except OSError:
                    pass
                self._count("poisoned")
                self.logger.warning(
                    "poison-drop", digest=digest[:12], worker_id=worker_id
                )
                continue
            self._stamp_lease(task, worker_id)
            self._count("claimed")
            self.logger.debug(
                "claim", digest=digest[:12], worker_id=worker_id,
                trace_id=task.trace_id,
            )
            return task
        return None

    def _load_task(self, digest: str, path: Path) -> Optional[Task]:
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            trace_id = str((payload.get("trace") or {}).get("id", ""))
            members = tuple(
                (str(entry["digest"]), RunSpec.from_dict(entry["spec"]))
                for entry in payload["batch"]
            )
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None
        if not members:
            return None
        return Task(
            digest=digest, members=members, lease_path=path,
            trace_id=trace_id,
        )

    def _stamp_lease(self, task: Task, worker_id: str) -> None:
        """Rewrite the leased file with holder identity + deadline."""
        import platform

        payload: Dict[str, Any] = {
            "digest": task.digest,
            # The lease keeps the member list: an expired lease renames
            # back to pending, and the next claimer re-reads it.
            "batch": _member_list(task.members),
            "lease": {
                "worker_id": worker_id,
                "host": platform.node(),
                "pid": os.getpid(),
                "claimed": time.time(),
                "deadline": time.time() + self.lease_s,
            },
        }
        if task.trace_id:
            payload["trace"] = {"id": task.trace_id}
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.leased_dir), prefix=".lease.", suffix=".tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp_name, task.lease_path)
        except OSError:
            pass

    def ack(self, task: Task) -> None:
        """Mark a claimed task done (call only after the store save).

        A missing lease file means the lease expired and the task was
        requeued; that is not an error — the result is already in the
        store, and the requeued copy will be skipped by the next
        worker's store check.  (A late ack of a requeued task is not
        counted: the nonce-named unlink fails, so the replacement's
        lease stays intact.)
        """
        try:
            os.unlink(task.lease_path)
        except OSError:
            return
        self._count("acked")
        self.logger.debug("ack", digest=task.digest[:12])

    def nack(self, task: Task) -> None:
        """Return a claimed task to pending immediately (failed run)."""
        try:
            os.rename(
                task.lease_path, self.pending_dir / f"{task.digest}.json"
            )
        except OSError:
            return
        self._count("nacked")
        self.logger.info(
            "nack", digest=task.digest[:12], trace_id=task.trace_id
        )

    # -- lease expiry ----------------------------------------------------

    def requeue_expired(self, now: Optional[float] = None) -> List[str]:
        """Move every expired lease back to pending; returns digests.

        The deadline comes from the lease stamp; an unstamped or
        unreadable lease falls back to the file's mtime plus the
        queue's lease window.  The pending-side rename target is the
        plain digest name, so a requeue racing a fresh submit of the
        same digest collapses to one (value-identical) pending task.
        """
        now = time.time() if now is None else now
        requeued: List[str] = []
        for name in self._task_files(self.leased_dir):
            path = self.leased_dir / name
            digest = name.split(".", 1)[0]
            deadline = None
            trace_id = ""
            try:
                with open(path, encoding="utf-8") as fh:
                    payload = json.load(fh)
                deadline = (payload.get("lease") or {}).get("deadline")
                trace_id = str((payload.get("trace") or {}).get("id", ""))
            except (OSError, ValueError, AttributeError):
                pass
            if deadline is None:
                try:
                    deadline = path.stat().st_mtime + self.lease_s
                except OSError:
                    continue  # vanished: acked under us
            if now <= float(deadline):
                continue
            try:
                os.rename(path, self.pending_dir / f"{digest}.json")
                requeued.append(digest)
            except OSError:
                continue  # acked or requeued by someone else
            self._count("requeued")
            self.logger.info(
                "requeue-expired", digest=digest[:12], trace_id=trace_id
            )
            if trace_id:
                self.span_log().record("requeued", digest, trace_id)
        return requeued

    # -- introspection ---------------------------------------------------

    @staticmethod
    def _task_files(directory: Path) -> List[str]:
        """Task file names in ``directory``, sorted (temp files skipped)."""
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return []
        return [
            name for name in names
            if name.endswith(".json") and not name.startswith(".")
        ]

    def counts(self) -> Dict[str, int]:
        """``{"pending": n, "leased": n}`` by directory scan."""
        return {
            "pending": len(self._task_files(self.pending_dir)),
            "leased": len(self._task_files(self.leased_dir)),
        }

    def is_empty(self) -> bool:
        return not any(self.counts().values())

    def pending_digests(self) -> List[str]:
        """Digests currently pending (claim order), leased excluded."""
        return [
            name[: -len(".json")]
            for name in self._task_files(self.pending_dir)
        ]
