"""Distributed sweep tracing: lifecycle spans + worker heartbeats.

A sweep crossing the service (executor → queue → N worker processes
→ store) has no single process that saw the whole story.  This module gives it one: every participant appends
*span records* — ``{trace_id, digest, phase, ts, actor, pid, host}``
— to its own O_APPEND sidecar under ``<queue>/spans/``, and
:func:`collect_spans` merges them afterwards into one timeline that
:class:`~repro.obs.perfetto.SweepTraceExporter` renders as a single
Chrome trace (workers as process tracks; see ``repro sweep-trace``).

Phases, in lifecycle order::

    enqueued -> claimed -> simulated -> saved

(``requeued``/``nacked``/``poisoned`` may interleave on unhappy
paths.)  The ``trace_id`` is minted per executor drain, rides in every
queue payload, and lands in the stored record's provenance — so a
number in the store names the drain that produced it.

Workers also drop *heartbeat* files (``<queue>/workers/<id>.json``,
atomic replace) carrying their live counter snapshot;
``repro status queue://<dir>`` reads them, which is how one command
shows claims and outcomes across processes that share nothing but the
queue directory.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = [
    "PHASES",
    "new_trace_id",
    "SpanLog",
    "collect_spans",
    "write_heartbeat",
    "read_heartbeats",
    "SPANS_DIRNAME",
    "WORKERS_DIRNAME",
]

#: Lifecycle phases in canonical order (unhappy-path phases excluded).
PHASES = ("enqueued", "claimed", "simulated", "saved")

SPANS_DIRNAME = "spans"
WORKERS_DIRNAME = "workers"


def new_trace_id() -> str:
    """A fresh sweep-scoped trace id (16 hex chars)."""
    return uuid.uuid4().hex[:16]


def _sanitize(actor: str) -> str:
    return "".join(
        ch if ch.isalnum() or ch in "-_." else "_" for ch in actor
    ) or "anon"


class SpanLog:
    """Appends one actor's span records to its sidecar (crash-safe).

    One JSON line per record via a single ``os.write`` on an
    ``O_APPEND`` descriptor — same contract as the store's index
    journal: concurrent actors each own their file, a crash can at
    worst tear the final line, and :func:`collect_spans` skips torn
    lines.  Never raises: tracing must not take a worker down.
    """

    def __init__(self, queue_root: Path, actor: str) -> None:
        self.actor = actor
        self.path = (
            Path(queue_root) / SPANS_DIRNAME / f"{_sanitize(actor)}.jsonl"
        )
        self._pid = os.getpid()
        self._host = platform.node()

    def record(
        self,
        phase: str,
        digest: str,
        trace_id: str = "",
        **extra: Any,
    ) -> None:
        entry = {
            "ts": time.time(),
            "phase": phase,
            "digest": digest,
            "trace_id": trace_id,
            "actor": self.actor,
            "pid": self._pid,
            "host": self._host,
            **extra,
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            line = json.dumps(entry, sort_keys=True) + "\n"
            fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                os.write(fd, line.encode("utf-8"))
            finally:
                os.close(fd)
        except OSError:
            pass


def collect_spans(
    queue_root: Path, trace_id: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Every span record under ``<queue>/spans/``, sorted by time.

    ``trace_id`` filters to one sweep; torn/unparsable lines are
    skipped (a live actor may be mid-append).
    """
    spans_dir = Path(queue_root) / SPANS_DIRNAME
    records: List[Dict[str, Any]] = []
    try:
        names = sorted(os.listdir(spans_dir))
    except OSError:
        return records
    for name in names:
        if not name.endswith(".jsonl"):
            continue
        try:
            with open(spans_dir / name, encoding="utf-8") as fh:
                for line in fh:
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue
                    if not isinstance(entry, dict) or "phase" not in entry:
                        continue
                    if trace_id and entry.get("trace_id") != trace_id:
                        continue
                    records.append(entry)
        except OSError:
            continue
    records.sort(key=lambda r: (r.get("ts", 0.0), r.get("digest", "")))
    return records


# -- worker heartbeats -----------------------------------------------------

def write_heartbeat(
    queue_root: Path, worker_id: str, counters: Dict[str, Any]
) -> None:
    """Atomically publish one worker's live counter snapshot.

    ``<queue>/workers/<worker_id>.json`` is replaced whole (mkstemp +
    ``os.replace``), so readers never see a torn heartbeat.  Best
    effort: a failed write never raises into the drain loop.
    """
    workers_dir = Path(queue_root) / WORKERS_DIRNAME
    payload = {
        "worker_id": worker_id,
        "pid": os.getpid(),
        "host": platform.node(),
        "ts": time.time(),
        **counters,
    }
    try:
        workers_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(workers_dir), prefix=".hb.", suffix=".tmp"
        )
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(
            tmp_name, workers_dir / f"{_sanitize(worker_id)}.json"
        )
    except OSError:
        pass


def read_heartbeats(
    queue_root: Path, max_age_s: Optional[float] = None
) -> List[Dict[str, Any]]:
    """Every worker heartbeat under the queue dir (newest-write wins).

    ``max_age_s`` drops heartbeats older than that — the distinction
    between "workers this drain ever had" (None) and "workers alive
    right now".  Each returned dict gains an ``age_s`` field.
    """
    workers_dir = Path(queue_root) / WORKERS_DIRNAME
    now = time.time()
    out: List[Dict[str, Any]] = []
    try:
        names = sorted(os.listdir(workers_dir))
    except OSError:
        return out
    for name in names:
        if not name.endswith(".json") or name.startswith("."):
            continue
        try:
            with open(workers_dir / name, encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            continue
        if not isinstance(entry, dict) or "worker_id" not in entry:
            continue
        try:
            # A torn or hand-edited file can hold a non-numeric ts;
            # treat it like any other unreadable heartbeat.
            age = now - float(entry.get("ts", 0.0) or 0.0)
        except (TypeError, ValueError):
            continue
        if max_age_s is not None and age > max_age_s:
            continue
        entry["age_s"] = age
        out.append(entry)
    return out
