"""Workers draining a queue must be invisible in the results.

The acceptance test of the sweep service: two detached worker
*processes* (the real CLI verb, not an in-process shortcut) drain one
smoke sweep from a ``queue://`` directory, and the store they fill is
byte-identical to a serial in-process run — only provenance (worker
identity, timestamps) may differ.  Alongside it, in-process
``worker_loop`` tests cover the store-skip and poison-spec paths.
"""

import io
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.bench.suite import BenchSuite
from repro.errors import SimulationError
from repro.obs.log import StructLogger
from repro.obs.metrics import MetricsRegistry
from repro.obs.sweeptrace import collect_spans, read_heartbeats
from repro.service.queue import WorkQueue
from repro.service.worker import worker_loop
from repro.sim.executor import Executor, RunSpec
from repro.sim.store import ResultStore

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")
SPEC = RunSpec("tms", "tiny", "1x1", 4, "glsc")
OTHER = RunSpec("hip", "tiny", "1x1", 4, "glsc")


def canonical_records(store: ResultStore):
    """digest -> canonical JSON bytes of the record, sans provenance."""
    out = {}
    for digest in store.digests():
        record = store.load_record(digest)
        assert record is not None, f"unreadable record {digest}"
        record.pop("provenance", None)
        record.pop("created", None)
        out[digest] = json.dumps(
            record, sort_keys=True, separators=(",", ":")
        ).encode()
    return out


def test_two_worker_processes_drain_smoke_sweep_byte_identical(tmp_path):
    specs = list(BenchSuite.smoke().specs())

    serial_store = ResultStore(tmp_path / "serial")
    Executor(jobs=1, store=serial_store).run_sweep(specs)

    queue_dir = tmp_path / "queue"
    shared_store = ResultStore(tmp_path / "shared")
    WorkQueue(queue_dir).submit_many(specs, batch_size=1)

    workers = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro.harness", "worker",
                f"queue://{queue_dir}",
                "--cache-dir", str(shared_store.root),
                "--worker-id", f"test-worker-{n}",
                "--exit-when-empty", "--quiet",
            ],
            env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
        )
        for n in range(2)
    ]
    for proc in workers:
        assert proc.wait(timeout=300) == 0

    assert WorkQueue(queue_dir).is_empty()
    serial_records = canonical_records(serial_store)
    shared_records = canonical_records(shared_store)
    assert set(shared_records) == set(serial_records)
    for digest, payload in serial_records.items():
        assert shared_records[digest] == payload, (
            f"record {digest} differs between serial and worker runs"
        )

    # Both workers pulled weight, and each record names its producer.
    producers = {
        shared_store.load_record(d)["provenance"].get("worker_id")
        for d in shared_store.digests()
    }
    assert producers <= {"test-worker-0", "test-worker-1"}
    assert len(producers) == 2, "one worker drained everything"


def test_executor_queue_backend_delegates_to_workers(tmp_path):
    """``Executor(backend="queue://...")`` runs nothing itself."""
    store = ResultStore(tmp_path / "store")
    queue_dir = tmp_path / "queue"
    executor = Executor(
        store=store,
        backend=f"queue://{queue_dir}",
        queue_poll_s=0.05,
        queue_timeout_s=120,
    )
    worker = threading.Thread(
        target=worker_loop,
        args=(WorkQueue(queue_dir), store),
        kwargs={"worker_id": "bg", "idle_exit_s": 10, "poll_s": 0.05},
        daemon=True,
    )
    worker.start()

    local = Executor(store=ResultStore(tmp_path / "local")).run(SPEC)
    stats = executor.run(SPEC)
    assert stats == local
    assert executor.counters.queued == 1
    assert executor.counters.simulated == 0
    assert [t.source for t in executor.telemetry] == ["queue"]
    worker.join(timeout=60)


class TestQueueBackend:
    """The executor side of a queue drain: submit, wait, trace."""

    def executor(self, tmp_path, **kwargs):
        return Executor(
            store=ResultStore(tmp_path / "store"),
            backend=f"queue://{tmp_path / 'queue'}",
            queue_poll_s=0.05,
            **kwargs,
        )

    def test_times_out_naming_the_worker_verb(self, tmp_path):
        executor = self.executor(tmp_path, queue_timeout_s=0.2)
        with pytest.raises(SimulationError, match="repro worker"):
            executor.run_sweep([SPEC])

    def test_enqueues_only_specs_the_store_lacks(self, tmp_path):
        executor = self.executor(tmp_path, queue_timeout_s=0.2)
        Executor(store=executor.store).run(SPEC)
        with pytest.raises(SimulationError, match="1/1 specs unserved"):
            executor.run_sweep([SPEC, OTHER])
        assert executor.store_hits == 1
        queue = WorkQueue(tmp_path / "queue")
        assert queue.pending_digests() == [OTHER.digest()]

    def test_traced_drain_spans_and_provenance(self, tmp_path):
        executor = self.executor(tmp_path, queue_timeout_s=60)
        worker = threading.Thread(
            target=worker_loop,
            args=(WorkQueue(tmp_path / "queue"), executor.store),
            kwargs={"worker_id": "w0", "max_tasks": 1,
                    "idle_exit_s": 60, "poll_s": 0.05},
            daemon=True,
        )
        worker.start()
        executor.run(SPEC)
        worker.join(timeout=60)
        assert not worker.is_alive()

        [entry] = executor.telemetry
        assert entry.source == "queue"
        assert entry.trace_id
        spans = collect_spans(tmp_path / "queue", trace_id=entry.trace_id)
        assert [s["phase"] for s in spans] == [
            "enqueued", "claimed", "simulated", "saved",
        ]
        assert {s["actor"] for s in spans} == {"queue", "w0"}
        provenance = executor.store.load_record(SPEC.digest())["provenance"]
        assert provenance["trace_id"] == entry.trace_id
        assert provenance["worker_id"] == "w0"


class TestWorkerLoop:
    def test_skips_digests_the_store_already_holds(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        Executor(store=store).run(SPEC)
        queue = WorkQueue(tmp_path / "q")
        queue.submit(SPEC)
        summary = worker_loop(
            queue, store, worker_id="w", exit_when_empty=True
        )
        assert summary.skipped == 1
        assert summary.executed == 0
        assert queue.is_empty()

    def test_survives_a_poison_spec(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        queue = WorkQueue(tmp_path / "q")
        queue.submit(RunSpec("no-such-kernel", "tiny", "1x1", 4, "glsc"))
        queue.submit(SPEC)
        summary = worker_loop(
            queue, store, worker_id="w", exit_when_empty=True
        )
        assert summary.executed == 1
        assert summary.failed == 1
        assert SPEC.digest() in store
        # The failed task was nacked, not lost: it is pending again.
        assert queue.counts()["pending"] == 1

    def test_drain_leaves_only_records_in_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        queue = WorkQueue(tmp_path / "q")
        queue.submit_many([SPEC, OTHER], batch_size=2)
        worker_loop(queue, store, worker_id="w", exit_when_empty=True)
        reader = Executor(store=store)
        reader.run_sweep([SPEC, OTHER])
        assert reader.store_hits == 2
        assert sorted(p.name for p in store.root.iterdir()) == sorted(
            f"{spec.digest()}.json" for spec in (SPEC, OTHER)
        )

    def test_worker_id_stays_off_later_in_process_runs(self, tmp_path):
        # A worker names itself on the records it saves, and on no
        # others: a plain executor in the same process afterwards
        # stores an empty worker id.
        store = ResultStore(tmp_path / "s")
        queue = WorkQueue(tmp_path / "q")
        queue.submit(SPEC)
        worker_loop(queue, store, worker_id="w-test", exit_when_empty=True)
        produced = store.load_record(SPEC.digest())["provenance"]
        assert produced["worker_id"] == "w-test"

        other = ResultStore(tmp_path / "other")
        Executor(store=other).run(OTHER)
        plain = other.load_record(OTHER.digest())["provenance"]
        assert plain["worker_id"] == ""


class TestWorkerTelemetry:
    def drain(self, tmp_path, trace_id=""):
        """One worker drains one traced (or untraced) task."""
        registry = MetricsRegistry()
        stream = io.StringIO()
        store = ResultStore(tmp_path / "s", metrics=registry)
        queue = WorkQueue(tmp_path / "q", metrics=registry)
        queue.submit(SPEC, trace_id=trace_id)
        summary = worker_loop(
            queue, store, worker_id="w0", exit_when_empty=True,
            log=StructLogger(stream=stream), heartbeat_s=0.0,
        )
        return summary, registry, stream, store, queue

    def test_worker_metrics_count_claims_and_outcomes(self, tmp_path):
        summary, registry, _, _, _ = self.drain(tmp_path)
        assert (summary.claims, summary.executed) == (1, 1)
        assert (summary.skipped, summary.failed) == (0, 0)
        assert summary.sim_wall_s > 0.0
        assert registry.get("store_puts_total").total() == 1

    def test_heartbeat_file_carries_the_counters(self, tmp_path):
        summary, _, _, _, queue = self.drain(tmp_path)
        beats = read_heartbeats(queue.root)
        assert len(beats) == 1
        beat = beats[0]
        assert beat["worker_id"] == "w0"
        assert beat["claims"] == 1
        assert beat["executed"] == 1
        assert beat["failed"] == 0
        assert beat["sim_wall_s"] > 0.0

    def test_contention_series_and_heartbeat_rollup(self, tmp_path):
        # A contended multi-thread point produces nonzero conflict
        # counters; the worker folds them into its summary and its
        # heartbeat so `repro status` can sum them across processes.
        store = ResultStore(tmp_path / "s")
        queue = WorkQueue(tmp_path / "q")
        contended = RunSpec("tms", "tiny", "4x4", 4, "glsc")
        queue.submit(contended)
        summary = worker_loop(
            queue, store, worker_id="w0", exit_when_empty=True,
            heartbeat_s=0.0,
        )
        stats = store.load_record(contended.digest())["stats"]
        expected = sum(stats["glsc_element_failures"].values())
        assert expected > 0
        assert summary.contention_failed_lanes == expected
        beat = read_heartbeats(queue.root)[0]
        assert beat["contention_failed_lanes"] == expected
        assert beat["contention_sc_failures"] == stats["sc_failures"]

    def test_single_thread_task_stays_consistent(self, tmp_path):
        # Even a 1x1 point feeds the roll-up (intra-vector aliases can
        # fail lanes without any cross-thread contention); the summary
        # and heartbeat must agree with the stored stats.
        summary, _, _, store, queue = self.drain(tmp_path)
        stats = store.load_record(SPEC.digest())["stats"]
        expected = sum(stats["glsc_element_failures"].values())
        assert summary.contention_failed_lanes == expected
        beat = read_heartbeats(queue.root)[0]
        assert beat["contention_failed_lanes"] == expected

    def test_structured_log_narrates_the_drain(self, tmp_path):
        _, _, stream, _, _ = self.drain(tmp_path)
        records = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        events = [r["event"] for r in records]
        assert "done-task" in events
        done = next(r for r in records if r["event"] == "done-task")
        assert done["worker_id"] == "w0"
        assert done["digest"] == SPEC.digest()[:12]

    def test_traced_drain_leaves_lifecycle_spans(self, tmp_path):
        _, _, _, store, queue = self.drain(tmp_path, trace_id="t1")
        phases = [
            s["phase"] for s in collect_spans(queue.root, trace_id="t1")
        ]
        assert phases == ["enqueued", "claimed", "simulated", "saved"]
        record = store.load_record(SPEC.digest())
        assert record["provenance"]["trace_id"] == "t1"

    def test_untraced_drain_stamps_no_trace_provenance(self, tmp_path):
        _, _, _, store, queue = self.drain(tmp_path)
        record = store.load_record(SPEC.digest())
        assert "trace_id" not in record["provenance"]
        assert collect_spans(queue.root) == []

    def test_failed_task_counts_as_failed_outcome(self, tmp_path):
        stream = io.StringIO()
        store = ResultStore(tmp_path / "s")
        queue = WorkQueue(tmp_path / "q")
        queue.submit(RunSpec("no-such-kernel", "tiny", "1x1", 4, "glsc"))
        summary = worker_loop(
            queue, store, worker_id="w0", exit_when_empty=True,
            log=StructLogger(stream=stream),
        )
        assert (summary.claims, summary.failed, summary.executed) == (1, 1, 0)
        fails = [
            json.loads(line) for line in stream.getvalue().splitlines()
            if json.loads(line)["event"] == "fail"
        ]
        assert len(fails) == 1
        assert fails[0]["level"] == "warning"
