"""Batched queue files: submit_many publishing and worker batch drain.

One queue file per N specs cuts the per-spec filesystem round-trips,
and the claiming worker drains the whole file through one in-process
:class:`~repro.sim.batch.BatchRunner`.  The contract: store records
byte-identical (sans provenance) to a serial run, per-member
store-skip, whole-file nack on failure, member lists surviving lease
stamping and requeue.
"""

import json

from repro.obs.metrics import MetricsRegistry
from repro.service.queue import WorkQueue
from repro.service.worker import worker_loop
from repro.sim.executor import Executor, RunSpec
from repro.sim.store import ResultStore

SPECS = [
    RunSpec("tms", "tiny", "1x2", 4, "glsc"),
    RunSpec("tms", "tiny", "1x2", 4, "base"),
    RunSpec("hip", "tiny", "1x2", 4, "glsc"),
    RunSpec("hip", "tiny", "1x2", 1, "base"),
    RunSpec("tms", "tiny", "1x1", 4, "glsc"),
]


def canonical_records(store: ResultStore):
    out = {}
    for digest in store.digests():
        record = store.load_record(digest)
        assert record is not None
        record.pop("provenance", None)
        record.pop("created", None)
        out[digest] = json.dumps(
            record, sort_keys=True, separators=(",", ":")
        ).encode()
    return out


class TestSubmitMany:
    def test_one_file_per_group(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", metrics=MetricsRegistry())
        queued = queue.submit_many(SPECS, batch_size=2)
        assert queued == len(SPECS)
        # 5 specs at batch_size=2 -> two batch files + one singleton.
        assert queue.counts()["pending"] == 3

    def test_batch_size_histogram(self, tmp_path):
        metrics = MetricsRegistry()
        queue = WorkQueue(tmp_path / "q", metrics=metrics)
        queue.submit_many(SPECS, batch_size=2)
        hist = metrics.get("queue_batch_size")
        # Three files (2 + 2 + 1 specs): three observations summing to 5.
        assert hist.count() == 3
        assert hist.sum() == len(SPECS)

    def test_resubmit_in_flight_batch_is_noop(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", metrics=MetricsRegistry())
        assert queue.submit_many(SPECS, batch_size=4) == len(SPECS)
        assert queue.submit_many(SPECS, batch_size=4) == 0

    def test_claimed_batch_carries_members(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", metrics=MetricsRegistry())
        queue.submit_many(SPECS[:3], batch_size=3)
        task = queue.claim("w1")
        assert task is not None
        assert [spec for _, spec in task.members] == SPECS[:3]
        assert task.digest.startswith("batch-")

    def test_batch_payload_survives_lease_and_requeue(self, tmp_path):
        queue = WorkQueue(
            tmp_path / "q", lease_s=0.01, metrics=MetricsRegistry()
        )
        queue.submit_many(SPECS[:3], batch_size=3)
        first = queue.claim("w1")
        assert first is not None
        # The lease stamp rewrites the file; expiry renames it back to
        # pending, and the next claim must still see every member.
        requeued = queue.requeue_expired(now=9e18)
        assert requeued == [first.digest]
        second = queue.claim("w2")
        assert second is not None
        assert second.members == first.members


class TestWorkerBatchDrain:
    def test_batch_drain_byte_identical_to_serial(self, tmp_path):
        serial_store = ResultStore(tmp_path / "serial")
        Executor(store=serial_store).run_sweep(SPECS)

        queue = WorkQueue(tmp_path / "q", metrics=MetricsRegistry())
        store = ResultStore(tmp_path / "batch")
        queue.submit_many(SPECS, batch_size=2)
        summary = worker_loop(
            queue, store, worker_id="w-batch", exit_when_empty=True
        )
        assert summary.executed == len(SPECS)
        assert queue.is_empty()
        serial_records = canonical_records(serial_store)
        batch_records = canonical_records(store)
        assert batch_records == serial_records
        # Every member carries its file's id and occupancy in
        # provenance, the trailing singleton (5 specs at batch_size=2)
        # included: a one-spec file is a batch of one.
        occupancy = sorted(
            store.load_record(d)["provenance"]["batch_occupancy"]
            for d in store.digests()
            if store.load_record(d)["provenance"].get("batch_id")
        )
        assert occupancy == [1, 2, 2, 2, 2]

    def test_member_store_skip(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", metrics=MetricsRegistry())
        store = ResultStore(tmp_path / "store")
        # Pre-seed two of three members; only the third simulates.
        Executor(store=store).run_sweep(SPECS[:2])
        queue.submit_many(SPECS[:3], batch_size=3)
        summary = worker_loop(
            queue, store, worker_id="w-skip", exit_when_empty=True
        )
        assert summary.executed == 1
        assert summary.skipped == 2
        assert queue.is_empty()

    def test_fully_stored_batch_is_acked_without_simulating(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", metrics=MetricsRegistry())
        store = ResultStore(tmp_path / "store")
        Executor(store=store).run_sweep(SPECS[:2])
        queue.submit_many(SPECS[:2], batch_size=2)
        summary = worker_loop(
            queue, store, worker_id="w-ack", exit_when_empty=True
        )
        assert summary.executed == 0
        assert summary.skipped == 2
        assert queue.is_empty()

    def test_failed_batch_nacks_whole_file(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", metrics=MetricsRegistry())
        store = ResultStore(tmp_path / "store")
        poison = [SPECS[0], RunSpec("no-such-kernel", "tiny", "1x2", 4, "glsc")]
        queue.submit_many(poison, batch_size=2)
        summary = worker_loop(
            queue, store, worker_id="w-fail", exit_when_empty=True
        )
        assert summary.failed == 1
        assert summary.executed == 0
        # The whole file went back to pending (this worker excludes its
        # own poisoned digests, so it drains as "empty" around it).
        assert queue.counts()["pending"] == 1

    def test_executor_queue_backend_uses_batch_files(self, tmp_path):
        """End-to-end: executor submits batches, a worker drains them."""
        import threading

        queue_dir = tmp_path / "q"
        store = ResultStore(tmp_path / "store")
        metrics = MetricsRegistry()
        worker_queue = WorkQueue(queue_dir, metrics=metrics)
        drained = threading.Thread(
            target=worker_loop,
            args=(worker_queue, store),
            kwargs={"worker_id": "w-e2e", "idle_exit_s": 2.0},
        )
        drained.start()
        try:
            executor = Executor(
                store=store, backend=f"queue://{queue_dir}", batch_size=3
            )
            results = executor.run_sweep(SPECS)
        finally:
            drained.join(timeout=60)
        assert not drained.is_alive()
        assert executor.counters.queued == len(SPECS)
        solo = Executor().run_sweep(SPECS)
        for spec in SPECS:
            assert results[spec].to_dict() == solo[spec].to_dict()
