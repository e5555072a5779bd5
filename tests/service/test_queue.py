"""Work-queue semantics: claims are exclusive, leases expire, acks
are idempotent.  All filesystem-level — no server or worker involved.
"""

import io
import json

import pytest

from repro.errors import ConfigError
from repro.obs.log import StructLogger
from repro.obs.metrics import MetricsRegistry
from repro.obs.sweeptrace import collect_spans
from repro.service.queue import WorkQueue, parse_queue_url
from repro.sim.executor import RunSpec, Sweep

SPEC = RunSpec("tms", "tiny", "1x1", 4, "glsc")
OTHER = RunSpec("hip", "tiny", "1x1", 4, "glsc")


class TestUrlParsing:
    def test_queue_url_roundtrip(self, tmp_path):
        assert parse_queue_url(f"queue://{tmp_path}/q") == tmp_path / "q"

    def test_rejects_other_schemes(self):
        with pytest.raises(ConfigError):
            parse_queue_url("redis://localhost/0")

    def test_rejects_empty_path(self):
        with pytest.raises(ConfigError):
            parse_queue_url("queue://")


class TestSubmit:
    def test_submit_creates_pending_task(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        assert queue.submit(SPEC) is True
        assert queue.counts() == {"pending": 1, "leased": 0}

    def test_submit_dedups_in_flight_digests(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        assert queue.submit(SPEC) is True
        assert queue.submit(SPEC) is False          # already pending
        task = queue.claim("w1")
        assert queue.submit(SPEC) is False          # leased counts too
        queue.ack(task)
        assert queue.submit(SPEC) is True           # done -> resubmittable

    def test_submit_sweep(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        sweep = Sweep([SPEC, OTHER, SPEC])          # duplicate collapses
        assert queue.submit_many(sweep, batch_size=1) == 2
        assert queue.counts()["pending"] == 2


class TestClaim:
    def test_claim_is_exclusive(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.submit(SPEC)
        first = queue.claim("w1")
        assert first is not None and first.digest == SPEC.digest()
        assert queue.claim("w2") is None            # nothing left
        assert queue.counts() == {"pending": 0, "leased": 1}

    def test_claimed_spec_roundtrips(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.submit(SPEC)
        task = queue.claim("w1")
        assert task.members == ((SPEC.digest(), SPEC),)

    def test_lease_stamp_names_the_worker(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.submit(SPEC)
        task = queue.claim("worker-seven")
        lease = json.loads(task.lease_path.read_text())["lease"]
        assert lease["worker_id"] == "worker-seven"
        assert lease["deadline"] > lease["claimed"]

    def test_poison_payloads_are_dropped_not_looped(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.pending_dir.mkdir(parents=True)
        (queue.pending_dir / "deadbeef.json").write_text("{not json")
        queue.submit(SPEC)
        task = queue.claim("w1")
        assert task is not None and task.digest == SPEC.digest()
        assert queue.claim("w1") is None            # poison gone, not requeued


class TestAckNack:
    def test_ack_removes_the_lease(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.submit(SPEC)
        task = queue.claim("w1")
        queue.ack(task)
        assert queue.is_empty()

    def test_ack_tolerates_missing_lease(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.submit(SPEC)
        task = queue.claim("w1")
        task.lease_path.unlink()                    # someone raced us
        queue.ack(task)                             # must not raise

    def test_nack_returns_task_to_pending(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.submit(SPEC)
        task = queue.claim("w1")
        queue.nack(task)
        assert queue.counts() == {"pending": 1, "leased": 0}
        again = queue.claim("w2")
        assert again.digest == SPEC.digest()


class TestLeaseExpiry:
    def test_expired_lease_is_requeued_and_reclaimable(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_s=0.01)
        queue.submit(SPEC)
        task = queue.claim("crashed-worker")
        assert queue.counts()["leased"] == 1

        lease = json.loads(task.lease_path.read_text())["lease"]
        requeued = queue.requeue_expired(now=lease["deadline"] + 1.0)
        assert requeued == [SPEC.digest()]
        assert queue.counts() == {"pending": 1, "leased": 0}

        replacement = queue.claim("healthy-worker")
        assert replacement is not None
        assert replacement.members == ((SPEC.digest(), SPEC),)

    def test_live_lease_is_left_alone(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_s=3600.0)
        queue.submit(SPEC)
        queue.claim("w1")
        assert queue.requeue_expired() == []
        assert queue.counts()["leased"] == 1

    def test_stale_ack_after_requeue_cannot_kill_the_new_lease(
        self, tmp_path
    ):
        queue = WorkQueue(tmp_path / "q", lease_s=0.01)
        queue.submit(SPEC)
        stale = queue.claim("straggler")
        lease = json.loads(stale.lease_path.read_text())["lease"]
        queue.requeue_expired(now=lease["deadline"] + 1.0)
        fresh = queue.claim("replacement")
        # The straggler finally acks its long-gone lease: the nonce in
        # the lease filename means this cannot unlink the fresh one.
        queue.ack(stale)
        assert fresh.lease_path.exists()
        assert queue.counts()["leased"] == 1


def telemetry_queue(tmp_path, **kwargs):
    """A queue wired to a fresh registry and a JSON log buffer."""
    registry = MetricsRegistry()
    stream = io.StringIO()
    queue = WorkQueue(
        tmp_path / "q",
        metrics=registry,
        logger=StructLogger(stream=stream, component="queue"),
        **kwargs,
    )
    return queue, registry, stream


def log_records(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestQueueMetrics:
    def test_lifecycle_ops_are_counted(self, tmp_path):
        queue, registry, _ = telemetry_queue(tmp_path)
        queue.submit(SPEC)
        queue.submit(OTHER)
        task = queue.claim("w1")
        queue.ack(task)
        other = queue.claim("w1")
        queue.nack(other)
        ops = registry.get("queue_tasks_total")
        assert ops.value(op="submitted") == 2
        assert ops.value(op="claimed") == 2
        assert ops.value(op="acked") == 1
        assert ops.value(op="nacked") == 1

    def test_requeue_on_timeout_counts_and_logs(self, tmp_path):
        queue, registry, stream = telemetry_queue(tmp_path, lease_s=0.01)
        queue.submit(SPEC)
        task = queue.claim("crashed-worker")
        lease = json.loads(task.lease_path.read_text())["lease"]
        queue.requeue_expired(now=lease["deadline"] + 1.0)

        assert registry.get("queue_tasks_total").value(op="requeued") == 1
        assert queue.counts() == {"pending": 1, "leased": 0}
        events = [r for r in log_records(stream)
                  if r["event"] == "requeue-expired"]
        assert len(events) == 1
        assert events[0]["level"] == "info"
        assert events[0]["digest"] == SPEC.digest()[:12]

    def test_poison_drop_counts_and_warns(self, tmp_path):
        queue, registry, stream = telemetry_queue(tmp_path)
        queue.pending_dir.mkdir(parents=True)
        (queue.pending_dir / "deadbeef.json").write_text("{not json")
        queue.submit(SPEC)
        assert queue.claim("w1") is not None        # the real task
        assert queue.claim("w1") is None            # hits + drops poison

        assert registry.get("queue_tasks_total").value(op="poisoned") == 1
        warnings = [r for r in log_records(stream)
                    if r["event"] == "poison-drop"]
        assert len(warnings) == 1
        assert warnings[0]["level"] == "warning"

    def test_stale_ack_does_not_underflow_the_leased_depth(self, tmp_path):
        queue, registry, _ = telemetry_queue(tmp_path)
        queue.submit(SPEC)
        task = queue.claim("w1")
        task.lease_path.unlink()                    # someone raced us
        queue.ack(task)                             # stale ack, no effect
        assert registry.get("queue_tasks_total").value(op="acked") == 0
        assert queue.counts() == {"pending": 0, "leased": 0}


class TestCounts:
    def test_counts_see_other_processes_files(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.submit(SPEC)
        assert queue.counts()["pending"] == 1
        # Another process publishes into the same directory: the next
        # scan sees it, with nothing cached to go stale.
        (queue.pending_dir / f"{OTHER.digest()}.json").write_text(
            json.dumps({"spec": OTHER.to_dict()})
        )
        assert queue.counts()["pending"] == 2

    def test_temp_files_are_not_tasks(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.submit(SPEC)
        (queue.pending_dir / ".half-written.tmp").write_text("{")
        assert queue.counts() == {"pending": 1, "leased": 0}
        assert queue.pending_digests() == [SPEC.digest()]


class TestQueueTracing:
    def test_traced_submit_records_an_enqueued_span(self, tmp_path):
        queue, _, _ = telemetry_queue(tmp_path)
        queue.submit(SPEC, trace_id="t1")
        spans = collect_spans(queue.root, trace_id="t1")
        assert [s["phase"] for s in spans] == ["enqueued"]
        assert spans[0]["digest"] == SPEC.digest()

    def test_trace_id_rides_the_payload_to_the_claimer(self, tmp_path):
        queue, _, _ = telemetry_queue(tmp_path)
        queue.submit(SPEC, trace_id="t1")
        task = queue.claim("w1")
        assert task.trace_id == "t1"

    def test_trace_id_survives_lease_expiry(self, tmp_path):
        queue, _, _ = telemetry_queue(tmp_path, lease_s=0.01)
        queue.submit(SPEC, trace_id="t1")
        task = queue.claim("crashed-worker")
        lease = json.loads(task.lease_path.read_text())["lease"]
        queue.requeue_expired(now=lease["deadline"] + 1.0)
        again = queue.claim("healthy-worker")
        assert again.trace_id == "t1"
        phases = [
            s["phase"] for s in collect_spans(queue.root, trace_id="t1")
        ]
        assert "requeued" in phases

    def test_untraced_submit_writes_no_spans(self, tmp_path):
        queue, _, _ = telemetry_queue(tmp_path)
        queue.submit(SPEC)
        queue.ack(queue.claim("w1"))
        assert collect_spans(queue.root) == []
