"""Span sidecars, heartbeats, and the distributed sweep trace export."""

import json
import os

from repro.obs.perfetto import SweepTraceExporter
from repro.obs.sweeptrace import (
    PHASES,
    SpanLog,
    collect_spans,
    new_trace_id,
    read_heartbeats,
    write_heartbeat,
)

DIGEST = "a" * 64
OTHER = "b" * 64


class TestTraceIds:
    def test_ids_are_unique_hex(self):
        ids = {new_trace_id() for _ in range(32)}
        assert len(ids) == 32
        for tid in ids:
            assert len(tid) == 16
            int(tid, 16)


class TestSpanLog:
    def test_records_round_trip_through_collect(self, tmp_path):
        log = SpanLog(tmp_path, "worker-0")
        log.record("claimed", DIGEST, trace_id="t1")
        log.record("simulated", DIGEST, trace_id="t1", wall_s=0.5)
        spans = collect_spans(tmp_path)
        assert [s["phase"] for s in spans] == ["claimed", "simulated"]
        assert spans[0]["actor"] == "worker-0"
        assert spans[0]["digest"] == DIGEST
        assert spans[0]["trace_id"] == "t1"
        assert spans[1]["wall_s"] == 0.5
        assert spans[0]["pid"] == os.getpid()

    def test_actors_append_to_separate_files(self, tmp_path):
        SpanLog(tmp_path, "worker-0").record("claimed", DIGEST)
        SpanLog(tmp_path, "server").record("submitted", DIGEST)
        names = sorted(p.name for p in (tmp_path / "spans").iterdir())
        assert names == ["server.jsonl", "worker-0.jsonl"]

    def test_actor_names_are_sanitized_for_the_filesystem(self, tmp_path):
        SpanLog(tmp_path, "../evil worker").record("claimed", DIGEST)
        names = [p.name for p in (tmp_path / "spans").iterdir()]
        assert names == [".._evil_worker.jsonl"]

    def test_collect_filters_by_trace_id(self, tmp_path):
        log = SpanLog(tmp_path, "q")
        log.record("enqueued", DIGEST, trace_id="t1")
        log.record("enqueued", OTHER, trace_id="t2")
        spans = collect_spans(tmp_path, trace_id="t1")
        assert len(spans) == 1
        assert spans[0]["digest"] == DIGEST

    def test_collect_skips_torn_lines(self, tmp_path):
        log = SpanLog(tmp_path, "q")
        log.record("enqueued", DIGEST)
        with open(log.path, "a", encoding="utf-8") as fh:
            fh.write('{"phase": "clai')  # torn mid-append
        assert len(collect_spans(tmp_path)) == 1

    def test_collect_on_a_traceless_queue_is_empty(self, tmp_path):
        assert collect_spans(tmp_path) == []

    def test_canonical_phase_order_is_declared(self):
        assert PHASES == ("enqueued", "claimed", "simulated", "saved")


class TestHeartbeats:
    def test_round_trip_with_age(self, tmp_path):
        write_heartbeat(tmp_path, "worker-0", {"claims": 3, "executed": 2})
        beats = read_heartbeats(tmp_path)
        assert len(beats) == 1
        beat = beats[0]
        assert beat["worker_id"] == "worker-0"
        assert beat["claims"] == 3
        assert beat["executed"] == 2
        assert beat["age_s"] < 60.0

    def test_rewrite_replaces_not_appends(self, tmp_path):
        write_heartbeat(tmp_path, "worker-0", {"claims": 1})
        write_heartbeat(tmp_path, "worker-0", {"claims": 5})
        beats = read_heartbeats(tmp_path)
        assert len(beats) == 1
        assert beats[0]["claims"] == 5

    def test_max_age_drops_stale_workers(self, tmp_path):
        write_heartbeat(tmp_path, "worker-0", {"claims": 1})
        stale = tmp_path / "workers" / "worker-1.json"
        stale.write_text(json.dumps(
            {"worker_id": "worker-1", "ts": 1.0, "claims": 9}
        ))
        alive = read_heartbeats(tmp_path, max_age_s=60.0)
        assert [b["worker_id"] for b in alive] == ["worker-0"]
        everyone = read_heartbeats(tmp_path)
        assert len(everyone) == 2

    def test_empty_queue_has_no_heartbeats(self, tmp_path):
        assert read_heartbeats(tmp_path) == []

    def test_torn_heartbeat_file_is_skipped(self, tmp_path):
        # A reader racing os.replace can observe a half-written file;
        # garbage JSON must not take the whole listing down.
        write_heartbeat(tmp_path, "worker-0", {"claims": 1})
        torn = tmp_path / "workers" / "worker-1.json"
        torn.write_text('{"worker_id": "worker-1", "cla')
        beats = read_heartbeats(tmp_path)
        assert [b["worker_id"] for b in beats] == ["worker-0"]

    def test_garbage_ts_is_skipped_not_raised(self, tmp_path):
        write_heartbeat(tmp_path, "worker-0", {"claims": 1})
        bad = tmp_path / "workers" / "worker-1.json"
        bad.write_text(json.dumps(
            {"worker_id": "worker-1", "ts": "not-a-number", "claims": 9}
        ))
        worse = tmp_path / "workers" / "worker-2.json"
        worse.write_text(json.dumps(
            {"worker_id": "worker-2", "ts": [1, 2], "claims": 9}
        ))
        beats = read_heartbeats(tmp_path)
        assert [b["worker_id"] for b in beats] == ["worker-0"]

    def test_non_dict_heartbeat_is_skipped(self, tmp_path):
        write_heartbeat(tmp_path, "worker-0", {"claims": 1})
        (tmp_path / "workers" / "worker-1.json").write_text("[1, 2, 3]")
        (tmp_path / "workers" / "worker-2.json").write_text(
            json.dumps({"claims": 9})  # no worker_id
        )
        beats = read_heartbeats(tmp_path)
        assert [b["worker_id"] for b in beats] == ["worker-0"]


def lifecycle_spans(trace_id, actor="worker-0", base=100.0):
    """One digest's full happy path as collected span records."""
    phases = ("submitted", "enqueued", "claimed", "simulated", "saved")
    return [
        {
            "ts": base + i, "phase": phase, "digest": DIGEST,
            "actor": "server" if phase == "submitted" else actor,
            "trace_id": trace_id,
        }
        for i, phase in enumerate(phases)
    ]


class TestSweepTraceExporter:
    def test_actors_become_process_tracks(self):
        exporter = SweepTraceExporter.from_spans(lifecycle_spans("t1"))
        doc = exporter.to_dict()
        names = {
            e["args"]["name"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"sweep lifecycle", "server", "worker-0"}

    def test_lifecycle_span_brackets_first_and_last_phase(self):
        doc = SweepTraceExporter.from_spans(
            lifecycle_spans("t1")
        ).to_dict()
        begins = [e for e in doc["traceEvents"] if e["ph"] == "b"]
        ends = [e for e in doc["traceEvents"] if e["ph"] == "e"]
        assert len(begins) == len(ends) == 1
        assert begins[0]["ts"] == 0
        assert ends[0]["ts"] == 4_000_000  # 4 s after the first span
        assert begins[0]["args"]["trace_id"] == "t1"
        assert ends[0]["args"]["last_phase"] == "saved"

    def test_worker_gets_simulate_and_save_slices(self):
        doc = SweepTraceExporter.from_spans(
            lifecycle_spans("t1")
        ).to_dict()
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        labels = {e["name"].split(" ")[0] for e in slices}
        assert labels == {"simulate", "save"}
        simulate = next(
            e for e in slices if e["name"].startswith("simulate")
        )
        assert simulate["dur"] == 1_000_000  # claimed -> simulated, 1 s

    def test_malformed_records_are_dropped(self):
        exporter = SweepTraceExporter()
        exporter.add({"phase": "claimed"})  # no ts/digest
        exporter.add({"ts": 1.0, "digest": DIGEST, "phase": "claimed"})
        assert len(exporter) == 1

    def test_empty_exporter_still_writes_valid_json(self, tmp_path):
        out = tmp_path / "trace.json"
        SweepTraceExporter().write(str(out))
        doc = json.loads(out.read_text())
        assert doc["traceEvents"] == []
        assert doc["otherData"]["spans"] == 0

    def test_collected_spans_feed_the_exporter(self, tmp_path):
        trace_id = new_trace_id()
        queue_log = SpanLog(tmp_path, "queue")
        worker_log = SpanLog(tmp_path, "worker-0")
        queue_log.record("enqueued", DIGEST, trace_id=trace_id)
        worker_log.record("claimed", DIGEST, trace_id=trace_id)
        worker_log.record("simulated", DIGEST, trace_id=trace_id)
        exporter = SweepTraceExporter.from_spans(
            collect_spans(tmp_path, trace_id=trace_id)
        )
        assert len(exporter) == 3
        doc = exporter.to_dict()
        assert doc["otherData"]["spans"] == 3
