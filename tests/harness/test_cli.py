"""Smoke tests for the observability CLI subcommands."""

import json

import pytest

from repro.harness.cli import main


class TestTraceSubcommand:
    def test_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "hip.trace.json"
        jsonl = tmp_path / "events.jsonl"
        telemetry_out = tmp_path / "telemetry.json"
        code = main([
            "trace", "hip", "--dataset", "tiny", "--topology", "1x2",
            "--out", str(out), "--jsonl", str(jsonl),
            "--telemetry-out", str(telemetry_out),
        ])
        assert code == 0

        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert {e["ph"] for e in doc["traceEvents"]} <= {
            "M", "X", "i", "b", "e"
        }

        events = [json.loads(line) for line in
                  jsonl.read_text().splitlines()]
        assert any(e["type"] == "CacheMiss" for e in events)

        telemetry = json.loads(telemetry_out.read_text())
        assert telemetry["source"] == "simulated"
        assert telemetry["cycles"] > 0
        assert telemetry["wall_time_s"] > 0

        stdout = capsys.readouterr().out
        assert "ui.perfetto.dev" in stdout
        assert "cycles" in stdout

    def test_micro_spec_accepted(self, tmp_path):
        out = tmp_path / "micro.trace.json"
        code = main([
            "trace", "micro:A", "--topology", "1x2", "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["traceEvents"]

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "hip", "--dataset", "nope",
                  "--out", str(tmp_path / "x.json")])


class TestProfileSubcommand:
    def test_prints_latency_and_metrics_report(self, capsys):
        code = main([
            "profile", "tms", "--dataset", "tiny", "--topology", "1x2",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "cycles" in stdout
        assert "VGATHERLINK" in stdout          # kind-latency table
        assert "events observed" in stdout      # metrics render
        assert "sync share of occupancy" in stdout

    def test_base_variant_profiles_too(self, capsys):
        code = main([
            "profile", "tms", "--dataset", "tiny", "--topology", "1x2",
            "--variant", "base",
        ])
        assert code == 0
        assert "LL" in capsys.readouterr().out


class TestCacheSubcommand:
    @pytest.fixture
    def populated(self, tmp_path):
        cache = tmp_path / "cache"
        assert main(["fig8", "--kernels", "tms", "--datasets", "tiny",
                     "--cache-dir", str(cache)]) == 0
        return cache

    def test_ls_lists_entries(self, populated, capsys):
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", str(populated)]) == 0
        out = capsys.readouterr().out
        assert "tms/tiny" in out
        assert "6 entries" in out

    def test_ls_kernel_filter(self, populated, capsys):
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", str(populated),
                     "--kernel", "hip"]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_stats_reports_entries_and_simulated_time(
        self, populated, capsys
    ):
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(populated)]) == 0
        out = capsys.readouterr().out
        assert "6 entries" in out
        assert "by kernel: tms=6" in out
        assert "of simulation represented" in out

    def test_prune_removes_stale_only(self, populated, capsys):
        from repro.sim.store import ResultStore

        store = ResultStore(populated)
        good = len(store)
        (populated / ("ee" * 32 + ".json")).write_text("{corrupt")
        capsys.readouterr()
        assert main(["cache", "prune", "--cache-dir",
                     str(populated)]) == 0
        assert "removed 1 stale entries" in capsys.readouterr().out
        assert len(store) == good


class TestBenchSubcommand:
    def test_run_compare_report_round_trip(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BENCH_SHA", "feed123")
        assert main(["bench", "run", "--suite", "smoke", "--repeats", "1",
                     "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "archived" in out

        bench = tmp_path / "BENCH_feed123.json"
        doc = json.loads(bench.read_text())
        assert doc["schema_version"] == 1
        assert doc["suite"] == "smoke"
        assert len(doc["points"]) == 16
        assert (tmp_path / "BENCH_TRAJECTORY.jsonl").exists()

        # Distill reference bands, then the gate passes on itself.
        assert main(["bench", "reference", "--dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["bench", "compare", "--dir", str(tmp_path)]) == 0
        assert "GATE: ok" in capsys.readouterr().out

        report = tmp_path / "report.md"
        assert main(["bench", "report", "--dir", str(tmp_path),
                     "--out", str(report)]) == 0
        text = report.read_text()
        assert "# Bench report" in text and "## Trajectory" in text

    def test_compare_without_artifacts_errors(self, tmp_path, capsys):
        assert main(["bench", "compare", "--dir", str(tmp_path)]) == 2
        assert "run `bench run` first" in capsys.readouterr().err

    def test_reference_merges_unless_fresh(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SHA", "feed124")
        assert main(["bench", "run", "--suite", "smoke", "--repeats", "1",
                     "--dir", str(tmp_path), "--no-trajectory"]) == 0
        assert main(["bench", "reference", "--dir", str(tmp_path)]) == 0

        # A band from another suite must survive a re-distill...
        ref_path = tmp_path / "BENCH_REFERENCE.json"
        reference = json.loads(ref_path.read_text())
        reference["speedup_bands"]["other/A:4x4:w4"] = [1.0, 2.0]
        ref_path.write_text(json.dumps(reference))
        assert main(["bench", "reference", "--dir", str(tmp_path)]) == 0
        merged = json.loads(ref_path.read_text())
        assert merged["speedup_bands"]["other/A:4x4:w4"] == [1.0, 2.0]
        assert "tms/tiny:4x4:w4" in merged["speedup_bands"]

        # ...but --fresh starts over.
        assert main(["bench", "reference", "--dir", str(tmp_path),
                     "--fresh"]) == 0
        fresh = json.loads(ref_path.read_text())
        assert "other/A:4x4:w4" not in fresh["speedup_bands"]


class TestBenchHtmlReport:
    def test_report_html_writes_the_dashboard(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BENCH_SHA", "feed125")
        assert main(["bench", "run", "--suite", "smoke", "--repeats", "1",
                     "--dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["bench", "report", "--dir", str(tmp_path),
                     "--html"]) == 0
        html = (tmp_path / "bench_dashboard.html").read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "feed125" in html
        assert "<svg" in html


class TestSweepTraceSubcommand:
    def test_exports_a_chrome_trace_of_a_drain(self, tmp_path, capsys):
        from repro.service.queue import WorkQueue
        from repro.service.worker import worker_loop
        from repro.sim.executor import RunSpec
        from repro.sim.store import ResultStore

        queue_dir = tmp_path / "q"
        queue = WorkQueue(queue_dir)
        queue.submit(
            RunSpec("tms", "tiny", "1x1", 4, "glsc"), trace_id="t1"
        )
        worker_loop(
            queue, ResultStore(tmp_path / "s"), worker_id="w0",
            exit_when_empty=True,
        )

        out = tmp_path / "drain.trace.json"
        assert main(["sweep-trace", f"queue://{queue_dir}",
                     "--out", str(out)]) == 0
        assert "spans" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        names = {
            e["args"]["name"] for e in doc["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert "w0" in names

    def test_traceless_queue_is_an_error(self, tmp_path, capsys):
        assert main(["sweep-trace", f"queue://{tmp_path / 'q'}"]) == 2
        assert "no spans" in capsys.readouterr().err


class TestContendSubcommand:
    def test_markdown_report(self, capsys):
        code = main([
            "contend", "tms", "--dataset", "tiny", "--topology", "2x2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# Contention report" in out
        assert "## Kill matrix" in out
        assert "## Hot lines" in out
        assert "MISMATCH" not in out

    def test_json_crosschecks_against_machine_stats(self, capsys):
        code = main([
            "contend", "tms", "--dataset", "tiny", "--topology", "4x4",
            "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(doc["crosscheck"].values()), doc["crosscheck"]
        # Matrix marginals equal the per-cause kill totals.
        total = doc["total_kills"]
        assert sum(doc["row_sums"].values()) == total
        assert sum(doc["col_sums"].values()) == total
        assert sum(doc["kills_by_cause"].values()) == total
        # Failed lanes reproduce MachineStats.glsc_element_failures.
        nonzero = {
            cause: count
            for cause, count in doc["stats"]["glsc_element_failures"].items()
            if count
        }
        assert doc["failed_lanes"] == nonzero
        assert doc["spec"]["kernel"] == "tms"
        assert doc["cycles"] > 0

    def test_json_output_is_deterministic(self, capsys):
        args = ["contend", "tms", "--dataset", "tiny",
                "--topology", "2x2", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_hot_lines_are_symbolized(self, capsys):
        assert main([
            "contend", "tms", "--dataset", "tiny", "--topology", "4x4",
        ]) == 0
        assert "tms." in capsys.readouterr().out

    def test_micro_spec_accepted(self, capsys):
        code = main([
            "contend", "micro:D", "--topology", "2x2",
        ])
        assert code == 0
        assert "# Contention report" in capsys.readouterr().out


class TestStatusSubcommand:
    @pytest.fixture
    def queue_dir(self, tmp_path):
        """A live-looking drain: one pending task, two heartbeats."""
        from repro.obs.sweeptrace import write_heartbeat
        from repro.service.queue import WorkQueue
        from repro.sim.executor import RunSpec

        root = tmp_path / "queue"
        WorkQueue(root).submit(RunSpec("tms", "tiny", "1x1", 4, "glsc"))
        write_heartbeat(root, "w0", {
            "claims": 2, "executed": 2, "skipped": 1, "failed": 0,
            "sim_wall_s": 0.5, "contention_failed_lanes": 30,
            "contention_sc_failures": 4,
        })
        write_heartbeat(root, "w1", {
            "claims": 1, "executed": 1, "skipped": 0, "failed": 0,
            "sim_wall_s": 0.25, "contention_failed_lanes": 12,
            "contention_sc_failures": 0,
        })
        return root

    def test_missing_queue_directory_returns_2(self, tmp_path, capsys):
        assert main(["status", f"queue://{tmp_path}/nowhere"]) == 2
        assert "no queue directory" in capsys.readouterr().err

    def test_text_summary_reads_the_directory(self, queue_dir, capsys):
        assert main(["status", f"queue://{queue_dir}"]) == 0
        out = capsys.readouterr().out
        assert f"queue {queue_dir}: 1 pending, 0 leased" in out
        assert "workers (2 heartbeat(s)):" in out
        assert "w0: 2 claims, 2 executed, 1 skipped, 0 failed" in out
        assert "w1: 1 claims, 1 executed, 0 skipped, 0 failed" in out

    def test_contention_rollup_printed_across_workers(
        self, queue_dir, capsys
    ):
        assert main(["status", f"queue://{queue_dir}"]) == 0
        out = capsys.readouterr().out
        assert "contention: 42 failed GLSC lanes, 4 sc failures" in out

    def test_json_document_reads_the_directory(self, queue_dir, capsys):
        assert main(["status", f"queue://{queue_dir}", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["root"] == str(queue_dir)
        assert (doc["pending"], doc["leased"]) == (1, 0)
        beats = {beat["worker_id"]: beat for beat in doc["workers"]}
        assert set(beats) == {"w0", "w1"}
        assert beats["w0"]["claims"] == 2
        assert beats["w1"]["executed"] == 1
        assert beats["w0"]["age_s"] >= 0.0

    def test_queue_without_workers_says_so(self, tmp_path, capsys):
        from repro.service.queue import WorkQueue
        from repro.sim.executor import RunSpec

        root = tmp_path / "queue"
        WorkQueue(root).submit(RunSpec("tms", "tiny", "1x1", 4, "glsc"))
        assert main(["status", f"queue://{root}"]) == 0
        assert "no heartbeats yet" in capsys.readouterr().out


class TestTelemetryFlag:
    def test_sweep_summary_table(self, tmp_path, capsys):
        code = main([
            "fig8", "--kernels", "tms", "--datasets", "tiny",
            "--cache-dir", str(tmp_path / "cache"), "--telemetry",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "source" in stdout and "cyc/s" in stdout
        assert "simulated" in stdout
        assert "fresh cycles" in stdout
