"""Result-store tests: round-trip fidelity, invalidation, resilience.

The acceptance bar for the store is exact: a stats object served from
disk must equal the freshly simulated one field-for-field, and any
config change must miss cleanly rather than serve a stale number.
"""

import dataclasses
import json

import pytest

from repro.harness import experiments
from repro.sim.executor import Executor, RunSpec
from repro.sim.stats import MachineStats, ThreadStats
from repro.sim.store import ResultStore, STORE_VERSION, default_cache_dir

SPEC = RunSpec("tms", "tiny", "1x1", 4, "glsc")


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


class TestStatsSerialization:
    def test_round_trip_through_json(self):
        stats = Executor().run(SPEC)
        wire = json.loads(json.dumps(stats.to_dict()))
        rebuilt = MachineStats.from_dict(wire)
        assert rebuilt == stats
        assert rebuilt.summary() == stats.summary()

    def test_thread_stats_round_trip(self):
        threads = ThreadStats(instructions=7, mem_stall_cycles=3,
                              finish_cycle=99)
        assert ThreadStats.from_dict(threads.to_dict()) == threads

    def test_unknown_keys_ignored(self):
        data = MachineStats().to_dict()
        data["counter_from_the_future"] = 1
        assert MachineStats.from_dict(data) == MachineStats()


class TestStoreRoundTrip:
    def test_save_load(self, store):
        stats = Executor().run(SPEC)
        digest = SPEC.digest()
        store.save(digest, stats, spec=SPEC.to_dict(),
                   config=SPEC.config().to_dict())
        assert digest in store
        assert store.load(digest) == stats
        record = store.load_record(digest)
        assert record["spec"]["kernel"] == "tms"
        assert record["config"]["simd_width"] == 4
        assert record["version"] == STORE_VERSION

    def test_miss_returns_none(self, store):
        assert store.load("0" * 64) is None
        assert "0" * 64 not in store

    def test_persists_across_executors(self, store):
        first = Executor(store=store)
        a = first.run(SPEC)
        assert (first.simulations, first.store_hits) == (1, 0)

        second = Executor(store=store)
        b = second.run(SPEC)
        assert (second.simulations, second.store_hits) == (0, 1)
        assert a == b

    def test_corrupt_file_is_a_miss(self, store):
        executor = Executor(store=store)
        executor.run(SPEC)
        path = store.path_for(SPEC.digest())
        path.write_text("{not json")

        fresh = Executor(store=store)
        fresh.run(SPEC)
        assert fresh.simulations == 1
        # The rerun healed the entry.
        assert store.load(SPEC.digest()) is not None

    def test_digest_mismatch_is_a_miss(self, store):
        executor = Executor(store=store)
        executor.run(SPEC)
        path = store.path_for(SPEC.digest())
        record = json.loads(path.read_text())
        record["digest"] = "f" * 64
        path.write_text(json.dumps(record))
        assert store.load(SPEC.digest()) is None

    def test_config_change_invalidates(self, store):
        executor = Executor(store=store)
        executor.run(SPEC)
        # Same workload, different machine: must simulate anew...
        changed = Executor(store=store)
        changed.run(SPEC.with_overrides(mem_latency=123))
        assert changed.simulations == 1
        # ...and both entries coexist under distinct digests.
        assert len(store) == 2


class TestProvenance:
    def test_fresh_results_carry_provenance(self, store):
        import os

        executor = Executor(store=store)
        executor.run(SPEC)
        record = store.load_record(SPEC.digest())
        prov = record["provenance"]
        assert prov["worker_pid"] == os.getpid()
        assert prov["wall_time_s"] > 0
        assert prov["created"] > 0
        for key in ("repro_version", "python", "platform"):
            assert key in prov

    def test_save_without_provenance_still_loads(self, store):
        stats = Executor().run(SPEC)
        store.save(SPEC.digest(), stats)
        assert store.load(SPEC.digest()) == stats
        assert store.load_record(SPEC.digest())["provenance"] == {}

    def test_unknown_record_keys_ignored_on_load(self, store):
        """Forward compatibility: a record written by a newer repro
        version (extra top-level keys) must still be served."""
        executor = Executor(store=store)
        stats = executor.run(SPEC)
        path = store.path_for(SPEC.digest())
        record = json.loads(path.read_text())
        record["added_by_a_future_version"] = {"telemetry_v2": [1, 2]}
        path.write_text(json.dumps(record))
        assert store.load(SPEC.digest()) == stats


class TestHarnessCaching:
    def test_repeated_fig8_is_all_store_hits(self, store):
        """Acceptance shape: a repeat invocation simulates nothing."""
        cold = Executor(store=store)
        rows_cold = experiments.fig8(("tms",), ("tiny",), widths=(1, 4),
                                     executor=cold)
        assert cold.simulations == 4

        warm = Executor(store=store)
        rows_warm = experiments.fig8(("tms",), ("tiny",), widths=(1, 4),
                                     executor=warm)
        assert warm.simulations == 0
        assert warm.store_hits == 4
        assert [r.ratios for r in rows_warm] == [r.ratios for r in rows_cold]

    def test_served_sweep_leaves_the_store_unchanged(self, store):
        specs = [SPEC, SPEC.with_overrides(mem_latency=123)]
        Executor(store=store).run_sweep(specs)
        before = {p.name: p.read_bytes() for p in store.root.iterdir()}
        warm = Executor(store=store)
        warm.run_sweep(specs)
        assert warm.store_hits == len(specs)
        after = {p.name: p.read_bytes() for p in store.root.iterdir()}
        assert after == before


class TestMaintenance:
    """The `repro cache` surface: records, stale detection."""

    def test_records_yields_valid_entries_only(self, store):
        Executor(store=store).run(SPEC)
        (store.root / ("ab" * 32 + ".json")).write_text("{corrupt")
        entries = list(store.records())
        assert len(entries) == 1
        digest, record = entries[0]
        assert digest == SPEC.digest()
        assert record["spec"]["kernel"] == "tms"

    def test_stale_digest_detection_and_prune(self, store):
        Executor(store=store).run(SPEC)
        digest = SPEC.digest()
        # Simulate a config-schema change stranding the entry: the
        # stored spec no longer re-derives the filename digest.
        path = store.path_for(digest)
        record = json.loads(path.read_text())
        stranded = store.root / ("cd" * 32 + ".json")
        record["digest"] = stranded.stem
        stranded.write_text(json.dumps(record))

        assert store.stale_digests() == [stranded.stem]
        assert store.prune(dry_run=True) == [stranded.stem]
        assert stranded.exists()                    # dry run deletes nothing
        assert store.prune() == [stranded.stem]
        assert not stranded.exists()
        assert digest in store                      # healthy entry survives

    def test_corrupt_entry_is_stale(self, store):
        Executor(store=store).run(SPEC)
        store.path_for(SPEC.digest()).write_text("{torn write")
        assert store.stale_digests() == [SPEC.digest()]

    def test_record_without_spec_is_kept(self, store):
        stats = Executor().run(SPEC)
        store.save(SPEC.digest(), stats)            # no spec recorded
        assert store.stale_digests() == []

    def test_describe_aggregates(self, store):
        Executor(store=store).run(SPEC)
        info = store.describe()
        assert info["entries"] == 1
        assert info["by_kernel"] == {"tms": 1}
        assert info["size_bytes"] > 0
        assert info["simulated_wall_s"] > 0
        assert info["stale"] == 0


class TestSpecFromDict:
    def test_round_trip(self):
        spec = RunSpec("hip", "B", "4x1", 16, "base",
                       overrides={"mem_latency": 99}, warm=True)
        rebuilt = RunSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.digest() == spec.digest()

    def test_json_round_trip_preserves_digest(self):
        wire = json.loads(json.dumps(SPEC.to_dict()))
        assert RunSpec.from_dict(wire).digest() == SPEC.digest()

    def test_unknown_keys_ignored(self):
        data = SPEC.to_dict()
        data["field_from_the_future"] = True
        assert RunSpec.from_dict(data) == SPEC


class TestDefaults:
    def test_default_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        assert ResultStore().root == tmp_path / "elsewhere"

    def test_cli_flags_thread_through(self, monkeypatch, tmp_path, capsys):
        from repro.harness.cli import main

        cache = tmp_path / "cli-cache"
        code = main(["fig8", "--kernels", "tms", "--datasets", "tiny",
                     "--jobs", "2", "--cache-dir", str(cache)])
        assert code == 0
        assert "Figure 8" in capsys.readouterr().out
        assert len(ResultStore(cache)) == 6  # 3 widths x 2 variants

        # Second invocation: everything served from the store.
        code = main(["fig8", "--kernels", "tms", "--datasets", "tiny",
                     "--cache-dir", str(cache)])
        assert code == 0
        err = capsys.readouterr().err
        assert "[0 simulations, 6 from store" in err

    def test_cli_no_cache_writes_nothing(self, tmp_path, capsys):
        from repro.harness.cli import main

        cache = tmp_path / "untouched"
        code = main(["fig5a", "--kernels", "tms", "--datasets", "tiny",
                     "--cache-dir", str(cache), "--no-cache"])
        assert code == 0
        capsys.readouterr()
        assert not cache.exists()
