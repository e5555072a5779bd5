"""BenchRunner tests: fresh repeats, aggregation, document schema."""

import time

import pytest

from repro.bench.baseline import BENCH_SCHEMA_VERSION
from repro.bench.runner import BenchRunner, mad
from repro.bench.suite import BenchSuite


def tiny_suite(name="tiny"):
    return BenchSuite.grid(
        name, ("tms",), "tiny", topologies=("1x2",), widths=(1, 4)
    )


@pytest.fixture
def doc(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SHA", "cafef00")
    return BenchRunner(tiny_suite(), repeats=2).run()


class TestMad:
    def test_single_sample_has_no_spread(self):
        assert mad([1.0]) == 0.0

    def test_robust_center(self):
        # One outlier does not blow the scale up: median of |x - 2| over
        # {1, 0, 0, 98} = 0.5.
        assert mad([1.0, 2.0, 2.0, 100.0]) == 0.5


class TestRunnerDocument:
    def test_schema_and_identity(self, doc):
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION
        assert doc["git_sha"] == "cafef00"
        assert doc["suite"] == "tiny"
        assert doc["repeats"] == 2
        assert doc["deterministic"] is True
        assert doc["provenance"]["repro_version"]

    def test_one_entry_per_point_with_all_samples(self, doc):
        assert len(doc["points"]) == 4
        for point in doc["points"]:
            wall = point["wall_s"]
            assert len(wall["samples"]) == 2
            assert wall["min"] <= wall["median"]
            assert wall["mad"] >= 0.0
            assert point["cycles"] > 0
            assert point["cyc_per_s"] > 0
            assert point["summary"]["cycles"] == point["cycles"]

    def test_fidelity_from_collected_stats(self, doc):
        """Speedups/failure mixes come from MachineStats of this run."""
        speedup = doc["fidelity"]["speedup"]
        assert set(speedup) == {"tms/tiny:1x2:w1", "tms/tiny:1x2:w4"}
        by_id = {p["id"]: p["cycles"] for p in doc["points"]}
        for key, value in speedup.items():
            expected = by_id[key + ":base"] / by_id[key + ":glsc"]
            assert value == pytest.approx(expected)
        mix = doc["fidelity"]["failure_mix"]["tms/tiny:1x2:w4:glsc"]
        assert 0.0 <= mix["rate"] <= 1.0
        assert mix["attempts"] > 0
        assert mix["dominant"] in (None, *mix["mix"].keys())
        if any(mix["mix"].values()):
            assert sum(mix["mix"].values()) == pytest.approx(1.0)

    def test_contention_block_on_every_point(self, doc):
        """The observed pass tags each point with a compact block."""
        for point in doc["points"]:
            block = point["contention"]
            assert set(block) == {
                "kills", "by_cause", "failed_lanes", "hot_line",
                "hot_line_total", "storms", "max_retry_depth",
            }
            assert block["kills"] >= 0
            assert sum(block["by_cause"].values()) == block["kills"]
            if block["hot_line"] is not None:
                # Symbolized through the kernel's named regions.
                assert block["hot_line"].startswith(("tms.", "0x"))

    def test_no_phases_run_omits_contention(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SHA", "cafef00")
        doc = BenchRunner(tiny_suite(), repeats=1, phases=False).run()
        for point in doc["points"]:
            assert "contention" not in point
            assert "phases" not in point

    def test_first_call_cost_stays_out_of_the_samples(self, monkeypatch):
        """A one-repeat median is not the process's cold first call."""
        from repro.sim.machine import Machine

        run = Machine.run
        calls = []

        def cold_first_run(machine):
            if not calls:
                time.sleep(0.5)
            calls.append(machine)
            return run(machine)

        monkeypatch.setattr(Machine, "run", cold_first_run)
        doc = BenchRunner(tiny_suite(), repeats=1, phases=False).run()
        assert max(p["wall_s"]["median"] for p in doc["points"]) < 0.5

    def test_trajectory_entry_rolls_contention_up(self, doc):
        from repro.bench.baseline import trajectory_entry

        entry = trajectory_entry(doc)
        rollup = entry["contention"]
        assert rollup["kills"] == sum(
            p["contention"]["kills"] for p in doc["points"]
        )
        assert rollup["failed_lanes"] == sum(
            p["contention"]["failed_lanes"] for p in doc["points"]
        )
        assert set(rollup["points"]) == {p["id"] for p in doc["points"]}

    def test_trajectory_entry_without_contention_omits_key(self, doc):
        from repro.bench.baseline import trajectory_entry

        stripped = dict(doc)
        stripped["points"] = [
            {k: v for k, v in p.items() if k != "contention"}
            for p in doc["points"]
        ]
        assert "contention" not in trajectory_entry(stripped)

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            BenchRunner(tiny_suite(), repeats=0)

    def test_repeats_are_fresh_not_cached(self, monkeypatch):
        """Both repeats must actually simulate (no memo/store serving)."""
        monkeypatch.setenv("REPRO_BENCH_SHA", "cafef00")
        from repro.sim import executor as executor_mod

        calls = []
        original = executor_mod.execute_spec

        def counting(spec, *args, **kwargs):
            calls.append(spec)
            return original(spec, *args, **kwargs)

        monkeypatch.setattr(executor_mod, "execute_spec", counting)
        suite = BenchSuite.grid(
            "one", ("tms",), "tiny", topologies=("1x2",), widths=(4,)
        )
        BenchRunner(suite, repeats=3).run()
        assert len(calls) == len(suite) * 3
