"""Executor/RunSpec tests: identity, dedup, parallel equivalence.

The tiny dataset keeps every simulation here sub-second; what is under
test is the run API's semantics, not calibrated numbers.
"""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.harness import experiments
from repro.sim.config import MachineConfig
from repro.sim.executor import Executor, RunSpec, Sweep, execute_spec
from repro.sim.store import ResultStore

SPEC = RunSpec("tms", "tiny", "1x1", 4, "glsc")


class TestRunSpec:
    def test_immutable_and_hashable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SPEC.kernel = "gbc"
        assert SPEC == RunSpec("tms", "tiny", "1x1", 4, "glsc")
        assert hash(SPEC) == hash(RunSpec("tms", "tiny", "1x1", 4, "glsc"))

    def test_overrides_normalized(self):
        a = RunSpec("tms", overrides={"mem_latency": 70, "l2_latency": 14})
        b = RunSpec(
            "tms", overrides=(("l2_latency", 14), ("mem_latency", 70))
        )
        assert a == b
        assert hash(a) == hash(b)
        assert a.digest() == b.digest()

    def test_duplicate_override_names_rejected(self):
        with pytest.raises(ConfigError):
            RunSpec("tms", overrides=(("mem_latency", 70),
                                      ("mem_latency", 80)))

    def test_config_resolution(self):
        spec = RunSpec("tms", "A", "4x1", 16,
                       overrides={"mem_latency": 99})
        config = spec.config()
        assert config.n_cores == 4
        assert config.threads_per_core == 1
        assert config.simd_width == 16
        assert config.mem_latency == 99

    def test_micro_constructor(self):
        spec = RunSpec.micro("B", "4x4", 4, "base")
        assert spec.is_micro
        assert spec.warm
        assert spec.kernel == "micro:B"

    def test_with_overrides_merges(self):
        spec = SPEC.with_overrides(mem_latency=70)
        assert dict(spec.overrides) == {"mem_latency": 70}
        assert dict(spec.with_overrides(mem_latency=90).overrides) == {
            "mem_latency": 90
        }


class TestDigest:
    def test_stable_across_instances(self):
        assert SPEC.digest() == RunSpec("tms", "tiny", "1x1", 4,
                                        "glsc").digest()

    def test_changes_with_any_spec_axis(self):
        digests = {
            SPEC.digest(),
            RunSpec("gbc", "tiny", "1x1", 4, "glsc").digest(),
            RunSpec("tms", "A", "1x1", 4, "glsc").digest(),
            RunSpec("tms", "tiny", "4x4", 4, "glsc").digest(),
            RunSpec("tms", "tiny", "1x1", 16, "glsc").digest(),
            RunSpec("tms", "tiny", "1x1", 4, "base").digest(),
            dataclasses.replace(SPEC, warm=True).digest(),
        }
        assert len(digests) == 7

    def test_changes_with_config_override(self):
        assert SPEC.digest() != SPEC.with_overrides(mem_latency=279).digest()
        assert (
            SPEC.with_overrides(mem_latency=280).digest()
            != SPEC.with_overrides(mem_latency=279).digest()
        )

    def test_default_valued_override_is_identity(self):
        # Spelling out the default produces the same resolved config,
        # hence the same store entry.
        default = MachineConfig().mem_latency
        assert SPEC.digest() == SPEC.with_overrides(
            mem_latency=default
        ).digest()

    def test_machine_config_digest_sensitivity(self):
        config = MachineConfig()
        assert config.digest() == MachineConfig().digest()
        for change in ({"mem_latency": 100}, {"l1_assoc": 8},
                       {"prefetch_enabled": False}):
            assert config.digest() != dataclasses.replace(
                config, **change
            ).digest()


class TestSweep:
    def test_product_covers_grid(self):
        sweep = Sweep.product(("tms", "gbc"), ("tiny",), ("1x1", "4x4"),
                              (1, 4), ("base", "glsc"))
        assert len(sweep) == 2 * 1 * 2 * 2 * 2
        assert len(set(sweep)) == len(sweep)

    def test_concatenation_and_distinct(self):
        sweep = Sweep([SPEC]) + Sweep([SPEC, RunSpec("gbc", "tiny")])
        assert len(sweep) == 3
        assert sweep.distinct() == [SPEC, RunSpec("gbc", "tiny")]


class TestExecutor:
    def test_dedup_within_sweep(self):
        executor = Executor()
        results = executor.run_sweep(Sweep([SPEC, SPEC, SPEC]))
        assert executor.simulations == 1
        assert results[SPEC].cycles > 0

    def test_memo_across_calls(self):
        executor = Executor()
        first = executor.run(SPEC)
        second = executor.run(SPEC)
        assert executor.simulations == 1
        assert first is second

    def test_executor_overrides_merge_under_spec(self):
        executor = Executor(mem_latency=70)
        resolved = executor.resolve(SPEC)
        assert resolved.config().mem_latency == 70
        # A spec's own override wins over the executor default.
        spec = SPEC.with_overrides(mem_latency=140)
        assert executor.resolve(spec).config().mem_latency == 140

    def test_executor_override_changes_results(self):
        near = Executor(mem_latency=30).run(SPEC)
        far = Executor(mem_latency=560).run(SPEC)
        assert near.cycles < far.cycles

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigError):
            Executor(jobs=0)

    def test_serial_parallel_equivalence(self):
        sweep = Sweep.product(("tms", "hip"), ("tiny",), ("1x1",), (4,),
                              ("base", "glsc"))
        serial = Executor(jobs=1).run_sweep(sweep)
        parallel = Executor(jobs=4).run_sweep(sweep)
        assert set(serial) == set(parallel)
        for spec in serial:
            assert serial[spec] == parallel[spec], spec.label()

    def test_execute_spec_matches_executor(self):
        assert execute_spec(SPEC) == Executor().run(SPEC)


class TestSessionFacadeRemoved:
    def test_facade_module_is_gone(self):
        with pytest.raises(ImportError):
            import repro.harness.session  # noqa: F401

    def test_executor_overrides_replace_session_overrides(self):
        slow = Executor(mem_latency=560).run(SPEC)
        fast = Executor(mem_latency=30).run(SPEC)
        assert fast.cycles < slow.cycles

    def test_experiments_reuse_a_shared_executor_memo(self):
        executor = Executor()
        first = experiments.fig8(("tms",), ("tiny",), widths=(1,),
                                 executor=executor)
        again = experiments.fig8(("tms",), ("tiny",), widths=(1,),
                                 executor=executor)
        assert first[0].ratios == again[0].ratios
        # The second pass reused the executor's memo: no new sims.
        assert executor.simulations == 2


class TestTelemetry:
    def test_every_served_spec_gets_a_record(self):
        executor = Executor()
        executor.run(SPEC)       # simulated
        executor.run(SPEC)       # memo
        sources = [t.source for t in executor.telemetry]
        assert sources == ["simulated", "memo"]
        fresh, memo = executor.telemetry
        assert fresh.digest == memo.digest == SPEC.digest()
        assert fresh.label == SPEC.label()
        assert fresh.cycles == memo.cycles > 0
        assert fresh.wall_time_s > 0
        assert fresh.worker_pid > 0
        # A memo hit costs no simulation wall time.
        assert memo.wall_time_s == 0.0

    def test_store_hits_are_labelled(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        Executor(store=store).run(SPEC)
        warm = Executor(store=store)
        warm.run(SPEC)
        assert [t.source for t in warm.telemetry] == ["store"]

    def test_parallel_sweep_records_worker_pids(self):
        sweep = Sweep.product(("tms", "hip"), ("tiny",), ("1x1",), (4,),
                              ("glsc",))
        executor = Executor(jobs=2)
        executor.run_sweep(sweep)
        assert len(executor.telemetry) == 2
        for t in executor.telemetry:
            assert t.source == "simulated"
            assert t.worker_pid > 0
            assert t.cycles > 0


class TestObservedRuns:
    """An observer must actually see the run — never be silently
    bypassed by the memo, the store, or a worker process."""

    def test_tracer_forces_fresh_inprocess_simulation(self, tmp_path):
        from repro.obs.bus import EventBus
        from repro.sim.trace import InstructionTrace

        store = ResultStore(tmp_path / "cache")
        Executor(store=store).run(SPEC)  # store now holds the result

        observed = Executor(store=store, jobs=4)
        bus = EventBus()
        trace = bus.attach(InstructionTrace())
        stats = observed.run(SPEC, obs=bus)
        assert observed.simulations == 1   # not served from the store
        assert observed.store_hits == 0
        assert len(trace) > 0              # the trace saw every retire
        assert stats.cycles > 0
        # In-process: the recorded pid is this process, not a worker.
        import os

        assert observed.telemetry[-1].worker_pid == os.getpid()

    def test_observed_run_bypasses_the_memo_too(self):
        from repro.obs.bus import EventBus
        from repro.sim.trace import InstructionTrace

        executor = Executor()
        executor.run(SPEC)
        bus = EventBus()
        trace = bus.attach(InstructionTrace())
        executor.run(SPEC, obs=bus)
        assert executor.simulations == 2
        assert len(trace) > 0

    def test_event_bus_observer_counts_as_observed(self):
        from repro.obs.bus import EventBus
        from repro.obs.sinks import MetricsSink

        executor = Executor(jobs=4)
        executor.run(SPEC)
        bus = EventBus()
        metrics = bus.attach(MetricsSink())
        executor.run(SPEC, obs=bus)
        assert executor.simulations == 2
        assert metrics.events_seen > 0

    def test_observed_and_unobserved_stats_agree(self):
        from repro.obs.bus import EventBus
        from repro.sim.trace import InstructionTrace

        plain = Executor().run(SPEC)
        bus = EventBus()
        bus.attach(InstructionTrace())
        traced = Executor().run(SPEC, obs=bus)
        assert traced == plain  # observation never changes timing


class TestCrossFigureDedup:
    def test_shared_points_simulated_once(self):
        executor = Executor()
        experiments.fig6(("tms",), ("tiny",), executor=executor)
        count = executor.simulations
        # fig8's width-4 column and table4's runs are subsets of what
        # fig6 already simulated, plus new widths only.
        experiments.table4(("tms",), ("tiny",), executor=executor)
        assert executor.simulations == count
        experiments.fig8(("tms",), ("tiny",), widths=(4,),
                         executor=executor)
        assert executor.simulations == count
