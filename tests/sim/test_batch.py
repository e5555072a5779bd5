"""Batched-backend determinism: batching must be unobservable.

The batched backend (:mod:`repro.sim.batch`) shares interned datasets
and image snapshots across machines and interleaves them all on one
event heap — three ways a bug could leak one machine's state or
scheduling into another's results.  These tests pin the contract from
every angle:

* property-style: seeded-random subsets of the smoke grid plus the
  Section 5.2 microbenchmark specs, shuffled, mixed across
  protocols/variants/widths, split into batches of sizes including 1,
  are stats-digest-identical to serial :func:`execute_spec`;
* the scheduling quantum (``chunk_cycles``) is sweep-invariant;
* the executor's store records are byte-identical to records built
  from :func:`execute_spec` apart from provenance, and its telemetry
  carries the batch tags.
"""

import hashlib
import json
import random

from repro.bench.suite import BenchSuite
from repro.sim.batch import BatchRunner
from repro.sim.executor import Executor, RunSpec, execute_spec
from repro.sim.store import ResultStore

#: The microbenchmark allocates its index streams lazily, while the
#: program runs — the allocation a batch must land in each machine's
#: own image rather than the shared template.
MICRO_SPECS = [
    RunSpec.micro(scenario, "4x4", width, "glsc")
    for scenario in "ABCD"
    for width in (4, 16)
]


def digest(stats) -> str:
    payload = json.dumps(
        stats.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def spec_pool():
    """Smoke grid plus off-grid protocol/variant/microbenchmark points."""
    pool = list(BenchSuite.smoke().specs())
    pool += [
        RunSpec("tms", "tiny", "1x2", 4, "glsc",
                overrides={"protocol": "mesi"}),
        RunSpec("hip", "tiny", "1x2", 4, "base",
                overrides={"protocol": "moesi"}),
        RunSpec("tms", "tiny", "1x2", 1, "base", warm=True),
    ]
    return pool + MICRO_SPECS


class TestBatchMatchesSerial:
    def test_random_subsets_identical_to_serial(self):
        """Seeded-random mixed batches reproduce execute_spec exactly."""
        rng = random.Random(0xBA7C4)
        pool = spec_pool()
        serial = {spec: digest(execute_spec(spec)) for spec in pool}
        for batch_size in (1, 2, 3, 7):
            subset = rng.sample(pool, rng.randint(2, len(pool)))
            rng.shuffle(subset)
            for base in range(0, len(subset), batch_size):
                batch = subset[base:base + batch_size]
                results = BatchRunner(batch).run()
                assert [r.spec for r in results] == batch
                for result in results:
                    assert digest(result.stats) == serial[result.spec], (
                        f"batched result for {result.spec.label()} "
                        f"diverged from serial at batch_size={batch_size}"
                    )

    def test_chunk_cycles_is_unobservable(self):
        """The cross-machine interleave quantum never changes results."""
        specs = spec_pool()[:5]
        want = [digest(r.stats) for r in BatchRunner(specs).run()]
        for chunk in (1, 17, 1 << 20):
            got = [
                digest(r.stats)
                for r in BatchRunner(specs, chunk_cycles=chunk).run()
            ]
            assert got == want, f"results moved at chunk_cycles={chunk}"

    def test_batch_of_one_matches_serial(self):
        for spec in (spec_pool()[0], MICRO_SPECS[0]):
            (result,) = BatchRunner([spec]).run()
            assert digest(result.stats) == digest(execute_spec(spec))

    def test_micro_batch_allocates_into_its_own_image(self):
        """Lazy allocations stay private to each machine's image."""
        specs = [MICRO_SPECS[0], RunSpec.micro("A", "4x4", 4, "base")]
        runner = BatchRunner(specs)
        results = runner.run()
        assert runner.info["interned_images"] == 1
        for spec, result in zip(specs, results):
            assert digest(result.stats) == digest(execute_spec(spec))

    def test_interning_is_shared_but_results_are_private(self):
        """Same-image specs share one interned snapshot, distinct stats."""
        specs = [
            RunSpec("tms", "tiny", "1x2", 4, "base"),
            RunSpec("tms", "tiny", "1x2", 4, "glsc"),
        ]
        runner = BatchRunner(specs)
        results = runner.run()
        assert runner.info["interned_images"] == 1
        assert digest(results[0].stats) != digest(results[1].stats)
        for spec, result in zip(specs, results):
            assert digest(result.stats) == digest(execute_spec(spec))


class TestExecutorBatchBackend:
    def test_store_records_byte_identical_sans_provenance(self, tmp_path):
        """A batched sweep's records equal execute_spec's, bar provenance."""
        specs = spec_pool()[:6]
        solo_store = ResultStore(tmp_path / "solo")
        batch_store = ResultStore(tmp_path / "batch")
        for spec in specs:
            solo_store.save(
                spec.digest(), execute_spec(spec), spec=spec.to_dict(),
                config=spec.config().to_dict(), provenance={},
            )
        batched = Executor(store=batch_store, batch_size=4)
        batched.run_sweep(specs)
        assert batched.counters.simulated == len(specs)
        digests = [spec.digest() for spec in specs]
        for spec_digest in digests:
            a = solo_store.load_record(spec_digest)
            b = batch_store.load_record(spec_digest)
            assert a is not None and b is not None
            for record in (a, b):
                record.pop("provenance")
                record.pop("created")
            assert a == b

    def test_batch_telemetry_tags(self):
        specs = spec_pool()[:5]
        executor = Executor(backend="batch", batch_size=2)
        executor.run_sweep(specs)
        batch_rows = [
            t for t in executor.telemetry if t.source == "simulated"
        ]
        assert len(batch_rows) == len(specs)
        assert all(t.batch_id for t in batch_rows)
        # batch_size=2 over 5 specs -> occupancies 2,2,1.
        assert sorted(t.batch_occupancy for t in batch_rows) == [1, 2, 2, 2, 2]
        assert all(t.wall_time_s > 0 for t in batch_rows)

    def test_batched_results_match_solo_executor(self):
        specs = spec_pool()[:4] + MICRO_SPECS[:2]
        batched = Executor(backend="batch", batch_size=8).run_sweep(specs)
        for spec in specs:
            assert digest(batched[spec]) == digest(execute_spec(spec))
