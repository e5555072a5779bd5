"""Batched-backend determinism: batching must be unobservable.

The batched backend (:mod:`repro.sim.batch`) shares template kernels,
their datasets included, across machines and runs them one after
another in one process — ways a bug could leak one machine's state
into another's results, or keep it alive.  These tests pin the
contract from every angle:

* property-style: seeded-random subsets of the smoke grid plus the
  Section 5.2 microbenchmark specs, shuffled, mixed across
  protocols/variants/widths, split into batches of sizes including 1,
  are stats-digest-identical to serial :func:`execute_spec`;
* the order of specs within a batch is unobservable;
* copies of one template kernel, every registered kernel and the
  microbenchmark, allocate into private images;
* each template is built once and each of its variants' programs is
  checked once, and every spec is verified;
* each spec's machine is freed before the next one is built, and
  per-spec walls are measured;
* the executor's store records are byte-identical to records built
  from :func:`execute_spec` apart from provenance, and its telemetry
  carries the batch tags.
"""

import hashlib
import json
import random
import weakref

import pytest

from repro.bench.suite import BenchSuite
from repro.isa.program import ThreadCtx
from repro.kernels.registry import KERNELS
from repro.mem.image import ArrayView
from repro.sim import batch
from repro.sim.batch import BatchRunner, ImageCache
from repro.sim.executor import Executor, RunSpec, execute_spec
from repro.sim.machine import Machine
from repro.sim.store import ResultStore

#: The microbenchmark allocates its index streams lazily, while the
#: program runs — the allocation a batch must land in each machine's
#: own image.
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


def views_of(value):
    """Every ArrayView held in ``value``, through lists, tuples, dicts."""
    if isinstance(value, ArrayView):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from views_of(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from views_of(item)


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

    def test_spec_order_is_unobservable(self):
        """Reversed and shuffled batches give each spec the same stats."""
        specs = spec_pool()[:5]
        want = {r.spec: digest(r.stats) for r in BatchRunner(specs).run()}
        shuffled = list(specs)
        random.Random(7).shuffle(shuffled)
        for order in (specs[::-1], shuffled):
            got = {r.spec: digest(r.stats) for r in BatchRunner(order).run()}
            assert got == want

    def test_spec_walls_are_measured(self):
        specs = spec_pool()[:4]
        runner = BatchRunner(specs)
        results = runner.run()
        assert all(r.wall_s > 0 for r in results)
        assert sum(r.wall_s for r in results) <= runner.info["wall_s"]

    def test_one_live_machine(self, monkeypatch):
        """Spec k-1's machine is freed before spec k's is built.

        ``BatchRunner.run`` pauses the cyclic GC, so this also fails if
        a reference cycle keeps a finished machine, or its coherence
        system (caches and directory), alive until the batch ends.
        """
        finished = []
        alive_at_build = []

        class TrackedMachine(batch.Machine):
            def __init__(self, *args, **kwargs):
                alive_at_build.append([ref() is not None for ref in finished])
                super().__init__(*args, **kwargs)
                finished.append(weakref.ref(self))
                finished.append(weakref.ref(self.coherence))

        monkeypatch.setattr(batch, "Machine", TrackedMachine)
        # Smoke points, MESI, MOESI, a warm run and the microbenchmark.
        pool = spec_pool()
        specs = pool[:2] + [s for s in pool if s.overrides or s.warm][:4]
        BatchRunner(specs).run()
        assert alive_at_build == [[False] * 2 * k for k in range(len(specs))]

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
        """Same-key specs share one template kernel, distinct stats."""
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


class TestImageCache:
    def test_one_check_per_variant_and_one_verify_per_spec(
        self, monkeypatch
    ):
        """Programs are checked and runs verified through the module
        names a tracer wraps: ``batch.check_program`` once per key and
        variant, ``runner.verify_run`` once per spec."""
        checked, verified = [], []
        monkeypatch.setattr(batch, "check_program", checked.append)
        monkeypatch.setattr(
            "repro.sim.runner.verify_run", lambda *args: verified.append(args)
        )
        specs = [
            RunSpec("tms", "tiny", "1x2", width, variant)
            for width in (1, 4)
            for variant in ("base", "glsc")
        ]
        runner = BatchRunner(specs)
        runner.run()
        assert runner.info["interned_images"] == 1
        assert [p.__name__ for p in checked] == ["base_program", "glsc_program"]
        assert len(verified) == len(specs)

    @pytest.mark.parametrize(
        "spec",
        [RunSpec(name, "tiny", "1x2", 4, "glsc") for name in sorted(KERNELS)]
        + [MICRO_SPECS[0]],
        ids=lambda spec: spec.kernel,
    )
    def test_copies_allocate_into_private_images(self, spec):
        """Two copies of one key: a store through one leaves the other."""
        config = spec.config()
        cache = ImageCache()
        first, _ = cache.materialize(spec, config)
        second, _ = cache.materialize(spec, config)
        ((template, _),) = cache._kernels.values()
        mine, other = Machine(config), Machine(config)
        first.allocate(mine.image)
        second.allocate(other.image)
        if spec.is_micro:
            # The lazy index-stream allocation, as the program makes it.
            first._index_array_for(
                ThreadCtx(0, config.n_threads, config.simd_width)
            )
        extent = other.image.bytes_allocated // 4
        before = other.image.load_words(0, extent)
        views = list(views_of(vars(first)))
        assert views
        for view in views:
            if len(view):
                view[0] = -1
                assert mine.image.load_word(view.base) == -1
        assert other.image.bytes_allocated == extent * 4
        assert other.image.load_words(0, extent) == before
        assert not template._allocated
        assert not list(views_of(vars(template)))


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
