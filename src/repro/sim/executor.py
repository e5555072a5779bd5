"""Declarative run API: specs, sweeps, and a parallel executor.

The paper's whole evaluation is a Cartesian sweep over
(kernel, dataset, topology, SIMD width, variant) — hundreds of
independent simulations.  This module makes each point a first-class
value:

* :class:`RunSpec` — an immutable, hashable description of one
  verified run (including config overrides and the warm-cache flag);
* :class:`Sweep` — an ordered collection of specs with a
  :meth:`Sweep.product` constructor for Cartesian grids;
* :func:`execute_spec` — the reference path turning one spec into
  :class:`~repro.sim.stats.MachineStats` (observed runs and the tests
  that pin every other path against it);
* :class:`Executor` — deduplicates a sweep, serves repeats from an
  in-memory memo and an optional on-disk
  :class:`~repro.sim.store.ResultStore`, and simulates the rest in
  groups through :class:`~repro.sim.batch.BatchRunner` — in-process,
  across a :class:`~concurrent.futures.ProcessPoolExecutor`, or on
  ``queue://`` workers.  A solo run is a batch of one.

Example::

    from repro.sim.executor import Executor, RunSpec, Sweep
    from repro.sim.store import ResultStore

    sweep = Sweep.product(
        kernels=("tms", "gbc"), datasets=("A", "B"),
        topologies=("1x1", "4x4"), widths=(4,),
        variants=("base", "glsc"),
    )
    ex = Executor(jobs=4, store=ResultStore())
    stats = ex.run_sweep(sweep)          # dict: RunSpec -> MachineStats
    print(stats[RunSpec("tms", "A", "4x4", 4, "glsc")].cycles)

Because every simulation is deterministic (seeded chaos, no wall-clock
coupling) and machines in a batch share nothing mutable, a batched or
parallel sweep is bitwise-identical to :func:`execute_spec` run spec by
spec; the test suite asserts this.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import time
from dataclasses import dataclass, replace
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigError, SimulationError
from repro.obs.telemetry import RunTelemetry, run_provenance
from repro.sim.config import MachineConfig, named_config
from repro.sim.stats import MachineStats
from repro.sim.store import ResultStore, STORE_VERSION

__all__ = ["RunSpec", "Sweep", "Executor", "execute_spec"]

#: Kernel-name prefix selecting the Section 5.2 microbenchmark; the
#: scenario letter follows the colon (``"micro:A"``).
MICRO_PREFIX = "micro:"

Overrides = Union[Mapping[str, Any], Iterable[Tuple[str, Any]]]


def _freeze_overrides(overrides: Optional[Overrides]) -> Tuple[Tuple[str, Any], ...]:
    """Normalize overrides to a sorted tuple of (name, value) pairs."""
    if not overrides:
        return ()
    items = (
        overrides.items() if isinstance(overrides, Mapping) else overrides
    )
    frozen = tuple(sorted((str(k), v) for k, v in items))
    names = [k for k, _ in frozen]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate override names in {names}")
    return frozen


@dataclass(frozen=True)
class RunSpec:
    """Immutable description of one verified simulation.

    ``overrides`` are extra :class:`MachineConfig` fields (beyond the
    topology and SIMD width) and may be given as a dict or pair
    iterable; they are canonicalized to a sorted tuple so equal specs
    hash equal regardless of construction order.  ``warm`` pre-loads
    the caches before measuring (the paper's microbenchmark protocol).
    """

    kernel: str
    dataset: str = "A"
    topology: str = "4x4"
    simd_width: int = 4
    variant: str = "glsc"
    overrides: Tuple[Tuple[str, Any], ...] = ()
    warm: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "overrides", _freeze_overrides(self.overrides)
        )

    # -- constructors ---------------------------------------------------

    @classmethod
    def micro(
        cls,
        scenario: str,
        topology: str = "4x4",
        simd_width: int = 4,
        variant: str = "glsc",
        overrides: Optional[Overrides] = None,
    ) -> "RunSpec":
        """A Section 5.2 microbenchmark spec (warm caches, no dataset)."""
        return cls(
            kernel=f"{MICRO_PREFIX}{scenario}",
            dataset="-",
            topology=topology,
            simd_width=simd_width,
            variant=variant,
            overrides=overrides or (),
            warm=True,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict` (store records, bench documents).

        Unknown keys are ignored so specs stored by newer writers stay
        loadable; overrides round-trip through the JSON pair-list form.
        """
        return cls(
            kernel=data["kernel"],
            dataset=data.get("dataset", "A"),
            topology=data.get("topology", "4x4"),
            simd_width=int(data.get("simd_width", 4)),
            variant=data.get("variant", "glsc"),
            overrides=tuple(
                (pair[0], pair[1]) for pair in data.get("overrides", ())
            ),
            warm=bool(data.get("warm", False)),
        )

    def with_overrides(self, **extra: Any) -> "RunSpec":
        """A copy with ``extra`` config overrides merged in (extra wins)."""
        merged = dict(self.overrides)
        merged.update(extra)
        return replace(self, overrides=_freeze_overrides(merged))

    # -- derived --------------------------------------------------------

    @property
    def is_micro(self) -> bool:
        """Whether this spec names a microbenchmark scenario."""
        return self.kernel.startswith(MICRO_PREFIX)

    @property
    def protocol(self) -> str:
        """The coherence protocol this spec resolves to.

        ``protocol`` is an ordinary :class:`MachineConfig` override
        (``spec.with_overrides(protocol="mesi")``); this accessor just
        surfaces the effective value without building the config.
        """
        from repro.mem.protocol import DEFAULT_PROTOCOL

        return dict(self.overrides).get("protocol", DEFAULT_PROTOCOL)

    def config(self) -> MachineConfig:
        """The fully resolved machine configuration for this spec."""
        return named_config(
            self.topology, simd_width=self.simd_width, **dict(self.overrides)
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form, stored alongside results for inspection."""
        return {
            "kernel": self.kernel,
            "dataset": self.dataset,
            "topology": self.topology,
            "simd_width": self.simd_width,
            "variant": self.variant,
            "overrides": [list(pair) for pair in self.overrides],
            "warm": self.warm,
        }

    def digest(self) -> str:
        """Content digest keying this run in the result store.

        Hashes the workload identity (kernel/dataset/variant/warm) plus
        the *resolved* :meth:`config` — every MachineConfig field, not
        just the overridden ones — and the store schema version.  Any
        config change, override change, or new config parameter thus
        yields a fresh digest, and two spellings of the same machine
        (e.g. topology ``"4x4"`` vs explicit core/thread overrides)
        share one entry.
        """
        payload = json.dumps(
            {
                "version": STORE_VERSION,
                "kernel": self.kernel,
                "dataset": self.dataset,
                "variant": self.variant,
                "warm": self.warm,
                "config": self.config().to_dict(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Compact human-readable identity (logs, progress lines)."""
        extra = "".join(f" {k}={v}" for k, v in self.overrides)
        warm = " warm" if self.warm else ""
        return (
            f"{self.kernel}/{self.dataset} {self.topology} "
            f"W{self.simd_width} {self.variant}{warm}{extra}"
        )


class Sweep:
    """An ordered collection of :class:`RunSpec` (duplicates allowed).

    Sweeps are what experiments *declare*: build the complete list of
    points up front, then hand it to :meth:`Executor.run_sweep`, which
    deduplicates and parallelizes.  Sweeps concatenate with ``+`` so a
    harness invocation can plan several figures as one dispatch.
    """

    def __init__(self, specs: Iterable[RunSpec] = ()) -> None:
        self.specs: List[RunSpec] = list(specs)

    @classmethod
    def product(
        cls,
        kernels: Sequence[str],
        datasets: Sequence[str] = ("A",),
        topologies: Sequence[str] = ("4x4",),
        widths: Sequence[int] = (4,),
        variants: Sequence[str] = ("glsc",),
        overrides: Optional[Overrides] = None,
        warm: bool = False,
    ) -> "Sweep":
        """The full Cartesian grid over the given axes."""
        frozen = _freeze_overrides(overrides)
        return cls(
            RunSpec(kernel, dataset, topology, width, variant, frozen, warm)
            for kernel in kernels
            for dataset in datasets
            for topology in topologies
            for width in widths
            for variant in variants
        )

    def add(self, spec: RunSpec) -> "Sweep":
        self.specs.append(spec)
        return self

    def extend(self, specs: Iterable[RunSpec]) -> "Sweep":
        self.specs.extend(specs)
        return self

    def distinct(self) -> List[RunSpec]:
        """The specs with duplicates removed, first-seen order kept."""
        seen: Dict[RunSpec, None] = {}
        for spec in self.specs:
            seen.setdefault(spec)
        return list(seen)

    def __add__(self, other: "Sweep") -> "Sweep":
        return Sweep(self.specs + list(other))

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:
        return f"Sweep({len(self.specs)} specs)"


def _make_spec_kernel(spec: RunSpec, n_threads: int):
    """Instantiate the kernel a spec names (registry or microbenchmark).

    Imported lazily so that importing the executor (e.g. via
    ``repro.sim``) never drags the full kernel/workload stack in — and
    to keep worker startup under ``fork`` cheap.
    """
    if spec.is_micro:
        from repro.kernels.micro import Micro

        scenario = spec.kernel[len(MICRO_PREFIX):]
        return Micro(n_threads, scenario=scenario)
    from repro.kernels.registry import make_kernel

    return make_kernel(spec.kernel, spec.dataset, n_threads)


def execute_spec(
    spec: RunSpec, obs=None, on_machine=None,
) -> MachineStats:
    """Simulate one spec from scratch and return its verified stats.

    This is the reference path: one machine, one
    :meth:`~repro.sim.machine.Machine.run`.  Observed runs take it, and
    the tests compare every batched, pooled and queued result against
    it, so a number can never depend on *how* it was scheduled.
    ``obs`` attaches an event bus to the machine (see
    :func:`~repro.sim.runner.run_prepared`); ``on_machine`` is passed
    through for pre-run state capture (named memory regions).
    """
    from repro.sim.runner import run_prepared

    config = spec.config()
    kernel = _make_spec_kernel(spec, config.n_threads)
    return run_prepared(
        kernel,
        config,
        spec.variant,
        warm=spec.warm,
        obs=obs,
        on_machine=on_machine,
    )


def _run_batch(
    specs: List[RunSpec],
) -> Tuple[List[Tuple[MachineStats, float]], int]:
    """One group through one BatchRunner: ``([(stats, wall_s)], pid)``.

    Module-level so a process pool can run it; the in-process path
    calls it directly.
    """
    from repro.sim.batch import BatchRunner

    results = BatchRunner(specs).run()
    return [(r.stats, r.wall_s) for r in results], os.getpid()


@dataclass
class ExecutorCounters:
    """Where an executor's results came from (for reporting)."""

    simulated: int = 0     # fresh simulations by this executor
    store_hits: int = 0    # served from the on-disk store
    queued: int = 0        # simulated by detached queue workers


class Executor:
    """Deduplicating, caching, parallel runner of :class:`RunSpec` s.

    Fresh specs are packed into groups of at most ``batch_size``, and
    each group runs through one :class:`~repro.sim.batch.BatchRunner`
    (shared template kernels, one live machine at a time).  ``jobs=1`` (the
    default) runs the groups in-process; ``jobs>1`` runs one group per
    ``ProcessPoolExecutor`` task, cutting groups small enough to keep
    every worker busy.  Results are memoized in-memory for the
    executor's lifetime and, when a ``store`` is given, persisted on
    disk keyed by :meth:`RunSpec.digest`.  Every fresh result is
    telemetry-tagged ``source="simulated"``; its batch id and occupancy
    record the packing, and its ``wall_time_s`` is the spec's own
    measured set-up + simulation + verify wall.

    ``overrides`` are executor-level :class:`MachineConfig` defaults
    applied to every spec (a spec's own overrides win on conflict) —
    the mechanism the ablation benches use to flip GLSC policies for a
    whole sweep at once.

    ``backend`` selects *where* the groups run.  The default (``None``,
    or ``"batch"``, which means the same) simulates locally, per
    ``jobs``.  ``backend="queue://<dir>"`` instead enqueues missing
    specs onto a shared :class:`~repro.service.queue.WorkQueue`, one
    file per group, and waits for detached ``repro worker`` processes
    — on this host or any other sharing the filesystem — to drain
    them into the store (which is therefore required).  The executor
    requeues expired leases while it waits, so worker crashes stall
    nothing, and every collected result is telemetry-tagged
    ``source="queue"`` with the producing worker's host from the
    record's provenance.  Results are identical wherever they run: a
    queue-drained or pooled sweep's store records are byte-identical
    (sans provenance) to :func:`execute_spec`'s, and the
    golden-equivalence tests pin this.

    An observer (``obs`` on :meth:`run`/:meth:`run_sweep`) forces two
    departures from the caching pipeline, both deliberate:

    * **One spec at a time, in-process.**  Observed specs run through
      :func:`execute_spec`: a bus shared by interleaved machines would
      mix their events, and a bus's sinks hold live Python state
      (open files, growing lists) that cannot cross a process
      boundary — under ``fork`` the observer would fill up in the
      *child* and the parent's copy would stay silently empty.
    * **No cache reads.**  A memo or store hit skips the simulation,
      so the observer would see nothing; an observed spec is always
      simulated fresh (the result is still memoized and persisted for
      later unobserved calls).

    Every spec served — simulated, memo hit, or store hit — appends a
    :class:`~repro.obs.telemetry.RunTelemetry` record to
    :attr:`telemetry` (wall time, simulated cycles/second, worker
    pid, source), which the harness surfaces via ``--telemetry``.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: Optional[ResultStore] = None,
        backend: Optional[str] = None,
        batch_size: int = 16,
        queue_poll_s: float = 0.1,
        queue_timeout_s: Optional[float] = 600.0,
        **overrides: Any,
    ) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        self.jobs = jobs
        self.store = store
        self.batch_size = batch_size
        self.queue_poll_s = queue_poll_s
        self.queue_timeout_s = queue_timeout_s
        self._queue = None
        if backend is not None and backend != "batch":
            if store is None:
                raise ConfigError(
                    "backend requires a store: queue workers deliver "
                    "results through the shared ResultStore"
                )
            # Deferred import: repro.service sits above the sim layer.
            from repro.service.queue import WorkQueue

            self._queue = WorkQueue.from_url(backend)
        self.overrides = _freeze_overrides(overrides)
        self.counters = ExecutorCounters()
        self.telemetry: List[RunTelemetry] = []
        self._memo: Dict[str, MachineStats] = {}

    # -- spec resolution -----------------------------------------------

    def resolve(self, spec: RunSpec) -> RunSpec:
        """Merge executor-level overrides under the spec's own."""
        if not self.overrides:
            return spec
        merged = dict(self.overrides)
        merged.update(spec.overrides)
        return replace(spec, overrides=_freeze_overrides(merged))

    # -- execution ------------------------------------------------------

    def run(self, spec: RunSpec, obs=None) -> MachineStats:
        """Stats for one spec (simulating only if never seen before)."""
        return self.run_sweep(Sweep([spec]), obs=obs)[spec]

    def run_sweep(
        self,
        sweep: Union[Sweep, Iterable[RunSpec]],
        obs=None,
    ) -> Dict[RunSpec, MachineStats]:
        """Execute a sweep; returns ``{input spec: stats}``.

        Pipeline: deduplicate by content digest, serve what the memo or
        store already has, simulate the rest in batches (in parallel
        when ``jobs > 1``), persist fresh results, and map every *input*
        spec — pre-resolution, so callers can look up with the specs
        they built — to its stats.

        Passing ``obs`` switches to observed mode: every
        distinct spec simulates fresh, in-process, one at a time (see
        the class docstring for why caches and batching are bypassed).
        """
        if not isinstance(sweep, Sweep):
            sweep = Sweep(sweep)
        observed = obs is not None

        digest_of: Dict[RunSpec, str] = {}
        pending: Dict[str, RunSpec] = {}
        for spec in sweep:
            if spec in digest_of:
                continue
            resolved = self.resolve(spec)
            digest = resolved.digest()
            digest_of[spec] = digest
            if digest in pending:
                continue
            if observed:
                pending[digest] = resolved
                continue
            if digest in self._memo:
                self._note_served(resolved, digest, "memo")
                continue
            if self.store is not None:
                stored = self.store.load(digest)
                if stored is not None:
                    self._memo[digest] = stored
                    self.counters.store_hits += 1
                    self._note_served(resolved, digest, "store")
                    continue
            pending[digest] = resolved

        if pending:
            self._simulate(pending, obs=obs)

        return {spec: self._memo[digest] for spec, digest in digest_of.items()}

    def _simulate(self, pending: Dict[str, RunSpec], obs=None) -> None:
        """Run every pending spec and record the results everywhere.

        Observed specs run one at a time through :func:`execute_spec`:
        a bus shared by interleaved machines would mix their events.
        Everything else is packed into groups of at most ``batch_size``
        and each group runs through one
        :class:`~repro.sim.batch.BatchRunner` — in this process
        (``jobs=1``), one group per pool task (``jobs>1``, groups cut
        small enough to keep every worker busy), or on queue workers
        (``queue://``).
        """
        if obs is not None:
            for digest, spec in pending.items():
                started = time.perf_counter()
                stats = execute_spec(spec, obs=obs)
                self._record(
                    digest, spec, stats, time.perf_counter() - started,
                    os.getpid(),
                )
            return
        if self._queue is not None:
            self._drain_via_queue(pending)
            return
        items = list(pending.items())
        size = self.batch_size
        if self.jobs > 1:
            size = min(size, -(-len(items) // self.jobs))
        groups = [items[i:i + size] for i in range(0, len(items), size)]
        members = [[spec for _, spec in group] for group in groups]
        if self.jobs > 1 and len(groups) > 1:
            with concurrent.futures.ProcessPoolExecutor(
                min(self.jobs, len(groups))
            ) as pool:
                outcomes = list(pool.map(_run_batch, members))
        else:
            outcomes = map(_run_batch, members)
        for group, (results, pid) in zip(groups, outcomes):
            batch_id = hashlib.sha256(
                "".join(digest for digest, _ in group).encode("utf-8")
            ).hexdigest()[:12]
            for (digest, spec), (stats, wall_s) in zip(group, results):
                self._record(
                    digest, spec, stats, wall_s, pid, batch_id, len(group)
                )

    def _record(
        self,
        digest: str,
        spec: RunSpec,
        stats: MachineStats,
        wall_s: float,
        pid: int,
        batch_id: str = "",
        occupancy: int = 0,
    ) -> None:
        """Memoize, tag and persist one freshly simulated result."""
        self._memo[digest] = stats
        self.counters.simulated += 1
        self.telemetry.append(
            RunTelemetry(
                label=spec.label(),
                digest=digest,
                source="simulated",
                cycles=stats.cycles,
                instructions=stats.total_instructions,
                wall_time_s=wall_s,
                worker_pid=pid,
                created=time.time(),
                batch_id=batch_id,
                batch_occupancy=occupancy,
            )
        )
        if self.store is not None:
            provenance = run_provenance(wall_s)
            provenance["worker_pid"] = pid
            if batch_id:
                provenance["batch_id"] = batch_id
                provenance["batch_occupancy"] = occupancy
            self.store.save(
                digest,
                stats,
                spec=spec.to_dict(),
                config=spec.config().to_dict(),
                provenance=provenance,
            )

    def _drain_via_queue(self, pending: Dict[str, RunSpec]) -> None:
        """Enqueue pending specs and collect worker-produced results.

        Specs are published as queue files of up to ``batch_size``
        (:meth:`~repro.service.queue.WorkQueue.submit_many`), and a
        claiming worker drains each file through one in-process
        :class:`~repro.sim.batch.BatchRunner`.
        The rendezvous is the shared store: workers save records keyed
        by digest, this loop polls for them (cheap record reads),
        requeueing expired leases as it goes so a crashed worker's
        tasks are retried within one lease window.
        Each drain mints a sweep trace id (threaded through every
        payload; see :mod:`repro.obs.sweeptrace`), so ``repro
        sweep-trace`` can reconstruct the drain afterwards.
        """
        from repro.obs.sweeptrace import new_trace_id

        trace_id = new_trace_id()
        items = list(pending.items())
        self._queue.submit_many(
            [spec for _, spec in items],
            self.batch_size,
            digests=[digest for digest, _ in items],
            trace_id=trace_id,
        )
        deadline = (
            None if self.queue_timeout_s is None
            else time.monotonic() + self.queue_timeout_s
        )
        waiting = dict(pending)
        started = time.perf_counter()
        while waiting:
            self._queue.requeue_expired()
            for digest in list(waiting):
                if not self.store.path_for(digest).exists():
                    continue
                record = self.store.load_record(digest)
                if record is None:
                    continue  # torn/invalid: treat as still pending
                spec = waiting.pop(digest)
                stats = MachineStats.from_dict(record["stats"])
                self._memo[digest] = stats
                self.counters.queued += 1
                provenance = record.get("provenance") or {}
                self.telemetry.append(
                    RunTelemetry(
                        label=spec.label(),
                        digest=digest,
                        source="queue",
                        cycles=stats.cycles,
                        instructions=stats.total_instructions,
                        wall_time_s=time.perf_counter() - started,
                        worker_pid=int(provenance.get("worker_pid", 0)),
                        worker_host=str(provenance.get("host", "")),
                        created=time.time(),
                        trace_id=str(provenance.get("trace_id", "")),
                    )
                )
            if not waiting:
                break
            if deadline is not None and time.monotonic() > deadline:
                raise SimulationError(
                    f"queue backend timed out with {len(waiting)}/"
                    f"{len(pending)} specs unserved after "
                    f"{self.queue_timeout_s:.0f}s — are any "
                    "`repro worker` processes draining "
                    f"{self._queue.root}?"
                )
            time.sleep(self.queue_poll_s)

    def _note_served(
        self, spec: RunSpec, digest: str, source: str
    ) -> None:
        """Telemetry entry for a cache-served spec (no simulation)."""
        stats = self._memo[digest]
        self.telemetry.append(
            RunTelemetry(
                label=spec.label(),
                digest=digest,
                source=source,
                cycles=stats.cycles,
                instructions=stats.total_instructions,
                created=time.time(),
            )
        )

    # -- introspection --------------------------------------------------

    @property
    def simulations(self) -> int:
        """Fresh simulations performed by this executor."""
        return self.counters.simulated

    @property
    def store_hits(self) -> int:
        """Results served from the on-disk store instead of simulated."""
        return self.counters.store_hits

    def distinct_runs(self) -> int:
        """Distinct results this executor has produced or loaded."""
        return len(self._memo)
