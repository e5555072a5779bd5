"""Batched simulation backend: many machines, one event heap.

A bench grid is dozens of near-identical, fully independent machines.
Simulating them one at a time pays three avoidable costs: every spec
re-generates its dataset, re-allocates (word by word) its memory
image, and spins up a fresh Python event loop whose dispatch state
goes cold between runs.  :class:`BatchRunner` simulates N specs in one
process by

* **interning immutable inputs** — datasets are built once per batch
  (:func:`~repro.workloads.interning.intern_datasets`), and each
  distinct (kernel, dataset, thread count, geometry) combination is
  allocated once into a template image whose snapshot hydrates one
  private copy per machine (:class:`ImageCache`, one bulk dict copy
  instead of thousands of ``store_word`` calls); program objects are
  validated once per combination (:class:`ProgramCache`);
* **interleaving all live machines** on one event heap keyed
  ``(next cycle, machine_id)``, so a single Python loop drains the
  whole batch and the per-iteration bookkeeping of
  :meth:`~repro.sim.machine.Machine.batch_step` stays hot across
  machines.

This is the only unobserved simulation path: the executor (in-process
or one group per pool task) and the queue worker both run every fresh
spec here, a lone spec as a batch of one.

Machines in a batch share *nothing* mutable: each gets its own
hydrated image and region map, its own rebound kernel (views *and*
image references retargeted, so lazy allocations land in its own
image), its own coherence system.  The interleave order across
machines is therefore unobservable, and every batched result is
**bitwise identical** (cycles + stats digest) to the reference
:func:`~repro.sim.executor.execute_spec` — ``tests/bench/
test_equivalence.py`` pins all 84 grid points through this runner, and
``tests/sim/test_batch.py`` property-checks random mixed batches,
Section 5.2 microbenchmark specs included, against it.

Observed runs (event-bus sinks) never come here: the
executor runs them one at a time through ``execute_spec``, so the
zero-allocation guard holds and contention/phase attribution never
mixes machines.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.isa.program import check_program
from repro.mem.image import ImageSnapshot, MemoryImage
from repro.sim.machine import Machine
from repro.sim.stats import MachineStats
from repro.workloads.interning import intern_datasets

__all__ = ["BatchResult", "BatchRunner", "ImageCache", "ProgramCache"]


def _intern_key(spec: "RunSpec", config) -> Tuple[Any, ...]:
    """The content key under which a spec's allocated image is shared.

    Everything the kernel constructor and ``allocate`` depend on:
    kernel + dataset identity, the thread count (work splits and
    per-thread arrays), and the image dimensions.  Width, variant, and
    the remaining machine parameters only affect *execution*, so specs
    differing in just those share one entry.
    """
    return (
        spec.kernel,
        spec.dataset,
        config.n_threads,
        config.mem_size_bytes,
        config.line_bytes,
    )


class ImageCache:
    """Batch-scoped cache of allocated kernels and image snapshots.

    One entry per :func:`_intern_key`: the template kernel (allocated
    into a pristine template image that is never run) and the image
    snapshot.  :meth:`materialize` hands out a private hydrated image
    plus a kernel rebound onto it — the copy-on-write boundary is the
    word dict, copied once per machine.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[Any, ...], Tuple[Any, ImageSnapshot]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def materialize(self, spec: "RunSpec", config):
        """``(kernel, image)`` for ``spec``, building the template once."""
        from repro.sim.executor import _make_spec_kernel

        key = _intern_key(spec, config)
        entry = self._entries.get(key)
        if entry is None:
            kernel = _make_spec_kernel(spec, config.n_threads)
            template = MemoryImage(config.mem_size_bytes, config.geometry)
            kernel.allocate(template)
            entry = (kernel, template.snapshot())
            self._entries[key] = entry
        template_kernel, snap = entry
        image = MemoryImage.from_snapshot(snap)
        return template_kernel.rebound(image), image


class ProgramCache:
    """Once-per-batch program validation.

    Rebound kernels share their template's code objects, so one
    :func:`~repro.isa.program.check_program` per (intern key, variant)
    covers every thread of every machine in the combination.
    """

    def __init__(self) -> None:
        self._checked: set = set()

    def program(self, kernel, key: Tuple[Any, ...], variant: str):
        program = kernel.program(variant)
        cache_key = (key, variant)
        if cache_key not in self._checked:
            check_program(program)
            self._checked.add(cache_key)
        return program


@dataclass
class BatchResult:
    """One spec's outcome within a batch."""

    spec: "RunSpec"
    stats: MachineStats
    #: Estimated wall seconds attributable to this spec: the batch's
    #: simulation wall shared out proportionally to retired cycles
    #: (individual specs are interleaved, so their walls are not
    #: separately measurable), plus this spec's own setup/verify time.
    wall_s: float = 0.0


class BatchRunner:
    """Simulate many independent specs through one interleaved loop.

    ``specs`` may mix kernels, datasets, topologies, widths, variants,
    protocols, and warm/cold — each entry gets its own machine.  The
    caller (normally the executor) deduplicates; duplicate specs here
    would each simulate.

    ``chunk_cycles`` is the scheduling quantum: each heap pop runs one
    machine for up to that many simulated cycles before it rejoins the
    heap.  Machines never observe each other, so the quantum sets only
    the cross-machine interleave granularity (and the heap's overhead
    share), never any result — the determinism tests sweep it.
    """

    #: Default scheduling quantum.  Grid machines retire ~1e5 cycles,
    #: so this keeps the global heap to a few dozen ops per machine
    #: while still rotating the batch often enough that progress (and
    #: a hung machine's max_cycles abort) stays interleaved.
    CHUNK_CYCLES = 1 << 14

    def __init__(
        self,
        specs: Sequence["RunSpec"],
        verify: bool = True,
        chunk_cycles: Optional[int] = None,
    ) -> None:
        self.specs = list(specs)
        self.verify = verify
        self.chunk_cycles = chunk_cycles or self.CHUNK_CYCLES
        #: Filled by :meth:`run`: batch occupancy + timing facts.
        self.info: Dict[str, Any] = {}

    def run(self) -> List[BatchResult]:
        """Simulate every spec; results are in input order.

        Any simulation or verification error propagates (as from
        ``execute_spec``); machines are independent, so a failure says
        nothing about the other specs' correctness — the queue worker
        nacks the whole file, the file being its unit of retry.
        """
        from repro.sim.runner import verify_run

        # The simulation loop allocates heavily but creates no cycles
        # that must die mid-batch; pausing the cyclic GC removes its
        # periodic full-heap scans (a measured ~7% of batch wall).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run(verify_run)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run(self, verify_run) -> List[BatchResult]:
        began = time.perf_counter()
        images = ImageCache()
        programs = ProgramCache()
        machines: List[Machine] = []
        kernels = []
        with intern_datasets():
            for spec in self.specs:
                config = spec.config()
                kernel, image = images.materialize(spec, config)
                machine = Machine(config, image=image)
                program = programs.program(
                    kernel, _intern_key(spec, config), spec.variant
                )
                for _ in range(config.n_threads):
                    machine.add_program(program, check=False)
                if spec.warm:
                    machine.warm_caches()
                machines.append(machine)
                kernels.append(kernel)
        setup_s = time.perf_counter() - began

        # -- the event heap -------------------------------------------
        # One entry per live machine: (cycle, machine_id).  Each pop
        # runs that machine's own loop from its next cycle up to a
        # chunk horizon; per-machine cycle sequences (and hence stats)
        # are identical to Machine.run's single step.
        sim_began = time.perf_counter()
        chunk = self.chunk_cycles
        heap = [
            (machine.batch_begin(), machine_id)
            for machine_id, machine in enumerate(machines)
        ]
        heapify(heap)
        while heap:
            cycle, machine_id = heappop(heap)
            nxt = machines[machine_id].batch_step(cycle, cycle + chunk)
            if nxt is not None:
                heappush(heap, (nxt, machine_id))
        sim_s = time.perf_counter() - sim_began

        verify_began = time.perf_counter()
        if self.verify:
            for kernel, machine in zip(kernels, machines):
                verify_run(kernel, machine)
        verify_s = time.perf_counter() - verify_began

        total_cycles = sum(m.stats.cycles for m in machines) or 1
        overhead_each = (setup_s + verify_s) / len(machines) if machines else 0.0
        results = [
            BatchResult(
                spec=spec,
                stats=machine.stats,
                wall_s=(
                    sim_s * machine.stats.cycles / total_cycles
                    + overhead_each
                ),
            )
            for spec, machine in zip(self.specs, machines)
        ]
        self.info = {
            "occupancy": len(self.specs),
            "interned_images": len(images),
            "setup_s": setup_s,
            "sim_s": sim_s,
            "verify_s": verify_s,
            "wall_s": time.perf_counter() - began,
            "cycles": sum(m.stats.cycles for m in machines),
        }
        return results
