"""Batched simulation backend: many specs, one process, one live machine.

A bench grid is dozens of near-identical, fully independent machines.
Simulating each through :func:`~repro.sim.executor.execute_spec`
re-generates its dataset, re-runs its kernel's per-thread
preprocessing (the Table 2 reorders) and re-validates its program.
:class:`BatchRunner` simulates N specs in one process and pays each of
those costs once per batch: :class:`ImageCache` constructs each
distinct (kernel, dataset, thread count) combination's kernel once,
dataset included, and validates each of its variants' programs once.

Each machine then allocates its own copy of that kernel into its own
fresh memory image, exactly as
:func:`~repro.sim.runner.run_prepared` does for a solo run.

The machines themselves run **one at a time**, in input order: each is
built, run from cycle 0 to completion, verified and released before
the next is built, so a batch holds one machine's caches, directory
and memory image at a time, and each spec's wall is measured.

This is the only unobserved simulation path: the executor (in-process
or one group per pool task) and the queue worker both run every fresh
spec here, a lone spec as a batch of one.

Machines in a batch share *nothing* mutable: each gets its own image,
region map and views (a lazy allocation, like the microbenchmark's
index streams, lands in its own image), and its own coherence system.
Every batched result is therefore **bitwise identical** (cycles +
stats digest) to the reference
:func:`~repro.sim.executor.execute_spec` — ``tests/bench/
test_equivalence.py`` pins all 84 grid points through this runner, and
``tests/sim/test_batch.py`` property-checks random mixed batches,
Section 5.2 microbenchmark specs included, against it.

Observed runs (event-bus sinks) never come here: the
executor runs them one at a time through ``execute_spec``, so the
zero-allocation guard holds.
"""

from __future__ import annotations

import copy
import gc
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.isa.program import check_program
from repro.sim import runner
from repro.sim.executor import _make_spec_kernel
from repro.sim.machine import Machine
from repro.sim.stats import MachineStats

__all__ = ["BatchResult", "BatchRunner", "ImageCache"]


def _intern_key(spec: "RunSpec", config) -> Tuple[Any, ...]:
    """What the kernel constructor reads: kernel, dataset, thread count.

    Specs differing only in width, variant or other machine parameters
    share one constructed kernel.
    """
    return (spec.kernel, spec.dataset, config.n_threads)


class ImageCache:
    """Batch-scoped memo of constructed, never-allocated kernels.

    One template kernel per :func:`_intern_key`: its dataset and
    per-thread preprocessing.  :meth:`materialize` hands each machine
    a shallow copy to allocate into that machine's own image; the
    template itself is never allocated.  Copies share the template's
    code objects, so one :func:`~repro.isa.program.check_program` per
    key and variant covers every thread of every machine.

    Copies also share the template's dataset, so a dataset is never
    mutated: kernels read it to fill their memory image and to
    compute their verify oracle, and never write back.  The batch
    equivalence tests would diverge bitwise on any mutation.
    """

    def __init__(self) -> None:
        #: Intern key -> (template kernel, variants already checked).
        self._kernels: Dict[Tuple[Any, ...], Tuple[Any, Set[str]]] = {}

    def __len__(self) -> int:
        return len(self._kernels)

    def materialize(self, spec: "RunSpec", config):
        """``(kernel, program)``: an unallocated copy of ``spec``'s
        kernel, built once per key, and its checked program."""
        key = _intern_key(spec, config)
        entry = self._kernels.get(key)
        if entry is None:
            entry = self._kernels[key] = (
                _make_spec_kernel(spec, config.n_threads), set()
            )
        template, checked = entry
        kernel = copy.copy(template)
        program = kernel.program(spec.variant)
        if spec.variant not in checked:
            check_program(program)
            checked.add(spec.variant)
        return kernel, program


@dataclass
class BatchResult:
    """One spec's outcome within a batch."""

    spec: "RunSpec"
    stats: MachineStats
    #: Measured wall seconds of this spec alone: its machine's set-up
    #: (kernel allocation, program attach, cache warming, plus the
    #: dataset and template kernel if this spec is the batch's first
    #: to need them), simulation and verification.
    wall_s: float = 0.0


class BatchRunner:
    """Simulate many independent specs in one process, one at a time.

    ``specs`` may mix kernels, datasets, topologies, widths, variants,
    protocols, and warm/cold — each entry gets its own machine.  The
    caller (normally the executor) deduplicates; duplicate specs here
    would each simulate.
    """

    def __init__(self, specs: Sequence["RunSpec"]) -> None:
        self.specs = list(specs)
        #: Filled by :meth:`run`: batch occupancy + timing facts, the
        #: ``*_s`` phases summed over the specs.
        self.info: Dict[str, Any] = {}

    def run(self) -> List[BatchResult]:
        """Simulate every spec; results are in input order.

        Any simulation or verification error propagates (as from
        ``execute_spec``); machines are independent, so a failure says
        nothing about the other specs' correctness — the queue worker
        nacks the whole file, the file being its unit of retry.
        """
        # The simulation loop allocates heavily but creates no cycles:
        # each machine is freed by reference counting once its spec is
        # done.  Pausing the cyclic GC removes its periodic full-heap
        # scans (a measured ~7% of batch wall).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run()
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run(self) -> List[BatchResult]:
        began = time.perf_counter()
        images = ImageCache()
        info = self.info = {
            "occupancy": len(self.specs),
            "setup_s": 0.0,
            "sim_s": 0.0,
            "verify_s": 0.0,
        }
        results = [self._run_one(spec, images) for spec in self.specs]
        info["interned_images"] = len(images)
        info["wall_s"] = time.perf_counter() - began
        return results

    def _run_one(self, spec: "RunSpec", images: ImageCache) -> BatchResult:
        """Build, run and verify one spec's machine.

        The machine is local to this call, so it is released when the
        call returns, before the next spec's machine is built.
        """
        began = time.perf_counter()
        config = spec.config()
        kernel, program = images.materialize(spec, config)
        machine = Machine(config)
        kernel.allocate(machine.image)
        for _ in range(config.n_threads):
            machine.add_program(program, check=False)
        if spec.warm:
            machine.warm_caches()
        machine.batch_begin()
        sim_began = time.perf_counter()
        stats = machine.batch_finish()
        verify_began = time.perf_counter()
        runner.verify_run(kernel, machine)
        ended = time.perf_counter()
        info = self.info
        info["setup_s"] += sim_began - began
        info["sim_s"] += verify_began - sim_began
        info["verify_s"] += ended - verify_began
        return BatchResult(spec, stats, wall_s=ended - began)
