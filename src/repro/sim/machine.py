"""Top-level machine: cores + memory hierarchy + cycle loop.

:class:`Machine` wires the configured number of cores to a shared
coherence system over one flat memory image, accepts one program per
hardware thread, and runs the cycle loop to completion.

The loop is cycle-quantized but event-skipping, and event-*driven*:
each core caches the cycle its next thread can issue, and one pass in
core-id order ticks exactly the cores due at the current cycle and
finds the minimum wakeup the clock jumps to when no thread can issue.
A tick moves only its own core's wakeup, so the pass needs no
priority queue.  Cores that cannot issue at the current cycle are not
ticked (their round-robin pointers are advanced lazily, see
:meth:`~repro.core.core.Core.tick`), a live-thread counter replaces
the per-cycle all-done scan, and barrier arrivals are reported by the
cores instead of being rediscovered by scanning every thread each
cycle.  None of this changes observable timing: cycle counts and stats
are bit-identical to the reference loop
(``tests/bench/test_equivalence.py`` holds the golden values).

The loop is written once, in :meth:`Machine.batch_finish`, and runs
from cycle 0 to completion.  :meth:`Machine.run` is set-up plus that
loop; the batched backend (:mod:`repro.sim.batch`) runs the same two
halves as :meth:`Machine.batch_begin` and :meth:`Machine.batch_finish`,
one machine at a time.

Barriers are resolved here: a thread executing a ``barrier``
instruction parks until every live thread has arrived, then all are
released together after a small rendezvous cost.  The
wait shows up as synchronization time, which is exactly how the
paper accounts for it (Figure 5a).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ConfigError, DeadlockError, SimulationError
from repro.core.core import Core, HwThread, T_READY
from repro.isa.program import Program, ThreadCtx, check_program
from repro.mem.coherence import CoherenceSystem
from repro.mem.image import MemoryImage
from repro.sim.config import MachineConfig
from repro.sim.stats import MachineStats

__all__ = ["Machine"]

#: Cycles between the last barrier arrival and the release;
#: approximates the chip-crossing notification of a hardware barrier.
BARRIER_RELEASE_COST = 24


class Machine:
    """A simulated CMP executing one program per hardware thread."""

    def __init__(self, config: MachineConfig, obs=None) -> None:
        """``obs`` is an :class:`~repro.obs.bus.EventBus` receiving the
        typed event stream (retired instructions, cache/coherence
        traffic, reservations, GLSC element outcomes).  It is optional
        and costs nothing when absent.
        """
        self.config = config
        self.image = MemoryImage(config.mem_size_bytes, config.geometry)
        self.stats = MachineStats()
        self.obs = obs
        self.coherence = CoherenceSystem(config, self.stats, obs=obs)
        self.cores: List[Core] = [
            Core(
                core_id, config, self.coherence, self.image, self.stats,
                obs=obs,
            )
            for core_id in range(config.n_cores)
        ]
        self.threads: List[HwThread] = []
        self._ran = False

    # -- setup ----------------------------------------------------------

    def add_program(self, program: Program, check: bool = True) -> int:
        """Attach ``program`` to the next hardware thread; returns its tid.

        Threads are distributed cyclically over cores (thread ``t`` runs
        on core ``t mod n_cores``), matching the even work split the
        paper's benchmarks use.

        ``check=False`` skips program validation — for callers (the
        batched backend) that already validated this program object
        once and attach it to many threads/machines.
        """
        if check:
            check_program(program)
        tid = len(self.threads)
        if tid >= self.config.n_threads:
            raise ConfigError(
                f"machine has only {self.config.n_threads} hardware threads"
            )
        core = self.cores[tid % self.config.n_cores]
        slot = len(core.threads)
        ctx = ThreadCtx(tid, self.config.n_threads, self.config.simd_width)
        thread = HwThread(tid, slot, program, ctx, self.stats.new_thread())
        core.add_thread(thread)
        self.threads.append(thread)
        return tid

    def warm_caches(self) -> None:
        """Pre-load every allocated line into every core's L1 (S state).

        The paper warms caches before measuring (Section 5.2), and its
        datasets are large enough that cold misses amortize away; our
        scaled-down datasets would otherwise be dominated by compulsory
        misses.  Warming traffic is excluded from the statistics.

        The fill uses :meth:`CoherenceSystem.warm_fill`, which skips
        the per-access accounting of the full ``read`` transaction but
        leaves the identical cache/directory/bank/prefetcher end state
        and, under chaos injection, the identical RNG draw sequence.
        """
        if self._ran:
            raise SimulationError("cannot warm caches after run()")
        # Warming is excluded from the statistics, so it is excluded
        # from the event stream too: sinks see only measured traffic.
        saved_obs = self.coherence.obs
        self.coherence.obs = None
        try:
            # Line 0 is the allocator's null sentinel.
            self.coherence.warm_fill(
                self.config.line_bytes, self.image.bytes_allocated
            )
        finally:
            self.coherence.obs = saved_obs
        self.coherence.prefetcher.reset()
        self.stats.reset_counters()

    # -- main loop ----------------------------------------------------------

    def run(self) -> MachineStats:
        """Run all programs to completion; returns the machine stats."""
        self._begin()
        return self.batch_finish()

    def batch_begin(self) -> None:
        """:meth:`run`'s set-up, as the batched backend calls it.

        :mod:`repro.sim.batch` runs a machine as ``batch_begin()`` then
        :meth:`batch_finish` rather than through :meth:`run`, so a
        profiler wrapping :meth:`run` times solo runs only.
        """
        self._begin()

    def _begin(self) -> None:
        if self._ran:
            raise SimulationError("a Machine can only be run once")
        self._ran = True
        if not self.threads:
            raise SimulationError("no programs attached")

    def batch_finish(self) -> MachineStats:
        """Run the cycle loop from cycle 0 until every thread finishes.

        This is the machine's only cycle loop; it follows
        :meth:`batch_begin` (or :meth:`run`'s own set-up).  The
        livelock guard raises once the clock passes ``max_cycles``.
        """
        cores = self.cores
        max_cycles = self.config.max_cycles
        live = len(self.threads)
        # Cores report thread lifecycle changes into these shared lists
        # so the loop never rescans all threads.
        done_events: List[HwThread] = []
        barrier_waiters: List[HwThread] = []
        for core in cores:
            core.done_events = done_events
            core.barrier_arrivals = barrier_waiters
            core._next_ready = core.next_ready_cycle()
        cycle = it = 0
        while True:
            # Tick every core with a thread runnable at `cycle`, in
            # core-id order (shared L2-bank/directory state makes the
            # order observable).  A tick moves only its own core's
            # wakeup, so one pass sees every due core and leaves the
            # minimum wakeup in `wake`.
            wake = None
            for core in cores:
                ready = core._next_ready
                if ready is not None and ready <= cycle:
                    ready = core._next_ready = core.tick(cycle, it)
                if ready is not None and (wake is None or ready < wake):
                    wake = ready
            # -- thread lifecycle events from this round of ticks
            if done_events:
                live -= len(done_events)
                del done_events[:]
            if barrier_waiters and len(barrier_waiters) == live:
                wake = self._release_barrier(barrier_waiters, cycle)
            # -- advance the clock
            if wake is None:
                if live:
                    # Threads exist but none is READY: they must all be
                    # parked at barriers that cannot be released.
                    raise DeadlockError(
                        "all live threads are blocked at barriers that "
                        "cannot be released"
                    )
                wake = cycle + 1  # every thread has finished
            cycle = cycle + 1 if wake <= cycle else wake
            if cycle > max_cycles:
                raise SimulationError(
                    f"exceeded max_cycles={max_cycles}; likely livelock"
                )
            if not live:
                self.stats.cycles = max(
                    t.stats.finish_cycle for t in self.threads
                )
                return self.stats
            it += 1

    # -- internals --------------------------------------------------------------

    def _release_barrier(
        self, waiters: List[HwThread], now: int
    ) -> Optional[int]:
        """Release all barrier waiters; returns the next wakeup cycle."""
        release = now + BARRIER_RELEASE_COST
        cores_affected = set()
        for thread in waiters:
            wait = release - thread.barrier_since
            thread.stats.sync_cycles += wait
            thread.stats.busy_cycles += wait
            thread.state = T_READY
            thread.ready_at = release
            cores_affected.add(thread.core_id)
        del waiters[:]
        for cid in cores_affected:
            core = self.cores[cid]
            core._next_ready = core.next_ready_cycle()
        return min(
            (c._next_ready for c in self.cores if c._next_ready is not None),
            default=None,
        )
