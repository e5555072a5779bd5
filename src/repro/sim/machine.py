"""Top-level machine: cores + memory hierarchy + cycle loop.

:class:`Machine` wires the configured number of cores to a shared
coherence system over one flat memory image, accepts one program per
hardware thread, and runs the cycle loop to completion.

The loop is cycle-quantized but event-skipping, and event-*driven*: a
min-heap of per-core wakeup cycles decides both which cores to tick
and how far to jump when no thread can issue.  Cores that cannot issue
at the current cycle are never visited (their round-robin pointers are
advanced lazily, see :meth:`~repro.core.core.Core.tick`), a live-thread
counter replaces the per-cycle all-done scan, and barrier arrivals are
reported by the cores instead of being rediscovered by scanning every
thread each cycle.  None of this changes observable timing: cycle
counts and stats are bit-identical to the reference loop
(``tests/bench/test_equivalence.py`` holds the golden values).

The loop is written once, in :meth:`Machine.batch_step`, with one
single-core specialisation.  :meth:`Machine.run` is a single step to
``max_cycles``; the batched backend (:mod:`repro.sim.batch`) calls the
same step in chunks to interleave many machines on one heap.

Barriers are resolved here: a thread executing a ``barrier``
instruction parks until every live thread in its group has arrived,
then all are released together after a small rendezvous cost.  The
wait shows up as synchronization time, which is exactly how the
paper accounts for it (Figure 5a).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import List, Optional, Tuple

from repro.errors import ConfigError, DeadlockError, SimulationError
from repro.core.core import Core, HwThread, T_READY
from repro.isa.program import Program, ThreadCtx, check_program
from repro.mem.coherence import CoherenceSystem
from repro.mem.image import MemoryImage
from repro.sim.config import MachineConfig
from repro.sim.stats import MachineStats

__all__ = ["Machine"]

#: Cycles between the last barrier arrival and the group's release;
#: approximates the chip-crossing notification of a hardware barrier.
BARRIER_RELEASE_COST = 24


class Machine:
    """A simulated CMP executing one program per hardware thread."""

    def __init__(
        self,
        config: MachineConfig,
        image: Optional[MemoryImage] = None,
        tracer=None,
        obs=None,
    ) -> None:
        """``tracer`` observes retired instructions (legacy seam);
        ``obs`` is an :class:`~repro.obs.bus.EventBus` receiving the
        full typed event stream (instructions, cache/coherence
        traffic, reservations, GLSC element outcomes).  Both are
        optional and cost nothing when absent.
        """
        self.config = config
        self.image = image or MemoryImage(
            config.mem_size_bytes, config.geometry
        )
        if self.image.geometry.line_bytes != config.line_bytes:
            raise ConfigError(
                "memory image line size disagrees with machine config"
            )
        self.stats = MachineStats()
        self.obs = obs
        self.coherence = CoherenceSystem(config, self.stats, obs=obs)
        self.tracer = tracer
        self.cores: List[Core] = [
            Core(
                core_id, config, self.coherence, self.image, self.stats,
                tracer=tracer, obs=obs,
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

    def add_programs(self, programs: List[Program]) -> None:
        """Attach one program per hardware thread (must fill the machine)."""
        if len(programs) != self.config.n_threads:
            raise ConfigError(
                f"expected {self.config.n_threads} programs, "
                f"got {len(programs)}"
            )
        for program in programs:
            self.add_program(program)

    def warm_caches(self) -> None:
        """Pre-load every allocated line into every core's L1 (S state).

        The paper warms caches before measuring (Section 5.2), and its
        datasets are large enough that cold misses amortize away; our
        scaled-down datasets would otherwise be dominated by compulsory
        misses.  Warming traffic is excluded from the statistics.

        The fill uses :meth:`CoherenceSystem.warm_fill`, which skips
        the per-access accounting of the full ``read`` transaction but
        leaves the identical cache/directory/bank/prefetcher end state.
        When chaos injection is configured the slow per-read path is
        used instead so the RNG draw sequence matches the reference.
        """
        if self._ran:
            raise SimulationError("cannot warm caches after run()")
        line_bytes = self.config.line_bytes
        first = line_bytes  # line 0 is the allocator's null sentinel
        limit = self.image.bytes_allocated
        # Warming is excluded from the statistics, so it is excluded
        # from the event stream too: sinks see only measured traffic.
        saved_obs = self.coherence.obs
        self.coherence.obs = None
        try:
            if self.coherence.can_warm_fill():
                self.coherence.warm_fill(first, limit)
            else:
                for core_id in range(self.config.n_cores):
                    for line in range(first, limit, line_bytes):
                        self.coherence.read(core_id, 0, line, now=0)
        finally:
            self.coherence.obs = saved_obs
        self.coherence.prefetcher.reset()
        self.stats.reset_counters()

    # -- main loop ----------------------------------------------------------

    def run(self) -> MachineStats:
        """Run all programs to completion; returns the machine stats.

        A solo run is one :meth:`batch_step` whose horizon is
        ``max_cycles``: the livelock guard fires before the horizon
        can, so the step only returns once every thread has finished.
        """
        self._begin()
        self.batch_step(0, self.config.max_cycles)
        return self.stats

    def batch_begin(self) -> int:
        """Prepare this machine for externally driven iteration.

        The batched backend (:mod:`repro.sim.batch`) drains many
        machines through one interleaved event heap; instead of
        :meth:`run` owning the loop, the driver calls
        :meth:`batch_step` once per chunk at the cycle this method
        (and then each step) hands back.  Returns the cycle of the
        first iteration (always 0, as in :meth:`run`).
        """
        self._begin()
        return 0

    def _begin(self) -> None:
        """Set up the loop state :meth:`batch_step` resumes from."""
        if self._ran:
            raise SimulationError("a Machine can only be run once")
        self._ran = True
        if not self.threads:
            raise SimulationError("no programs attached")
        self._b_live = len(self.threads)
        # Cores report thread lifecycle changes into these shared lists
        # so the loop never rescans all threads.
        done_events: List[HwThread] = []
        barrier_arrivals: List[HwThread] = []
        self._b_done_events = done_events
        self._b_barrier_arrivals = barrier_arrivals
        self._b_barrier_waiters: List[HwThread] = []
        # Wakeup heap: (cycle, core_id) for every core that has a READY
        # thread.  An entry is current iff its cycle still equals the
        # core's cached ``_next_ready``; anything else is stale and is
        # dropped when popped (values are re-pushed on every change, so
        # a current entry always exists).
        heap: List[Tuple[int, int]] = []
        for core in self.cores:
            core.done_events = done_events
            core.barrier_arrivals = barrier_arrivals
            ready = core.next_ready_cycle()
            core._next_ready = ready
            if ready is not None:
                heap.append((ready, core.core_id))
        heapify(heap)
        self._b_heap = heap
        self._b_to_tick: List[int] = []
        self._b_it = 0

    def next_core_id(self) -> int:
        """Core id of this machine's next wakeup (0 when none pending).

        Purely informational — the batch driver uses it as the third
        element of its ``(cycle, machine_id, core_id)`` heap key so the
        interleave order is fully specified (machines are independent,
        so the cross-machine order is unobservable either way).
        """
        heap = self._b_heap
        return heap[0][1] if heap else 0

    def batch_step(self, cycle: int, horizon: int) -> Optional[int]:
        """Execute loop iterations from ``cycle`` up through ``horizon``.

        This is the machine's only cycle loop.  It runs until the next
        iteration's cycle exceeds ``horizon``, then returns that cycle
        so the batch driver can re-queue this machine; it returns
        ``None`` when every thread has finished (``stats.cycles`` is
        final).  Because a machine's cycle sequence never depends on
        other machines, the horizon only sets the cross-machine
        interleave granularity, not any result.  Loop state lives in
        locals within a chunk and is saved back to ``_b_*`` attributes
        only at chunk boundaries.
        """
        cores = self.cores
        heap = self._b_heap
        max_cycles = self.config.max_cycles
        live = self._b_live
        done_events = self._b_done_events
        barrier_arrivals = self._b_barrier_arrivals
        barrier_waiters = self._b_barrier_waiters
        it = self._b_it
        if len(cores) == 1:
            # Single-core machines need no wakeup heap: the one core is
            # ticked every iteration (its next READY cycle *is* the
            # clock), which drops all heap bookkeeping from the loop.
            # Tick/advance ordering, `it` sequencing, and every error
            # edge match the general loop below exactly.
            core = cores[0]
            while True:
                wake = core.tick(cycle, it)
                if done_events:
                    live -= len(done_events)
                    del done_events[:]
                if barrier_arrivals:
                    for thread in barrier_arrivals:
                        if thread.barrier_group != "all":
                            raise SimulationError(
                                f"unknown barrier group "
                                f"{thread.barrier_group!r}; only 'all' is "
                                f"supported by the machine barrier"
                            )
                    barrier_waiters.extend(barrier_arrivals)
                    del barrier_arrivals[:]
                if barrier_waiters and len(barrier_waiters) == live:
                    self._release_barrier(barrier_waiters, cycle, heap)
                    wake = core._next_ready
                if live == 0:
                    cycle += 1
                    if cycle > max_cycles:
                        raise SimulationError(
                            f"exceeded max_cycles={max_cycles}; "
                            f"likely livelock"
                        )
                    self._b_live = 0
                    self.stats.cycles = max(
                        t.stats.finish_cycle for t in self.threads
                    )
                    return None
                if wake is None:
                    raise DeadlockError(
                        "all live threads are blocked at barriers that "
                        "cannot be released"
                    )
                cycle = cycle + 1 if wake <= cycle else wake
                if cycle > max_cycles:
                    raise SimulationError(
                        f"exceeded max_cycles={max_cycles}; likely livelock"
                    )
                it += 1
                if cycle > horizon:
                    self._b_live = live
                    self._b_it = it
                    return cycle
        to_tick = self._b_to_tick
        while True:
            # -- tick every core with a thread runnable at `cycle`,
            #    in core-id order (shared L2-bank/directory state makes
            #    the order observable).
            del to_tick[:]
            while heap and heap[0][0] <= cycle:
                entry = heappop(heap)
                cid = entry[1]
                if cores[cid]._next_ready == entry[0] and cid not in to_tick:
                    to_tick.append(cid)
            to_tick.sort()
            for cid in to_tick:
                core = cores[cid]
                ready = core.tick(cycle, it)
                core._next_ready = ready
                if ready is not None:
                    heappush(heap, (ready, cid))
            # -- thread lifecycle events from this round of ticks
            if done_events:
                live -= len(done_events)
                del done_events[:]
            if barrier_arrivals:
                for thread in barrier_arrivals:
                    if thread.barrier_group != "all":
                        raise SimulationError(
                            f"unknown barrier group "
                            f"{thread.barrier_group!r}; only 'all' is "
                            f"supported by the machine barrier"
                        )
                barrier_waiters.extend(barrier_arrivals)
                del barrier_arrivals[:]
            if barrier_waiters and len(barrier_waiters) == live:
                self._release_barrier(barrier_waiters, cycle, heap)
            # -- advance the clock
            if live == 0:
                cycle += 1
                if cycle > max_cycles:
                    raise SimulationError(
                        f"exceeded max_cycles={max_cycles}; likely livelock"
                    )
                self._b_live = 0
                self.stats.cycles = max(
                    t.stats.finish_cycle for t in self.threads
                )
                return None
            while heap and cores[heap[0][1]]._next_ready != heap[0][0]:
                heappop(heap)
            if not heap:
                # Threads exist but none is READY: they must all be
                # parked at barriers that cannot be released.
                raise DeadlockError(
                    "all live threads are blocked at barriers that cannot "
                    "be released"
                )
            wake = heap[0][0]
            cycle = cycle + 1 if wake <= cycle else wake
            if cycle > max_cycles:
                raise SimulationError(
                    f"exceeded max_cycles={max_cycles}; likely livelock"
                )
            it += 1
            if cycle > horizon:
                self._b_live = live
                self._b_it = it
                return cycle

    # -- internals --------------------------------------------------------------

    def _release_barrier(
        self,
        waiters: List[HwThread],
        now: int,
        heap: List[Tuple[int, int]],
    ) -> None:
        """Release all barrier waiters; reschedule their cores' wakeups."""
        release = now + BARRIER_RELEASE_COST
        cores_affected = set()
        for thread in waiters:
            wait = release - thread.barrier_since
            thread.stats.sync_cycles += wait
            thread.stats.busy_cycles += wait
            thread.state = T_READY
            thread.ready_at = release
            thread.barrier_group = None
            cores_affected.add(thread.core_id)
        del waiters[:]
        for cid in sorted(cores_affected):
            core = self.cores[cid]
            ready = core.next_ready_cycle()
            core._next_ready = ready
            if ready is not None:
                heappush(heap, (ready, cid))
