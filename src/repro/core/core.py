"""In-order SMT core model.

Each core executes up to ``threads_per_core`` thread programs with a
shared issue bandwidth of ``issue_width`` instructions per cycle,
picking among ready threads round-robin — the standard fine-grained
SMT policy, and what lets the paper's 1x4 configuration hide memory
latency.

Instruction execution is dispatched through a per-thread *handler
table* compiled when the thread is attached: one bound callable per
:class:`~repro.isa.instructions.Kind`, closing over the thread's SMT
slot and stats.  Issuing an instruction is then a single indexed call
— no per-issue chain of kind comparisons.  A memory handler passes
the :class:`~repro.isa.instructions.Instr` itself to the LSU or GSU,
which decodes its operands, so every memory instruction costs one
handler frame plus the unit call.  ALU/VALU work costs one cycle per
operation.  A thread blocks on its own memory instruction until the
unit reports the completion cycle; gather/scatter instructions are
blocking per the paper (Section 2.2).
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import ProgramError, SimulationError
from repro.core.gsu import Gsu
from repro.core.lsu import Lsu
from repro.core.ports import L1Port
from repro.isa.instructions import Instr, Kind, N_KINDS
from repro.isa.program import Program, ThreadCtx
from repro.mem.coherence import CoherenceSystem
from repro.mem.image import MemoryImage
from repro.sim.config import MachineConfig
from repro.sim.stats import MachineStats, ThreadStats
from repro.sim.trace import TraceEvent

__all__ = ["HwThread", "Core"]

#: Thread lifecycle states.
T_READY = "ready"
T_BARRIER = "barrier"
T_DONE = "done"

_OP_BARRIER = int(Kind.BARRIER)

#: Type of one compiled instruction handler: (instr, now) -> (completion,
#: architectural result).
Handler = Callable[[Instr, int], Tuple[int, Any]]


class HwThread:
    """Runtime state of one hardware thread context."""

    __slots__ = (
        "global_tid",
        "slot",
        "core_id",
        "ctx",
        "stats",
        "state",
        "ready_at",
        "barrier_since",
        "handlers",
        "_pending_result",
        "_send",
    )

    def __init__(
        self,
        global_tid: int,
        slot: int,
        program: Program,
        ctx: ThreadCtx,
        stats: ThreadStats,
    ) -> None:
        self.global_tid = global_tid
        self.slot = slot
        self.core_id = -1  # assigned by Core.add_thread
        self.ctx = ctx
        self.stats = stats
        self.state = T_READY
        self.ready_at = 0
        self.barrier_since = 0
        self.handlers: List[Handler] = []
        self._pending_result: Any = None
        generator = program(ctx)
        if not isinstance(generator, GeneratorType):
            raise ProgramError(
                f"thread {global_tid}: program returned "
                f"{type(generator).__name__}, expected a generator"
            )
        # send(None) on a fresh generator is next(): no "started" flag.
        self._send = generator.send


class Core:
    """One in-order SMT core with private L1 port, LSU, and GSU."""

    __slots__ = (
        "core_id",
        "config",
        "port",
        "lsu",
        "gsu",
        "threads",
        "obs",
        "done_events",
        "barrier_arrivals",
        "_orders",
        "_next_ready",
        "_issue_width",
    )

    def __init__(
        self,
        core_id: int,
        config: MachineConfig,
        coherence: CoherenceSystem,
        image: MemoryImage,
        stats: MachineStats,
        obs=None,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.port = L1Port()
        self.lsu = Lsu(core_id, config, coherence, image, stats, self.port)
        self.gsu = Gsu(
            core_id, config, coherence, image, stats, self.port, obs=obs
        )
        self.threads: List[HwThread] = []
        self.obs = obs
        # Threads that finished / hit a barrier during the last tick(s).
        # The machine loop replaces these with shared lists so it learns
        # of lifecycle changes without rescanning every thread.
        self.done_events: List[HwThread] = []
        self.barrier_arrivals: List[HwThread] = []
        # ``_orders[r]``: the threads in round-robin order from thread r.
        self._orders: Tuple[Tuple[HwThread, ...], ...] = ()
        # The machine loop's cached next_ready_cycle() for this core:
        # the cycle loop ticks the core when the clock reaches it.
        self._next_ready: Optional[int] = None
        self._issue_width = config.issue_width

    def add_thread(self, thread: HwThread) -> None:
        """Attach a hardware thread to this core."""
        if len(self.threads) >= self.config.threads_per_core:
            raise SimulationError(
                f"core {self.core_id} already has "
                f"{self.config.threads_per_core} threads"
            )
        thread.core_id = self.core_id
        thread.handlers = self._compile_handlers(thread.slot, thread.stats)
        threads = self.threads
        threads.append(thread)
        self._orders = tuple(
            tuple(threads[r:] + threads[:r]) for r in range(len(threads))
        )

    # -- scheduling --------------------------------------------------------

    def tick(self, now: int, it: int) -> Optional[int]:
        """Issue up to ``issue_width`` instructions at cycle ``now``.

        ``it`` is the machine loop's iteration counter.  The reference
        loop ticked every core every iteration, advancing the
        round-robin pointer by one thread each time, even on idle
        ticks.  So the pointer at iteration ``it`` is ``it`` modulo the
        thread count, and the event-driven loop, which only ticks cores
        with runnable threads, keeps the arbitration sequence
        bit-identical.

        One loop serves every thread count: it walks the precomputed
        round-robin order that starts at the pointer, so a
        single-thread core visits its one thread with no index
        arithmetic.

        Returns the post-tick :meth:`next_ready_cycle` value, computed
        in the same pass so the machine loop never rescans the threads.
        """
        orders = self._orders
        obs = self.obs
        issued = 0
        width = self._issue_width
        next_ready: Optional[int] = None
        for thread in orders[it % len(orders)]:
            if thread.state != T_READY:
                continue
            r = thread.ready_at
            if r <= now and issued < width:
                # -- issue path, inlined (the hottest loop in the sim) --
                issued += 1
                try:
                    instr = thread._send(thread._pending_result)
                except StopIteration:
                    thread.state = T_DONE
                    thread.stats.finish_cycle = now
                    self.done_events.append(thread)
                    continue
                if type(instr) is not Instr:
                    raise ProgramError(
                        f"thread {thread.global_tid} yielded "
                        f"{type(instr).__name__}, expected Instr"
                    )
                kind = instr.kind
                completion, result = thread.handlers[kind](instr, now)
                if obs is not None and obs.wants_instr:
                    obs.emit(TraceEvent(
                        now, completion, thread.global_tid,
                        self.core_id, kind, instr.sync,
                    ))
                thread._pending_result = result
                if kind == _OP_BARRIER:
                    thread.state = T_BARRIER
                    thread.barrier_since = now
                    self.barrier_arrivals.append(thread)
                    continue
                thread.ready_at = r = completion
            if next_ready is None or r < next_ready:
                next_ready = r
        return next_ready

    def next_ready_cycle(self) -> Optional[int]:
        """Earliest cycle any thread here can issue, or None if none can."""
        best: Optional[int] = None
        for t in self.threads:
            if t.state == T_READY:
                r = t.ready_at
                if best is None or r < best:
                    best = r
        return best

    # -- dispatch compilation ----------------------------------------------

    def _compile_handlers(self, slot: int, stats: ThreadStats) -> List[Handler]:
        """Bind one handler per instruction kind for SMT slot ``slot``.

        Each handler closes over the slot and the thread's stats, so
        the issue path pays one list index + one call instead of a
        dispatch chain.  A memory handler calls its unit entry point
        as ``op(slot, instr, now) -> (completion, result)``; the unit
        decodes the operands from the ``Instr``.  Both indexed kinds of
        a direction share one GSU method, which tells them apart by
        ``instr.kind``.  The per-instruction stats accounting is::

            icount = instr.count if IS_COMPUTE_OP[kind] else 1
            busy = max(completion - now, 1)
            stats.instructions += icount
            stats.busy_cycles += busy
            if IS_MEMORY_OP[kind]:
                stats.mem_instructions += 1
                stats.mem_stall_cycles += busy - 1 if busy > 1 else 0
            if instr.sync:
                stats.sync_instructions += icount
                stats.sync_cycles += busy

        Every memory kind is built by ``memory``, the one place that
        charges a memory instruction; the compute and barrier handlers
        apply the rule with ``busy`` known statically.
        """

        def memory(
            op: Callable[[int, Instr, int], Tuple[int, Any]]
        ) -> Handler:
            """Handler for a memory kind executed by unit method ``op``."""

            def handler(instr: Instr, now: int):
                completion, result = op(slot, instr, now)
                busy = completion - now
                if busy < 1:
                    busy = 1
                stats.instructions += 1
                stats.busy_cycles += busy
                stats.mem_instructions += 1
                if busy > 1:
                    stats.mem_stall_cycles += busy - 1
                if instr.sync:
                    stats.sync_instructions += 1
                    stats.sync_cycles += busy
                return completion, result

            return handler

        def h_alu(instr: Instr, now: int):
            count = instr.count  # busy == count: 1 cycle/op, count >= 1
            stats.instructions += count
            stats.busy_cycles += count
            if instr.sync:
                stats.sync_instructions += count
                stats.sync_cycles += count
            return now + count, None

        def h_valu(instr: Instr, now: int):
            result = instr.fn()
            count = instr.count
            stats.instructions += count
            stats.busy_cycles += count
            if instr.sync:
                stats.sync_instructions += count
                stats.sync_cycles += count
            return now + count, result

        def h_barrier(instr: Instr, now: int):
            stats.instructions += 1  # busy is identically 1
            stats.busy_cycles += 1
            if instr.sync:
                stats.sync_instructions += 1
                stats.sync_cycles += 1
            return now + 1, None

        def h_unhandled(instr: Instr, now: int):
            raise SimulationError(
                f"unhandled instruction kind {instr.kind}"
            )

        lsu = self.lsu
        gather = memory(self.gsu.gather)
        scatter = memory(self.gsu.scatter)
        table: List[Handler] = [h_unhandled] * N_KINDS
        table[Kind.ALU] = h_alu
        table[Kind.VALU] = h_valu
        table[Kind.LOAD] = memory(lsu.load)
        table[Kind.STORE] = memory(lsu.store)
        table[Kind.LL] = memory(lsu.ll)
        table[Kind.SC] = memory(lsu.sc)
        table[Kind.VLOAD] = memory(lsu.vload)
        table[Kind.VSTORE] = memory(lsu.vstore)
        table[Kind.VGATHER] = table[Kind.VGATHERLINK] = gather
        table[Kind.VSCATTER] = table[Kind.VSCATTERCOND] = scatter
        table[Kind.BARRIER] = h_barrier
        return table
