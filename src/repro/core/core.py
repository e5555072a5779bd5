"""In-order SMT core model.

Each core executes up to ``threads_per_core`` thread programs with a
shared issue bandwidth of ``issue_width`` instructions per cycle,
picking among ready threads round-robin — the standard fine-grained
SMT policy, and what lets the paper's 1x4 configuration hide memory
latency.

Instruction execution is dispatched through a per-thread *handler
table* compiled when the thread is attached: one bound callable per
:class:`~repro.isa.instructions.Kind`, closing over the LSU/GSU and
the thread's SMT slot.  Issuing an instruction is then a single
indexed call — no per-issue chain of kind comparisons.  ALU/VALU work
costs one cycle per operation.  A thread blocks on its own memory
instruction until the unit reports the completion cycle;
gather/scatter instructions are blocking per the paper (Section 2.2).
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
        "barrier_group",
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
        self.barrier_group: Optional[str] = None
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
        "_rr",
        "_last_it",
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
        self._rr = 0
        # Machine-loop iteration this core last ticked at; idle ticks
        # are skipped and their round-robin advances applied lazily.
        self._last_it = -1
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
        self.threads.append(thread)

    # -- scheduling --------------------------------------------------------

    def tick(self, now: int, it: int) -> Optional[int]:
        """Issue up to ``issue_width`` instructions at cycle ``now``.

        ``it`` is the machine loop's iteration counter.  The reference
        loop ticked every core every iteration, advancing the
        round-robin pointer even on idle ticks; the event-driven loop
        only ticks cores with runnable threads, so the skipped
        advances are applied here in one step to keep the arbitration
        sequence bit-identical.

        Returns the post-tick :meth:`next_ready_cycle` value, computed
        in the same pass so the machine loop never rescans the threads.
        """
        threads = self.threads
        n = len(threads)
        if n == 0:
            return None
        obs = self.obs
        if n == 1:
            # Single-thread core: no arbitration.  The round-robin
            # pointer is identically 0 and the issue loop visits one
            # thread, so the general path below reduces to exactly
            # this (same issue condition, same bookkeeping).
            self._last_it = it
            thread = threads[0]
            if thread.state == T_READY and thread.ready_at <= now:
                try:
                    instr = thread._send(thread._pending_result)
                except StopIteration:
                    thread.state = T_DONE
                    thread.stats.finish_cycle = now
                    self.done_events.append(thread)
                    return None
                if type(instr) is not Instr:
                    raise ProgramError(
                        f"thread {thread.global_tid} yielded "
                        f"{type(instr).__name__}, expected Instr"
                    )
                kind = instr.kind
                completion, result = thread.handlers[kind](instr, now)
                if obs is not None and obs.wants_instr:
                    obs.emit(TraceEvent(
                        now, completion, thread.global_tid, self.core_id,
                        kind, instr.sync,
                    ))
                thread._pending_result = result
                if kind == _OP_BARRIER:
                    thread.state = T_BARRIER
                    thread.barrier_group = instr.group
                    thread.barrier_since = now
                    self.barrier_arrivals.append(thread)
                    return None
                thread.ready_at = completion
                return completion
            return thread.ready_at if thread.state == T_READY else None
        rr = self._rr + (it - self._last_it - 1)
        self._last_it = it
        issued = 0
        width = self._issue_width
        next_ready: Optional[int] = None
        for i in range(n):
            thread = threads[(rr + i) % n]
            if (
                issued < width
                and thread.state == T_READY
                and thread.ready_at <= now
            ):
                # -- issue path, inlined (the hottest loop in the sim) --
                try:
                    instr = thread._send(thread._pending_result)
                except StopIteration:
                    thread.state = T_DONE
                    thread.stats.finish_cycle = now
                    self.done_events.append(thread)
                else:
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
                        thread.barrier_group = instr.group
                        thread.barrier_since = now
                        self.barrier_arrivals.append(thread)
                    else:
                        thread.ready_at = completion
                issued += 1
            if thread.state == T_READY:
                r = thread.ready_at
                if next_ready is None or r < next_ready:
                    next_ready = r
        self._rr = (rr + 1) % n
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

        Each handler closes over the unit method, the slot, and the
        thread's stats, so the issue path pays one list index + one
        call instead of a dispatch chain; operand decode is just
        attribute loads off the Instr.  The per-instruction stats
        accounting is::

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
        lsu = self.lsu
        gsu = self.gsu
        load, store = lsu.load, lsu.store
        ll, sc = lsu.ll, lsu.sc
        vload, vstore = lsu.vload, lsu.vstore
        gather, scatter = gsu.gather, gsu.scatter

        def memory(op: Callable[[Instr, int], Tuple[Any, int]]) -> Handler:
            """Handler for a memory kind whose unit call is
            ``op(instr, now) -> (result, completion)``."""

            def handler(instr: Instr, now: int):
                result, completion = op(instr, now)
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

        def op_vgather(instr: Instr, now: int):
            (values, _), completion = gather(
                slot, instr.base, instr.indices, instr.mask, now,
                linked=False, sync=instr.sync,
            )
            return values, completion

        def op_vscatter(instr: Instr, now: int):
            _, completion = scatter(
                slot, instr.base, instr.indices, instr.values, instr.mask,
                now, conditional=False, sync=instr.sync,
            )
            return None, completion

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

        table: List[Handler] = [h_unhandled] * N_KINDS
        table[Kind.ALU] = h_alu
        table[Kind.VALU] = h_valu
        table[Kind.LOAD] = memory(
            lambda instr, now: load(slot, instr.addr, now, sync=instr.sync)
        )
        table[Kind.STORE] = memory(
            lambda instr, now: (None, store(
                slot, instr.addr, instr.value, now, sync=instr.sync
            ))
        )
        table[Kind.LL] = memory(
            lambda instr, now: ll(slot, instr.addr, now)
        )
        table[Kind.SC] = memory(
            lambda instr, now: sc(slot, instr.addr, instr.value, now)
        )
        table[Kind.VLOAD] = memory(
            lambda instr, now: vload(
                slot, instr.addr, instr.count, now, sync=instr.sync
            )
        )
        table[Kind.VSTORE] = memory(
            lambda instr, now: (None, vstore(
                slot, instr.addr, instr.values, instr.mask, now,
                sync=instr.sync,
            ))
        )
        table[Kind.VGATHER] = memory(op_vgather)
        table[Kind.VGATHERLINK] = memory(
            lambda instr, now: gather(
                slot, instr.base, instr.indices, instr.mask, now,
                linked=True,
            )
        )
        table[Kind.VSCATTER] = memory(op_vscatter)
        table[Kind.VSCATTERCOND] = memory(
            lambda instr, now: scatter(
                slot, instr.base, instr.indices, instr.values, instr.mask,
                now, conditional=True,
            )
        )
        table[Kind.BARRIER] = h_barrier
        return table
