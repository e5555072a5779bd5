"""Thread programs and the kernel-authoring DSL.

A *program* is a generator function taking a :class:`ThreadCtx`; the
generator yields :class:`~repro.isa.instructions.Instr` objects and
receives each instruction's result back from the simulator::

    def histogram(ctx):
        pixels = yield ctx.vload(input_base)
        ...

:class:`ThreadCtx` binds the thread's identity and the machine's SIMD
width so kernels read like the paper's pseudo-code (Figure 3) without
repeating the width on every instruction.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Generator, Optional, Sequence

from repro.errors import ProgramError
from repro.isa.instructions import Instr
from repro.isa.masks import Mask

__all__ = ["ThreadCtx", "Program", "check_program"]

#: A kernel program: generator function over a thread context.
Program = Callable[["ThreadCtx"], Generator[Instr, Any, None]]


class ThreadCtx:
    """Per-thread view of the machine handed to a kernel program.

    Provides the thread's identity (``tid`` of ``n_threads``), the SIMD
    width ``w``, and instruction constructors pre-bound to that width.
    """

    def __init__(self, tid: int, n_threads: int, simd_width: int) -> None:
        if not 0 <= tid < n_threads:
            raise ProgramError(f"tid {tid} out of range for {n_threads} threads")
        self.tid = tid
        self.n_threads = n_threads
        self.w = simd_width

    # -- masks -------------------------------------------------------------

    def all_ones(self) -> Mask:
        """A full mask at this machine's SIMD width."""
        return Mask.all_ones(self.w)

    def zeros(self) -> Mask:
        """An empty mask at this machine's SIMD width."""
        return Mask.zeros(self.w)

    def prefix_mask(self, n: int) -> Mask:
        """A mask with the first ``n`` lanes active (tail handling)."""
        n = max(0, min(n, self.w))
        return Mask((1 << n) - 1, self.w)

    # -- compute -------------------------------------------------------------

    # Width-free constructors alias the Instr classmethods directly:
    # every instruction a kernel issues goes through one of these, so
    # the delegation frame is worth eliminating.  Signatures (including
    # defaults such as ``sync=True`` on ll/sc) match the old wrappers.

    alu = staticmethod(Instr.alu)
    valu = staticmethod(Instr.valu)

    def kalu(self, fn: Callable, sync: bool = False) -> Instr:
        """Mask-register op (same cost model as a vector ALU op)."""
        return Instr.valu(fn, count=1, sync=sync)

    # -- scalar memory -----------------------------------------------------

    load = staticmethod(Instr.load)
    store = staticmethod(Instr.store)
    ll = staticmethod(Instr.ll)
    sc = staticmethod(Instr.sc)

    # -- SIMD memory -----------------------------------------------------------

    def vload(self, addr: int, sync: bool = False) -> Instr:
        """Contiguous SIMD-width load."""
        return Instr.vload(addr, self.w, sync=sync)

    vstore = staticmethod(Instr.vstore)
    vgather = staticmethod(Instr.vgather)
    vscatter = staticmethod(Instr.vscatter)
    vgatherlink = staticmethod(Instr.vgatherlink)
    vscattercond = staticmethod(Instr.vscattercond)

    # -- synchronization substrate ---------------------------------------------

    barrier = staticmethod(Instr.barrier)


def check_program(program: Program) -> None:
    """Validate that ``program`` is a generator function of one argument.

    Catching this early gives kernel authors a clear error instead of a
    confusing failure deep inside the machine loop.
    """
    if not callable(program):
        raise ProgramError(f"program must be callable, got {type(program)!r}")
    if inspect.isgeneratorfunction(program):
        return
    # Allow callables (e.g. functools.partial) that *return* generators;
    # what they return is checked when each hardware thread calls them.
    if isinstance(program, type):
        raise ProgramError("program must be a generator function, not a class")
