"""Instruction descriptors — the ISA surface of the simulator.

A thread program is a Python generator that *yields* :class:`Instr`
objects and receives each instruction's architectural result via
``send``.  This keeps benchmark kernels readable (Python locals play
the role of registers) while the simulator retains full control of
timing, memory state, and atomicity — the execution-driven style the
paper's simulator uses.

The instruction kinds mirror the paper's ISA:

========================  ================================================
``ALU`` / ``VALU``        scalar / vector compute, 1 cycle per op
``LOAD`` / ``STORE``      scalar word access through the LSU
``LL`` / ``SC``           scalar load-linked / store-conditional (Base)
``VLOAD`` / ``VSTORE``    contiguous SIMD-width access through the LSU
``VGATHER``/``VSCATTER``  indexed SIMD access through the GSU
``VGATHERLINK``           the paper's gather-linked (Section 3.1)
``VSCATTERCOND``          the paper's scatter-conditional (Section 3.1)
``BARRIER``               all-thread rendezvous (substrate primitive)
========================  ================================================

Every instruction carries a ``sync`` flag so the harness can attribute
time to synchronization operations (Figure 5a) and count atomic-op L1
accesses (Table 4).
"""

from __future__ import annotations

from enum import Enum, IntEnum, auto
from typing import Any, Callable, NamedTuple, Optional, Sequence, Tuple

from repro.errors import IsaError
from repro.isa.masks import Mask
from repro.records import record

__all__ = [
    "Kind",
    "Instr",
    "GSU_KINDS",
    "MEMORY_KINDS",
    "ATOMIC_KINDS",
    "N_KINDS",
    "IS_COMPUTE_OP",
    "IS_MEMORY_OP",
]


class Kind(IntEnum):
    """Instruction kind; drives dispatch in the core model.

    An ``IntEnum`` so a kind can index the per-opcode dispatch and
    accounting tables directly (``handlers[instr.kind]``) without a
    hash lookup on the hot issue path.
    """

    ALU = auto()
    VALU = auto()
    LOAD = auto()
    STORE = auto()
    LL = auto()
    SC = auto()
    VLOAD = auto()
    VSTORE = auto()
    VGATHER = auto()
    VSCATTER = auto()
    VGATHERLINK = auto()
    VSCATTERCOND = auto()
    BARRIER = auto()

    # Keep the plain-Enum rendering ("Kind.ALU", not "1") on every
    # Python version; 3.11 switched IntEnum's str/format to the int's.
    __str__ = Enum.__str__
    __format__ = Enum.__format__


# The constructors read the kinds as module globals: on CPython 3.11 an
# enum member read through its class costs several times as much.
(_ALU, _VALU, _LOAD, _STORE, _LL, _SC, _VLOAD, _VSTORE, _VGATHER, _VSCATTER,
 _VGATHERLINK, _VSCATTERCOND, _BARRIER) = Kind

#: Kinds handled by the gather/scatter unit.
GSU_KINDS = frozenset(
    {Kind.VGATHER, Kind.VSCATTER, Kind.VGATHERLINK, Kind.VSCATTERCOND}
)

#: Kinds that access memory at all.
MEMORY_KINDS = frozenset(
    {
        Kind.LOAD,
        Kind.STORE,
        Kind.LL,
        Kind.SC,
        Kind.VLOAD,
        Kind.VSTORE,
    }
) | GSU_KINDS

#: Kinds with read-modify-write / reservation semantics.
ATOMIC_KINDS = frozenset({Kind.LL, Kind.SC, Kind.VGATHERLINK, Kind.VSCATTERCOND})

#: Size of any table indexed by ``Kind`` (member values start at 1).
N_KINDS = len(Kind) + 1

#: ``IS_COMPUTE_OP[kind]`` — instruction retires ``count`` operations.
IS_COMPUTE_OP = tuple(
    Kind(v) in (Kind.ALU, Kind.VALU) if v else False for v in range(N_KINDS)
)

#: ``IS_MEMORY_OP[kind]`` — tuple mirror of :data:`MEMORY_KINDS`.
IS_MEMORY_OP = tuple(
    Kind(v) in MEMORY_KINDS if v else False for v in range(N_KINDS)
)


#: Interned scalar-ALU descriptors, keyed (count, sync); see Instr.alu.
_ALU_INTERNED: dict = {}


@record
class Instr(NamedTuple):
    """One dynamic instruction yielded by a thread program.

    An immutable record (:func:`repro.records.record`): the core hands
    it unchanged to the LSU or GSU, which read their operands from it.
    Only the fields relevant to the instruction's :class:`Kind` are
    populated; the constructors below validate the combinations, so the
    core model can trust the operands, and build the record in one
    positional ``tuple.__new__``.  Fields are, in order:

    ``kind``; ``count`` (compute ops, or the ``vload`` width); ``fn``
    (``valu``); ``addr`` and ``value`` (scalar and contiguous access);
    ``base``, ``indices`` and ``values`` (indexed access; ``vstore``
    also uses ``values``); ``mask``; ``sync``.
    """

    kind: Kind
    count: int = 1
    fn: Optional[Callable] = None
    addr: Optional[int] = None
    value: Any = None
    base: Optional[int] = None
    indices: Optional[Tuple[int, ...]] = None
    values: Optional[Tuple] = None
    mask: Optional[Mask] = None
    sync: bool = False

    def __repr__(self) -> str:
        parts = [self.kind.name.lower()]
        if self.addr is not None:
            parts.append(f"addr={self.addr:#x}")
        if self.base is not None:
            parts.append(f"base={self.base:#x}")
        if self.mask is not None:
            parts.append(f"mask={self.mask!r}")
        if self.sync:
            parts.append("sync")
        return f"Instr({', '.join(parts)})"

    # -- constructors ----------------------------------------------------

    @classmethod
    def alu(cls, count: int = 1, sync: bool = False) -> "Instr":
        """``count`` scalar ALU operations (1 cycle each).

        Instances are interned per ``(count, sync)``: an ``Instr`` is
        immutable and kernels yield enormous numbers of identical
        scalar-ALU descriptors, so one object serves all.
        """
        instr = _ALU_INTERNED.get((count, sync))
        if instr is not None:
            return instr
        if count < 1:
            raise IsaError(f"alu count must be >= 1, got {count}")
        instr = tuple.__new__(cls, (
            _ALU, count, None, None, None, None, None, None, None, sync,
        ))
        _ALU_INTERNED[(count, sync)] = instr
        return instr

    @classmethod
    def valu(cls, fn: Callable, count: int = 1, sync: bool = False) -> "Instr":
        """``count`` vector ALU ops; ``fn()`` computes the result value.

        The callable runs at issue time with no arguments (it closes
        over the program's Python "registers") and its return value is
        delivered back to the program.
        """
        if count < 1:
            raise IsaError(f"valu count must be >= 1, got {count}")
        if not callable(fn):
            raise IsaError("valu requires a callable")
        return tuple.__new__(cls, (
            _VALU, count, fn, None, None, None, None, None, None, sync,
        ))

    @classmethod
    def load(cls, addr: int, sync: bool = False) -> "Instr":
        """Scalar word load."""
        return tuple.__new__(cls, (
            _LOAD, 1, None, _check_addr(addr), None, None, None, None,
            None, sync,
        ))

    @classmethod
    def store(cls, addr: int, value, sync: bool = False) -> "Instr":
        """Scalar word store."""
        return tuple.__new__(cls, (
            _STORE, 1, None, _check_addr(addr), value, None, None, None,
            None, sync,
        ))

    @classmethod
    def ll(cls, addr: int, sync: bool = True) -> "Instr":
        """Scalar load-linked; sets this thread's reservation."""
        return tuple.__new__(cls, (
            _LL, 1, None, _check_addr(addr), None, None, None, None,
            None, sync,
        ))

    @classmethod
    def sc(cls, addr: int, value, sync: bool = True) -> "Instr":
        """Scalar store-conditional; result is a success boolean."""
        return tuple.__new__(cls, (
            _SC, 1, None, _check_addr(addr), value, None, None, None,
            None, sync,
        ))

    @classmethod
    def vload(cls, addr: int, width: int, sync: bool = False) -> "Instr":
        """Contiguous SIMD load of ``width`` words starting at ``addr``."""
        if width < 1:
            raise IsaError(f"vload width must be >= 1, got {width}")
        return tuple.__new__(cls, (
            _VLOAD, width, None, _check_addr(addr), None, None, None,
            None, None, sync,
        ))

    @classmethod
    def vstore(
        cls,
        addr: int,
        values: Sequence,
        mask: Optional[Mask] = None,
        sync: bool = False,
    ) -> "Instr":
        """Contiguous SIMD store of ``values`` under ``mask``."""
        values = tuple(values)
        mask = _check_mask(mask, len(values))
        return tuple.__new__(cls, (
            _VSTORE, 1, None, _check_addr(addr), None, None, None,
            values, mask, sync,
        ))

    @classmethod
    def vgather(
        cls,
        base: int,
        indices: Sequence[int],
        mask: Optional[Mask] = None,
        sync: bool = False,
    ) -> "Instr":
        """Indexed SIMD load: lane i reads ``base[indices[i]]``."""
        indices = _check_indices(indices)
        mask = _check_mask(mask, len(indices))
        return tuple.__new__(cls, (
            _VGATHER, 1, None, None, None, _check_addr(base), indices,
            None, mask, sync,
        ))

    @classmethod
    def vscatter(
        cls,
        base: int,
        indices: Sequence[int],
        values: Sequence,
        mask: Optional[Mask] = None,
        sync: bool = False,
    ) -> "Instr":
        """Indexed SIMD store: lane i writes ``base[indices[i]]``.

        Behaviour under element aliasing is *undefined* in the paper's
        ISA for plain scatters; this model implements
        highest-lane-wins and kernels must not rely on it.
        """
        indices = _check_indices(indices)
        values = tuple(values)
        if len(values) != len(indices):
            raise IsaError(
                f"vscatter values/indices width mismatch: "
                f"{len(values)} vs {len(indices)}"
            )
        mask = _check_mask(mask, len(indices))
        return tuple.__new__(cls, (
            _VSCATTER, 1, None, None, None, _check_addr(base), indices,
            values, mask, sync,
        ))

    @classmethod
    def vgatherlink(
        cls,
        base: int,
        indices: Sequence[int],
        mask: Optional[Mask] = None,
        sync: bool = True,
    ) -> "Instr":
        """The paper's ``vgatherlink Fdst, Vdst, base, Vindx, Fsrc``.

        Result is a ``(values, out_mask)`` pair: gathered lane values
        plus the mask of lanes whose reservations were obtained.
        """
        indices = _check_indices(indices)
        mask = _check_mask(mask, len(indices))
        return tuple.__new__(cls, (
            _VGATHERLINK, 1, None, None, None, _check_addr(base),
            indices, None, mask, sync,
        ))

    @classmethod
    def vscattercond(
        cls,
        base: int,
        indices: Sequence[int],
        values: Sequence,
        mask: Optional[Mask] = None,
        sync: bool = True,
    ) -> "Instr":
        """The paper's ``vscattercond Fdst, Vsrc, base, Vindx, Fsrc``.

        Result is the output mask of lanes whose stores succeeded.
        Exactly one of any set of aliased lanes can succeed.
        """
        indices = _check_indices(indices)
        values = tuple(values)
        if len(values) != len(indices):
            raise IsaError(
                f"vscattercond values/indices width mismatch: "
                f"{len(values)} vs {len(indices)}"
            )
        mask = _check_mask(mask, len(indices))
        return tuple.__new__(cls, (
            _VSCATTERCOND, 1, None, None, None, _check_addr(base),
            indices, values, mask, sync,
        ))

    @classmethod
    def barrier(cls) -> "Instr":
        """Block until every live thread arrives."""
        return tuple.__new__(cls, (
            _BARRIER, 1, None, None, None, None, None, None, None, True,
        ))


def _check_addr(addr: int) -> int:
    if not isinstance(addr, int) or addr < 0:
        raise IsaError(f"address must be a non-negative int, got {addr!r}")
    return addr


def _check_indices(indices: Sequence[int]) -> Tuple[int, ...]:
    indices = tuple(indices)
    if not indices:
        raise IsaError("index vector must have at least one lane")
    for idx in indices:
        if not isinstance(idx, int) or idx < 0:
            raise IsaError(f"indices must be non-negative ints, got {idx!r}")
    return indices


def _check_mask(mask: Optional[Mask], width: int) -> Mask:
    if mask is None:
        return Mask.all_ones(width)
    if not isinstance(mask, Mask):
        raise IsaError(f"expected Mask, got {type(mask).__name__}")
    if mask.width != width:
        raise IsaError(f"mask width {mask.width} != operand width {width}")
    return mask
