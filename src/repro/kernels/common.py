"""Shared kernel-programming idioms.

These generator subroutines encode the paper's code sequences once so
every benchmark uses identical atomic-operation instruction counts:

* :func:`scalar_atomic_update` — the Base ll/sc read-modify-write loop
  (Figure 2);
* :func:`scalar_lock_acquire` / :func:`scalar_lock_release` — Base
  test-and-set locks built from ll/sc;
* :func:`glsc_vector_update` — the GLSC reduction loop (Figure 3A);
* :func:`vlock` / :func:`vunlock` — the GLSC vector-lock macros
  (Figure 3B);
* :class:`KernelBase` — the harness contract each benchmark implements.

Use them with ``yield from`` inside a kernel program.
"""

from __future__ import annotations

import abc
import copy
from typing import Callable, List, Sequence, Tuple

from repro.errors import ConfigError, VerificationError
from repro.isa.masks import Mask
from repro.isa.program import ThreadCtx
from repro.mem.image import ArrayView, MemoryImage

__all__ = [
    "KernelBase",
    "MAX_SIMD_WIDTH",
    "padded",
    "chunk",
    "scalar_atomic_update",
    "scalar_lock_acquire",
    "scalar_lock_release",
    "scalar_paired_lock_apply",
    "glsc_vector_update",
    "glsc_paired_lock_apply",
    "vlock",
    "vunlock",
]

#: The two benchmark variants the paper compares.
VARIANTS = ("base", "glsc")


#: Maximum SIMD width the kernels support; arrays read with vector
#: loads are padded to a multiple of this so tail loads read zeros
#: instead of neighbouring allocations.
MAX_SIMD_WIDTH = 16


def padded(values: Sequence) -> List:
    """``values`` extended with zeros to a multiple of MAX_SIMD_WIDTH."""
    values = list(values)
    remainder = len(values) % MAX_SIMD_WIDTH
    if remainder:
        values.extend([0] * (MAX_SIMD_WIDTH - remainder))
    return values


def chunk(total: int, n_threads: int, tid: int) -> Tuple[int, int]:
    """Block-partition ``total`` items: thread ``tid``'s [lo, hi) range.

    The paper always splits work evenly between threads to minimize
    lock/reduction contention; a contiguous block split also preserves
    spatial locality for the prefetcher.
    """
    base = total // n_threads
    extra = total % n_threads
    lo = tid * base + min(tid, extra)
    hi = lo + base + (1 if tid < extra else 0)
    return lo, hi


def scalar_atomic_update(ctx: ThreadCtx, addr: int, fn: Callable):
    """Base read-modify-write: the ll/sc retry loop of Figure 2.

    ``fn(old) -> new`` is the modify step (one ALU op).  Returns the
    value that was stored.
    """
    while True:
        value = yield ctx.ll(addr)
        yield ctx.alu(1, sync=True)  # the modify operation
        new = fn(value)
        ok = yield ctx.sc(addr, new)
        if ok:
            return new


def scalar_lock_acquire(ctx: ThreadCtx, lock_addr: int):
    """Base test-and-set lock acquire via ll/sc; spins until held."""
    while True:
        value = yield ctx.ll(lock_addr)
        yield ctx.alu(1, sync=True)  # test
        if value == 0:
            ok = yield ctx.sc(lock_addr, 1)
            if ok:
                return


def scalar_lock_release(ctx: ThreadCtx, lock_addr: int):
    """Base lock release: a plain store of 0."""
    yield ctx.store(lock_addr, 0, sync=True)


def glsc_vector_update(
    ctx: ThreadCtx,
    base: int,
    indices: Sequence[int],
    update: Callable[[Tuple, Mask], Tuple],
    todo: Mask = None,
):
    """The GLSC reduction loop of Figure 3A.

    Repeats gather-link / modify / scatter-conditional until every lane
    in ``todo`` (default: all lanes) has completed its atomic update.
    ``update(values, got_mask) -> new_values`` is the vector modify
    step (one VALU op); it must leave lanes outside ``got_mask``
    unchanged.
    """
    if todo is None:
        todo = ctx.all_ones()
    while todo.any():
        vals, got = yield ctx.vgatherlink(base, indices, todo)
        new = yield ctx.valu(lambda v=vals, g=got: update(v, g), sync=True)
        ok = yield ctx.vscattercond(base, indices, new, got)
        todo = yield ctx.kalu(lambda t=todo, o=ok: t.andnot(o), sync=True)


def vlock(ctx: ThreadCtx, lock_base: int, indices: Sequence[int], mask: Mask):
    """One best-effort attempt at the VLOCK macro (Figure 3B).

    Tries to acquire the test-and-set locks ``lock_base[indices]`` for
    the lanes in ``mask``; returns the mask of locks acquired.  Aliased
    lanes get at most one winner; contended or lost-reservation lanes
    simply miss out — callers loop until done, exactly as the paper's
    histogram-with-locks example does.
    """
    vals, linked = yield ctx.vgatherlink(lock_base, indices, mask)
    avail = yield ctx.kalu(
        lambda v=vals, l=linked: Mask.from_lanes(
            l.lane(i) and v[i] == 0 for i in range(l.width)
        ),
        sync=True,
    )
    ones = (1,) * mask.width
    got = yield ctx.vscattercond(lock_base, indices, ones, avail)
    return got


def vunlock(ctx: ThreadCtx, lock_base: int, indices: Sequence[int], mask: Mask):
    """The VUNLOCK macro (Figure 3B): scatter zeros to held locks."""
    if mask.none():
        return
    zeros = (0,) * mask.width
    yield ctx.vscatter(lock_base, indices, zeros, mask, sync=True)


def scalar_paired_lock_apply(
    ctx: ThreadCtx,
    lock_base: int,
    a: int,
    b: int,
    work,
):
    """Base two-lock critical section over a single element.

    Acquires the locks for objects ``a`` and ``b`` in index order
    (global ordering prevents deadlock), runs ``work`` (a generator),
    and releases in reverse order.  The shipped GPS/MFP Base variants
    use the stronger whole-vector sorted acquisition instead; this
    helper remains the canonical scalar pattern (used by the
    ``vector_locks`` example and available to client kernels).
    """
    first, second = (a, b) if a < b else (b, a)
    yield from scalar_lock_acquire(ctx, lock_base + first * 4)
    yield from scalar_lock_acquire(ctx, lock_base + second * 4)
    yield from work()
    yield from scalar_lock_release(ctx, lock_base + second * 4)
    yield from scalar_lock_release(ctx, lock_base + first * 4)


def glsc_paired_lock_apply(
    ctx: ThreadCtx,
    lock_base: int,
    a_idx: Sequence[int],
    b_idx: Sequence[int],
    todo: Mask,
    work,
):
    """GLSC two-lock critical section over a SIMD group (GPS/MFP).

    Best-effort: VLOCK the ``a`` objects, then the ``b`` objects of the
    lanes that got their ``a`` lock; lanes holding both run ``work``
    (a generator taking the winner mask); all acquired locks are
    released and the remaining lanes retry.  There is no hold-and-wait,
    so no deadlock — the trade the paper's ISA design makes explicit
    (Section 3.2).

    Callers must guarantee no two lanes of one group share an object
    (the paper's independent-constraint reordering); aliasing across
    threads is resolved by the locks themselves.

    Two livelock defences, both necessary in practice:

    * each lane acquires its pair in *global index order* (min object
      first) — two threads contending for an overlapping pair then
      collide on the first lock, and the winner's second lock cannot
      be held by the loser (removes AB-BA ping-pong cycles);
    * barren rounds back off for a deterministically *pseudo-random*,
      exponentially escalating number of cycles.  A constant per-thread
      delay is not enough: SMT threads share their core's GSU address
      generator, whose queueing absorbs small fixed offsets and
      re-phase-locks the spinners (observed as a bit-exact periodic
      ping-pong on 1-core x 4-thread GPS).  Hashing (tid, round) varies
      each thread's loop period every round, so no resonance survives,
      while the simulation stays fully deterministic.
    """
    # Lane-wise (min, max) lock ordering; one SIMD select pair.
    lo_idx = yield ctx.valu(
        lambda: [min(a, b) for a, b in zip(a_idx, b_idx)], sync=True
    )
    hi_idx = yield ctx.valu(
        lambda: [max(a, b) for a, b in zip(a_idx, b_idx)], sync=True
    )
    backoff = 0
    rounds = 0
    while todo.any():
        first = yield from vlock(ctx, lock_base, lo_idx, todo)
        both = yield from vlock(ctx, lock_base, hi_idx, first)
        if both.any():
            yield from work(both)
            backoff = 0
        yield from vunlock(ctx, lock_base, hi_idx, both)
        yield from vunlock(ctx, lock_base, lo_idx, first)
        todo = yield ctx.kalu(lambda t=todo, f=both: t.andnot(f), sync=True)
        rounds += 1
        if todo.any() and both.none():
            backoff = min(backoff + 1, 6)
            mixed = (ctx.tid * 0x9E3779B1 + rounds * 0x85EBCA6B) & 0xFFFFFFFF
            mixed ^= mixed >> 15
            yield ctx.alu(1 + mixed % (1 << backoff), sync=True)


def _rebind_views(value, image: MemoryImage):
    """``value`` with every ArrayView and image inside re-targeted at ``image``.

    A kernel is allocated into exactly one image, so any
    :class:`MemoryImage` it holds (a kernel that allocates lazily keeps
    one) is the template and becomes ``image`` too.  Returns ``value``
    itself (identity-preserved) when nothing inside is a view or an
    image, so :meth:`KernelBase.rebound` leaves plain attributes —
    datasets, parameters — shared with the template kernel.
    """
    if isinstance(value, MemoryImage):
        return image
    if isinstance(value, ArrayView):
        return ArrayView(image, value.base, value.length)
    if isinstance(value, list):
        rebound = [_rebind_views(item, image) for item in value]
        if any(a is not b for a, b in zip(rebound, value)):
            return rebound
        return value
    if isinstance(value, tuple):
        rebound = tuple(_rebind_views(item, image) for item in value)
        if any(a is not b for a, b in zip(rebound, value)):
            return rebound
        return value
    if isinstance(value, dict):
        rebound = {
            key: _rebind_views(item, image) for key, item in value.items()
        }
        if any(rebound[key] is not value[key] for key in value):
            return rebound
        return value
    return value


class KernelBase(abc.ABC):
    """Contract every benchmark kernel implements.

    Lifecycle: construct with dataset parameters, :meth:`allocate` into
    a machine's memory image, hand :meth:`program` to
    ``Machine.add_program`` for every hardware thread, run, then
    :meth:`verify` against the kernel's oracle.  Instances are
    one-shot, like machines.
    """

    #: short name, e.g. "hip" (set by subclasses)
    name: str = "?"
    #: human title, e.g. "Histogram for Image Processing"
    title: str = "?"
    #: Table 3 "Atomic Operation" column
    atomic_op: str = "?"

    def __init__(self) -> None:
        self._allocated = False

    @abc.abstractmethod
    def allocate(self, image: MemoryImage) -> None:
        """Build the kernel's data structures in simulated memory."""

    @abc.abstractmethod
    def base_program(self, ctx: ThreadCtx):
        """The Base variant (scalar ll/sc atomics), one thread."""

    @abc.abstractmethod
    def glsc_program(self, ctx: ThreadCtx):
        """The GLSC variant (vgatherlink/vscattercond), one thread."""

    @abc.abstractmethod
    def verify(self) -> None:
        """Compare simulated output with the oracle; raise on mismatch."""

    def program(self, variant: str):
        """The program generator function for ``variant``."""
        if variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {variant!r}; expected one of {VARIANTS}"
            )
        return self.base_program if variant == "base" else self.glsc_program

    def rebound(self, image: MemoryImage) -> "KernelBase":
        """A copy of this (allocated) kernel with its views on ``image``.

        The batched backend allocates each distinct (kernel, dataset,
        thread-count, geometry) combination once into a template image
        and hydrates per-machine copies from the snapshot; ``rebound``
        produces the kernel instance whose :meth:`verify` and programs
        read *that machine's* image.  The clone shares the (read-only)
        dataset objects and allocation layout — only the
        :class:`~repro.mem.image.ArrayView` attributes are rebuilt,
        wherever they live (attributes, lists, tuples, dict values),
        and a held reference to the template image itself is pointed
        at ``image``, so a lazy allocation made while the program runs
        (the microbenchmark's index streams) lands in the machine's own
        image at the same address as on an unbatched run.

        ``image`` must have been hydrated from this kernel's own
        allocation snapshot, so every view address stays valid.
        """
        self._require_allocated()
        clone = copy.copy(self)
        for name, value in vars(self).items():
            replacement = _rebind_views(value, image)
            if replacement is not value:
                setattr(clone, name, replacement)
        return clone

    # -- helpers for subclasses ----------------------------------------------

    def _mark_allocated(self) -> None:
        if self._allocated:
            raise ConfigError(f"kernel {self.name} already allocated")
        self._allocated = True

    def _require_allocated(self) -> None:
        if not self._allocated:
            raise ConfigError(f"kernel {self.name} not allocated yet")

    @staticmethod
    def _check_close(
        actual: List, expected: List, what: str, rel_tol: float = 1e-9
    ) -> None:
        """Verify with a tight relative tolerance.

        For kernels whose value chains outgrow exact float64 dyadics
        (FS's substitution recurrences).  The tolerance is far below
        the size of any single atomic contribution, so a lost update
        still fails loudly; only benign summation-order noise passes.
        """
        if len(actual) != len(expected):
            raise VerificationError(
                f"{what}: length {len(actual)} != {len(expected)}"
            )
        for i, (a, e) in enumerate(zip(actual, expected)):
            scale = max(abs(a), abs(e), 1.0)
            if abs(a - e) > rel_tol * scale:
                raise VerificationError(
                    f"{what}[{i}] = {a!r}, expected {e!r}"
                )

    @staticmethod
    def _check_equal(actual: List, expected: List, what: str) -> None:
        if len(actual) != len(expected):
            raise VerificationError(
                f"{what}: length {len(actual)} != {len(expected)}"
            )
        for i, (a, e) in enumerate(zip(actual, expected)):
            if a != e:
                raise VerificationError(
                    f"{what}[{i}] = {a!r}, expected {e!r}"
                )
