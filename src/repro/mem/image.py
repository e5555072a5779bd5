"""The simulated flat memory image.

Benchmark kernels allocate their data structures here, and every memory
instruction executed by the simulator reads or writes these words.
Keeping a single authoritative word array means atomicity properties are
*observed*, not assumed: if two simulated threads race on a word, the
simulated outcome is whatever the modeled hardware allows.

:class:`MemoryImage` provides:

* a bump allocator (``alloc`` / ``alloc_array``) with line-alignment,
* word-granularity load/store used by the memory hierarchy,
* :class:`ArrayView`, a convenience wrapper kernels use to initialize
  and read back arrays without manual address arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.errors import AllocationError, MemoryError_
from repro.mem.layout import WORD_BYTES, LineGeometry, RegionMap

__all__ = ["MemoryImage", "ArrayView", "ImageSnapshot"]

Number = Union[int, float]


@dataclass(frozen=True)
class ImageSnapshot:
    """Frozen post-``allocate`` state of a :class:`MemoryImage`.

    Produced by :meth:`MemoryImage.snapshot`, consumed by
    :meth:`MemoryImage.from_snapshot`.  ``words`` and ``regions`` are
    shared by reference — treat them as read-only (hydrated images copy
    both).
    """

    size_bytes: int
    geometry: LineGeometry
    words: Dict[int, Number]
    brk: int
    regions: RegionMap


class MemoryImage:
    """A flat, word-addressable simulated memory with a bump allocator."""

    def __init__(
        self,
        size_bytes: int = 1 << 24,
        geometry: Optional[LineGeometry] = None,
    ) -> None:
        if size_bytes <= 0 or size_bytes % WORD_BYTES:
            raise AllocationError(
                f"size_bytes must be a positive multiple of {WORD_BYTES}, "
                f"got {size_bytes}"
            )
        self.geometry = geometry or LineGeometry()
        self.size_bytes = size_bytes
        self._n_words = size_bytes // WORD_BYTES
        # Sparse storage: unwritten words read as zero.  A 16MB image
        # would otherwise cost a 4M-entry list per machine.
        self._words: Dict[int, Number] = {}
        # Leave address 0 unallocated so it can serve as a null sentinel.
        self._brk = self.geometry.line_bytes
        # Named-allocation symbolization (diagnostics only; the
        # simulated program never sees region names).
        self.regions = RegionMap()

    # -- allocation -----------------------------------------------------

    def alloc(
        self,
        nbytes: int,
        align: Optional[int] = None,
        name: Optional[str] = None,
    ) -> int:
        """Reserve ``nbytes`` and return the base byte address.

        The default alignment is one cache line, which mirrors how the
        paper's benchmarks lay out shared arrays (and keeps false
        sharing a deliberate choice rather than an allocator accident).
        A ``name`` registers the range in :attr:`regions` so contention
        reports can symbolize hot line addresses.
        """
        if nbytes <= 0:
            raise AllocationError(f"nbytes must be positive, got {nbytes}")
        align = align or self.geometry.line_bytes
        if align <= 0 or align % WORD_BYTES:
            raise AllocationError(
                f"align must be a positive multiple of {WORD_BYTES}, "
                f"got {align}"
            )
        base = self._brk + (-self._brk) % align
        end = base + nbytes
        if end > self.size_bytes:
            raise AllocationError(
                f"out of simulated memory: need {end} bytes, "
                f"have {self.size_bytes}"
            )
        self._brk = end
        if name:
            self.regions.add(name, base, nbytes)
        return base

    def alloc_words(
        self,
        nwords: int,
        align: Optional[int] = None,
        name: Optional[str] = None,
    ) -> int:
        """Reserve ``nwords`` 32-bit words and return the base address."""
        return self.alloc(nwords * WORD_BYTES, align, name=name)

    def alloc_array(
        self,
        values: Sequence[Number],
        align: Optional[int] = None,
        name: Optional[str] = None,
    ) -> "ArrayView":
        """Allocate and initialize an array, returning a view over it."""
        base = self.alloc_words(max(len(values), 1), align, name=name)
        view = ArrayView(self, base, len(values))
        for i, value in enumerate(values):
            view[i] = value
        return view

    def alloc_zeros(
        self,
        nwords: int,
        align: Optional[int] = None,
        name: Optional[str] = None,
    ) -> "ArrayView":
        """Allocate an array of ``nwords`` zero words."""
        base = self.alloc_words(nwords, align, name=name)
        return ArrayView(self, base, nwords)

    @property
    def bytes_allocated(self) -> int:
        """Current bump-pointer position (bytes handed out so far)."""
        return self._brk

    # -- snapshots (batched backend) -------------------------------------

    def snapshot(self) -> "ImageSnapshot":
        """An immutable copy of this image's contents and allocator state.

        The batched backend allocates a kernel's data once into a
        template image, snapshots it, and hydrates one private image
        per machine from the snapshot — a single bulk dict copy instead
        of re-running every ``store_word`` of ``allocate``.  Treat the
        snapshot as frozen: hydrated images copy it before mutating.
        """
        return ImageSnapshot(
            size_bytes=self.size_bytes,
            geometry=self.geometry,
            words=dict(self._words),
            brk=self._brk,
            regions=self.regions,
        )

    @classmethod
    def from_snapshot(cls, snap: "ImageSnapshot") -> "MemoryImage":
        """A fresh image hydrated from :meth:`snapshot`.

        The word store and the region map are copied: each machine
        mutates its own words, and a kernel that allocates lazily while
        running grows its own machine's region map.
        """
        image = cls(snap.size_bytes, snap.geometry)
        image._words = dict(snap.words)
        image._brk = snap.brk
        image.regions = snap.regions.copy()
        return image

    # -- word access ------------------------------------------------------

    def _word_index(self, addr: int) -> int:
        # Hot path: addr >> 2 is word_index() for a valid address; the
        # slow path re-runs the full check to raise the canonical error.
        if addr < 0 or addr & 3:
            self.geometry.check_word_aligned(addr)
        index = addr >> 2
        if index >= self._n_words:
            raise MemoryError_(
                f"address {addr:#x} beyond simulated memory "
                f"({self.size_bytes} bytes)"
            )
        return index

    def load_word(self, addr: int) -> Number:
        """Read the 32-bit word at byte address ``addr``."""
        if addr < 0 or addr & 3:
            self.geometry.check_word_aligned(addr)
        index = addr >> 2
        if index >= self._n_words:
            raise MemoryError_(
                f"address {addr:#x} beyond simulated memory "
                f"({self.size_bytes} bytes)"
            )
        return self._words.get(index, 0)

    def store_word(self, addr: int, value: Number) -> None:
        """Write the 32-bit word at byte address ``addr``."""
        if addr < 0 or addr & 3:
            self.geometry.check_word_aligned(addr)
        index = addr >> 2
        if index >= self._n_words:
            raise MemoryError_(
                f"address {addr:#x} beyond simulated memory "
                f"({self.size_bytes} bytes)"
            )
        self._words[index] = value

    def load_words(self, addr: int, count: int) -> List[Number]:
        """Read ``count`` consecutive words starting at ``addr``."""
        start = self._word_index(addr)
        if start + count > self._n_words:
            raise MemoryError_(
                f"range [{addr:#x}, +{count} words) beyond simulated memory"
            )
        words = self._words
        return [words.get(i, 0) for i in range(start, start + count)]


class ArrayView:
    """A word-array window into a :class:`MemoryImage`.

    Kernels use views to initialize inputs and to read back results for
    verification; the *simulated* program only ever sees the base
    address.
    """

    __slots__ = ("_image", "base", "length")

    def __init__(self, image: MemoryImage, base: int, length: int) -> None:
        self._image = image
        self.base = base
        self.length = length

    def addr(self, index: int) -> int:
        """Byte address of element ``index``."""
        if not 0 <= index < self.length:
            raise MemoryError_(
                f"index {index} out of range for array of {self.length}"
            )
        return self.base + index * WORD_BYTES

    def __getitem__(self, index: int) -> Number:
        if not 0 <= index < self.length:
            raise MemoryError_(
                f"index {index} out of range for array of {self.length}"
            )
        return self._image.load_word(self.base + index * WORD_BYTES)

    def __setitem__(self, index: int, value: Number) -> None:
        if not 0 <= index < self.length:
            raise MemoryError_(
                f"index {index} out of range for array of {self.length}"
            )
        self._image.store_word(self.base + index * WORD_BYTES, value)

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Number]:
        return (self[i] for i in range(self.length))

    def to_list(self) -> List[Number]:
        """Materialize the array contents."""
        return list(self)

    def fill(self, values: Iterable[Number]) -> None:
        """Overwrite the array with ``values`` (must match length)."""
        values = list(values)
        if len(values) != self.length:
            raise MemoryError_(
                f"fill length {len(values)} != array length {self.length}"
            )
        for i, value in enumerate(values):
            self[i] = value
