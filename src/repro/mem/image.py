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

from typing import Iterator, List, Optional, Sequence, Union

from repro.errors import AllocationError, MemoryError_
from repro.mem.layout import WORD_BYTES, LineGeometry, RegionMap

__all__ = ["MemoryImage", "ArrayView"]

Number = Union[int, float]


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
        # Dense storage of word indices [0, len(_words)), which covers
        # every allocated word (allocation is a bump from address 0).
        # Words past the end read as zero, and a store past it grows
        # the list; a 16MB image never costs a 4M-entry list up front.
        self._words: List[Number] = []
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
        # Cover the new range with zero words, so that initializing or
        # running over allocated memory never takes the growth path.
        words = self._words
        words.extend([0] * (-(-end // WORD_BYTES) - len(words)))
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
        # ``alloc`` already covered the range with words: one slice
        # store writes them all.
        first = base >> 2
        self._words[first:first + len(values)] = values
        return ArrayView(self, base, len(values))

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
        try:
            return self._words[index]
        except IndexError:
            return 0

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
        try:
            self._words[index] = value
        except IndexError:
            words = self._words
            words.extend([0] * (index - len(words)))
            words.append(value)

    def load_words(self, addr: int, count: int) -> List[Number]:
        """Read ``count`` consecutive words starting at ``addr``."""
        start = self._word_index(addr)
        if start + count > self._n_words:
            raise MemoryError_(
                f"range [{addr:#x}, +{count} words) beyond simulated memory"
            )
        words = self._words[start:start + count]
        if len(words) < count:
            words.extend([0] * (count - len(words)))
        return words


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
        return iter(self.to_list())

    def to_list(self) -> List[Number]:
        """Materialize the array contents (one slice of the image)."""
        return self._image.load_words(self.base, self.length)
