"""The Section 5.2 microbenchmark: scenarios A-D.

A loop with a fixed number of iterations over an array of counters;
each iteration a thread atomically increments SIMD-width counters at
precomputed indices.  The counter array fits in the L1 and the caches
are warmed before measurement, exactly as the paper specifies.  The
index sequences isolate GLSC's three benefit sources:

=========  ==================================================================
Scenario A  SIMD-width *distinct lines*, shared across threads: lines are
            often dirty in another core's L1, so GLSC's win is overlapping
            the coherence misses (plus fewer instructions).
Scenario B  SIMD-width *different words on one line*, thread-private: GLSC
            wins by fewer instructions *and* one combined L1 access.
Scenario C  SIMD-width *distinct thread-private lines*, all L1 hits: GLSC
            wins by instruction count alone.
Scenario D  all lanes address the *same word*: no SIMD parallelism exists;
            GLSC serializes on aliases and can lose (the paper measures
            GLSC slower than Base here at 16-wide).
=========  ==================================================================
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigError
from repro.isa.program import ThreadCtx
from repro.kernels.common import (
    KernelBase,
    MAX_SIMD_WIDTH,
    glsc_vector_update,
    scalar_atomic_update,
)
from repro.mem.image import MemoryImage
from repro.mem.layout import LineGeometry
from repro.workloads.rng import Generator

__all__ = ["Micro", "SCENARIOS"]

SCENARIOS = ("A", "B", "C", "D")

#: Counter-array size in 32-bit words; 16 KiB, comfortably inside the
#: paper's 32 KiB L1 ("the array is chosen to be small enough to fit
#: in the L1").
COUNTER_WORDS = 4096


class Micro(KernelBase):
    """Random atomic counter increments with scenario-shaped indices."""

    name = "micro"
    title = "Section 5.2 microbenchmark"
    atomic_op = "Integer Increment"

    def __init__(
        self,
        n_threads: int,
        *,
        scenario: str,
        iterations: int = 48,
        seed: int = 97,
    ) -> None:
        super().__init__()
        if scenario not in SCENARIOS:
            raise ConfigError(
                f"scenario must be one of {SCENARIOS}, got {scenario!r}"
            )
        self.n_threads = n_threads
        self.scenario = scenario
        self.iterations = iterations
        self.seed = seed
        self._indices: List[List[int]] = []  # built lazily per width

    # -- index-sequence generation (precomputed, Section 5.2) ---------------

    def _build_indices(self, width: int) -> None:
        """Per-thread flat index streams of iterations x width words."""
        geometry = LineGeometry()
        words_per_line = geometry.words_per_line
        n_lines = COUNTER_WORDS // words_per_line
        rng = Generator(self.seed)
        self._indices = []
        per_thread_lines = max(n_lines // max(self.n_threads, 1), width)
        for tid in range(self.n_threads):
            own_first = (tid * per_thread_lines) % n_lines
            stream: List[int] = []
            for _ in range(self.iterations):
                if self.scenario == "A":
                    lines = rng.choice(n_lines, width, replace=False)
                    stream.extend(
                        line * words_per_line
                        + rng.integers(0, words_per_line)
                        for line in lines
                    )
                elif self.scenario == "B":
                    line = own_first + rng.integers(0, per_thread_lines)
                    line %= n_lines
                    words = rng.choice(
                        words_per_line, min(width, words_per_line),
                        replace=False,
                    )
                    picks = [line * words_per_line + w for w in words]
                    # If the SIMD width exceeds the words in a line the
                    # scenario degenerates to some aliasing (unavoidable).
                    while len(picks) < width:
                        picks.append(picks[0])
                    stream.extend(picks)
                elif self.scenario == "C":
                    offsets = rng.choice(
                        per_thread_lines, min(width, per_thread_lines),
                        replace=False,
                    )
                    stream.extend(
                        ((own_first + o) % n_lines) * words_per_line
                        + rng.integers(0, words_per_line)
                        for o in offsets
                    )
                else:  # D: every lane the same word
                    line = own_first + rng.integers(0, per_thread_lines)
                    line %= n_lines
                    word = line * words_per_line + rng.integers(
                        0, words_per_line
                    )
                    stream.extend([word] * width)
            self._indices.append(stream)

    def allocate(self, image: MemoryImage) -> None:
        self._mark_allocated()
        self.m_counters = image.alloc_zeros(COUNTER_WORDS,
                                            name="micro.counters")
        self._m_index_arrays = None
        self._image = image

    def _index_array_for(self, ctx: ThreadCtx):
        """Materialize the precomputed index streams on first use."""
        if self._m_index_arrays is None:
            self._build_indices(ctx.w)
            self._m_index_arrays = [
                self._image.alloc_array(stream + [0] * MAX_SIMD_WIDTH,
                                        name=f"micro.indices[{tid}]")
                for tid, stream in enumerate(self._indices)
            ]
        return self._m_index_arrays[ctx.tid]

    # -- variants ------------------------------------------------------------

    def base_program(self, ctx: ThreadCtx):
        self._require_allocated()
        index_array = self._index_array_for(ctx)
        for it in range(self.iterations):
            idx_vec = yield ctx.vload(index_array.addr(it * ctx.w))
            for lane in range(ctx.w):
                yield from scalar_atomic_update(
                    ctx,
                    self.m_counters.addr(int(idx_vec[lane])),
                    lambda old: old + 1,
                )
            yield ctx.alu(1)  # loop bookkeeping

    def glsc_program(self, ctx: ThreadCtx):
        self._require_allocated()
        index_array = self._index_array_for(ctx)
        for it in range(self.iterations):
            idx_vec = yield ctx.vload(index_array.addr(it * ctx.w))
            yield from glsc_vector_update(
                ctx,
                self.m_counters.base,
                [int(i) for i in idx_vec],
                lambda vals, got: tuple(
                    v + 1 if got.lane(k) else v for k, v in enumerate(vals)
                ),
            )
            yield ctx.alu(1)  # loop bookkeeping

    def verify(self) -> None:
        self._require_allocated()
        total = sum(int(v) for v in self.m_counters.to_list())
        expected = 0
        for stream in self._indices:
            expected += len(stream)
        if self._m_index_arrays is None:
            raise ConfigError("microbenchmark never ran")
        if total != expected:
            from repro.errors import VerificationError

            raise VerificationError(
                f"counter total {total} != expected increments {expected}"
            )
