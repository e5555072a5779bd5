"""FS — Forward (sparse lower-) Triangular Solve.

Paper (Table 2): solves ``L x = y`` for a sparse lower-triangular
system arising in a direct solver.  The matrix is divided into dense
subblocks; thread-level parallelism follows a block dependence graph,
SIMD runs inside each subblock's dense matrix-vector work, and the
partial products are reduced into the shared right-hand side with
*atomic floating-point subtractions* (Table 3: "Floating-point
Subtract").

Schedule: block columns are processed in dependence levels.  Within a
level each thread (a) solves its share of the level's diagonal blocks
by forward substitution and publishes the new ``x`` entries, then
after a barrier (b) computes its share of the off-diagonal block
contributions ``L[i,j] @ x[j]`` and subtracts them from ``y[i]``
atomically — Base with scalar ll/sc per element, GLSC with the
Figure 3A loop over the row-index vector.  Two blocks in the same
level that target the same row block contend on those ``y`` words,
which is where GLSC's overlap pays.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.isa.program import ThreadCtx
from repro.kernels.common import (
    KernelBase,
    glsc_vector_update,
    scalar_atomic_update,
)
from repro.mem.image import MemoryImage
from repro.workloads.sparse import block_triangular, forward_substitute

__all__ = ["Fs"]


class Fs(KernelBase):
    """Level-scheduled block triangular solve with atomic reductions."""

    name = "fs"
    title = "Forward Triangular Solve"
    atomic_op = "Floating-point Subtract"

    def __init__(
        self,
        n_threads: int,
        *,
        n_blocks: int,
        block: int,
        fill: float,
        seed: int,
    ) -> None:
        super().__init__()
        self.n_threads = n_threads
        self.system = block_triangular(n_blocks, block, fill, seed)
        self.schedule = self.system.level_schedule()
        # Contribution blocks grouped by the level at which they run.
        self._level_blocks: List[List[Tuple[int, int]]] = [
            sorted(
                (i, j)
                for (i, j) in self.system.off_blocks
                if self.system.levels[j] == level
            )
            for level in range(len(self.schedule))
        ]

    def allocate(self, image: MemoryImage) -> None:
        self._mark_allocated()
        system = self.system
        block = system.block
        self.m_y = image.alloc_array(list(system.rhs), name="fs.y")
        self.m_x = image.alloc_zeros(system.n, name="fs.x")
        self.m_diag = [
            image.alloc_array(
                [v for row in system.diag[j] for v in row],
                name=f"fs.diag[{j}]",
            )
            for j in range(system.n_blocks)
        ]
        self.m_off: Dict[Tuple[int, int], object] = {
            key: image.alloc_array(
                [v for row in blk for v in row],
                name=f"fs.off[{key[0]},{key[1]}]",
            )
            for key, blk in sorted(system.off_blocks.items())
        }

    # -- pieces shared by both variants ----------------------------------

    def _solve_diag(self, ctx: ThreadCtx, j: int):
        """Forward-substitute block column ``j`` and publish x."""
        block = self.system.block
        lo = j * block
        rhs = []
        for off in range(0, block, ctx.w):
            vals = yield ctx.vload(self.m_y.addr(lo + off))
            rhs.extend(vals[: min(ctx.w, block - off)])
        lower = self.system.diag[j]
        for r in range(block):
            # One row of substitution: load the row, one fused
            # multiply-accumulate chain, one divide.
            for off in range(0, r + 1, ctx.w):
                yield ctx.vload(self.m_diag[j].addr(r * block + off))
            yield ctx.valu(lambda: None, count=max(1, (r + 1) // max(ctx.w, 1)))
        xs = forward_substitute(lower, rhs)
        for off in range(0, block, ctx.w):
            chunk_vals = list(xs[off : off + ctx.w])
            chunk_vals += [0.0] * (ctx.w - len(chunk_vals))
            yield ctx.vstore(
                self.m_x.addr(lo + off),
                chunk_vals,
                ctx.prefix_mask(min(ctx.w, block - off)),
            )
        yield ctx.alu(1)  # loop bookkeeping

    def _block_contribution(self, ctx: ThreadCtx, i: int, j: int):
        """Compute c = L[i,j] @ x[j]; returns (row indices, c values)."""
        block = self.system.block
        xs = []
        for off in range(0, block, ctx.w):
            vals = yield ctx.vload(self.m_x.addr(j * block + off))
            xs.extend(vals[: min(ctx.w, block - off)])
        matrix = self.system.off_blocks[(i, j)]
        contribution = []
        for r in range(block):
            for off in range(0, block, ctx.w):
                yield ctx.vload(self.m_off[(i, j)].addr(r * block + off))
            yield ctx.valu(lambda: None, count=max(1, block // max(ctx.w, 1)))
            contribution.append(
                sum(matrix[r][k] * xs[k] for k in range(block))
            )
        rows = [i * block + r for r in range(block)]
        return rows, contribution

    # -- variants -----------------------------------------------------------

    def base_program(self, ctx: ThreadCtx):
        self._require_allocated()
        for level, cols in enumerate(self.schedule):
            for j in cols[ctx.tid :: ctx.n_threads]:
                yield from self._solve_diag(ctx, j)
            yield ctx.barrier()
            blocks = self._level_blocks[level]
            for (i, j) in blocks[ctx.tid :: ctx.n_threads]:
                rows, contribution = yield from self._block_contribution(
                    ctx, i, j
                )
                for r, c in zip(rows, contribution):
                    yield from scalar_atomic_update(
                        ctx, self.m_y.addr(r), lambda old, c=c: old - c
                    )
                yield ctx.alu(1)  # loop bookkeeping
            yield ctx.barrier()

    def glsc_program(self, ctx: ThreadCtx):
        self._require_allocated()
        for level, cols in enumerate(self.schedule):
            for j in cols[ctx.tid :: ctx.n_threads]:
                yield from self._solve_diag(ctx, j)
            yield ctx.barrier()
            blocks = self._level_blocks[level]
            for (i, j) in blocks[ctx.tid :: ctx.n_threads]:
                rows, contribution = yield from self._block_contribution(
                    ctx, i, j
                )
                for off in range(0, len(rows), ctx.w):
                    idx = rows[off : off + ctx.w]
                    vals = contribution[off : off + ctx.w]
                    mask = ctx.prefix_mask(len(idx))
                    idx += [idx[-1]] * (ctx.w - len(idx))
                    vals += [0.0] * (ctx.w - len(vals))
                    yield from glsc_vector_update(
                        ctx,
                        self.m_y.base,
                        idx,
                        lambda gathered, got, v=vals: tuple(
                            g - v[k] if got.lane(k) else g
                            for k, g in enumerate(gathered)
                        ),
                        todo=mask,
                    )
                yield ctx.alu(1)  # loop bookkeeping
            yield ctx.barrier()

    def verify(self) -> None:
        self._require_allocated()
        expected = self.system.solve_oracle()
        actual = [self.m_x[i] for i in range(self.system.n)]
        # Substitution chains through many levels outgrow exact float64
        # dyadics, so FS verifies with a tolerance far below the size
        # of any single atomic contribution.
        self._check_close(actual, expected, "x")
