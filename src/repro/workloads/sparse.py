"""Sparse matrices for the FS and TMS benchmarks.

* TMS (transpose sparse matrix-vector multiply) needs a rectangular
  sparse matrix as a flat nonzero list: threads split nonzeros evenly
  and reduce ``A[i,j] * x[i]`` into ``y[j]`` atomically.
* FS (forward triangular solve) needs a block lower-triangular matrix
  with a block dependence graph; subblocks are dense, solved in level
  order, with atomic floating-point subtractions into the shared
  right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.workloads.interning import interned_generator
from repro.workloads.rng import Generator

__all__ = [
    "SparseMatrix",
    "random_sparse",
    "BlockTriangular",
    "block_triangular",
    "forward_substitute",
]


def forward_substitute(lower, rhs) -> List[float]:
    """Solve ``lower @ x = rhs`` for a unit-diagonal lower triangle.

    Plain left-to-right substitution; with the dyadic-rational values
    this package generates, every intermediate is exactly representable
    in float64, so kernel and oracle agree bit-for-bit.
    """
    n = len(rhs)
    x = [0.0] * n
    for r in range(n):
        acc = rhs[r]
        for k in range(r):
            acc -= lower[r][k] * x[k]
        x[r] = acc / lower[r][r]
    return x


@dataclass
class SparseMatrix:
    """A rectangular sparse matrix as a flat COO nonzero list."""

    rows: int
    cols: int
    nonzeros: List[Tuple[int, int, float]]  # (row, col, value)

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return len(self.nonzeros)

    @property
    def density(self) -> float:
        """Fraction of entries stored."""
        return self.nnz / (self.rows * self.cols)

    def transpose_matvec(self, x: List[float]) -> List[float]:
        """Oracle: ``y = A^T x`` computed directly."""
        y = [0.0] * self.cols
        for row, col, value in self.nonzeros:
            y[col] += value * x[row]
        return y


@interned_generator
def random_sparse(
    rows: int,
    cols: int,
    density: float,
    seed: int,
    band: Optional[float] = None,
) -> SparseMatrix:
    """A random sparse matrix with ~``density`` fill.

    With ``band`` set, column positions concentrate around the row's
    diagonal position with that standard deviation (in columns) — the
    banded structure typical of matrices from meshes and solvers, and
    the reason two *threads* (processing distant row ranges) rarely
    reduce into the same ``y`` entries (Table 4: TMS fails ~0%).
    ``band=None`` gives uniformly random columns.

    Values are small dyadic rationals so the oracle comparison is
    exact regardless of reduction order.
    """
    if rows <= 0 or cols <= 0:
        raise ConfigError("rows and cols must be positive")
    if not 0 < density <= 1:
        raise ConfigError(f"density must be in (0, 1], got {density}")
    rng = Generator(seed)
    nnz = max(1, min(int(round(rows * cols * density)), rows * cols))
    positions = set()
    while len(positions) < nnz:
        row = rng.integers(0, rows)
        if band is None:
            col = rng.integers(0, cols)
        else:
            center = row * cols / rows
            col = round(rng.normal(center, band))
            if not 0 <= col < cols:
                continue
        positions.add((row, col))
    values = rng.integers(1, 8, size=len(positions))
    nonzeros = [
        (row, col, v * 0.5)
        for (row, col), v in zip(sorted(positions), values)
    ]
    return SparseMatrix(rows, cols, nonzeros)


@dataclass
class BlockTriangular:
    """A block lower-triangular system ``L x = b`` for FS.

    ``n_blocks`` square dense blocks of size ``block`` on the diagonal;
    off-diagonal block (i, j), i > j, is present with the dependence
    pattern in ``off_blocks``.  ``levels[j]`` is the wavefront at which
    block-column j's unknowns can be solved.
    """

    block: int
    n_blocks: int
    diag: List[List[List[float]]]          # diagonal blocks (unit-ish)
    off_blocks: Dict[Tuple[int, int], List[List[float]]]  # (i, j) -> dense block
    rhs: List[float]
    levels: List[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        """Total number of unknowns."""
        return self.block * self.n_blocks

    def level_schedule(self) -> List[List[int]]:
        """Block columns grouped by solve wavefront."""
        n_levels = max(self.levels) + 1 if self.levels else 0
        schedule: List[List[int]] = [[] for _ in range(n_levels)]
        for j, level in enumerate(self.levels):
            schedule[level].append(j)
        return schedule

    def solve_oracle(self) -> List[float]:
        """Direct forward solve, for verification.

        Uses :func:`forward_substitute` — the same exact dyadic
        arithmetic the kernel performs — so simulated results compare
        with ``==``, not a tolerance.
        """
        x = [0.0] * self.n
        b = list(self.rhs)
        for j in range(self.n_blocks):
            lo = j * self.block
            xs = forward_substitute(self.diag[j], b[lo : lo + self.block])
            x[lo : lo + self.block] = xs
            for (i, jj), blk in sorted(self.off_blocks.items()):
                if jj == j:
                    ilo = i * self.block
                    for r in range(self.block):
                        contribution = sum(
                            blk[r][k] * xs[k] for k in range(self.block)
                        )
                        b[ilo + r] -= contribution
        return x


@interned_generator
def block_triangular(
    n_blocks: int, block: int, fill: float, seed: int
) -> BlockTriangular:
    """Generate a well-conditioned block lower-triangular system.

    Diagonal blocks are identity plus small lower-triangular noise, so
    the solve is stable and the oracle comparison is tight.  Values are
    quarter-integers so parallel reduction order cannot perturb the
    result.
    """
    if n_blocks <= 0 or block <= 0:
        raise ConfigError("n_blocks and block must be positive")
    if not 0 <= fill <= 1:
        raise ConfigError(f"fill must be in [0, 1], got {fill}")
    rng = Generator(seed)
    diag = []
    for _ in range(n_blocks):
        # Draw a full block of noise, keep its strict lower triangle.
        noise = [rng.integers(0, 3, size=block) for _ in range(block)]
        diag.append([
            [1.0 if c == r else row[c] * 0.25 if c < r else 0.0
             for c in range(block)]
            for r, row in enumerate(noise)
        ])
    off_blocks: Dict[Tuple[int, int], List[List[float]]] = {}
    for i in range(1, n_blocks):
        for j in range(i):
            if rng.random() < fill:
                off_blocks[(i, j)] = [
                    [v * 0.25 for v in rng.integers(0, 4, size=block)]
                    for _ in range(block)
                ]
    rhs = [v * 0.5 for v in rng.integers(1, 9, size=n_blocks * block)]
    levels = [0] * n_blocks
    for j in range(n_blocks):
        deps = [k for (i, k) in off_blocks if i == j]
        levels[j] = 1 + max((levels[k] for k in deps), default=-1)
    return BlockTriangular(block, n_blocks, diag, off_blocks, rhs, levels)
