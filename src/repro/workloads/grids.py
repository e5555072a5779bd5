"""Grid scenes for the GBC and SMC benchmarks.

* GBC (grid-based collision detection): objects mapped to cells of a
  multi-resolution collision grid, inserted into per-cell linked
  lists under per-cell locks.  Collision scenes are *spatially
  coherent*: a broad-phase sweep visits objects in spatial order, so
  consecutive objects — the lanes of one SIMD group — often land in
  the same cell.  That intra-vector aliasing is what produces GBC's
  ~31-34% GLSC element failure rate (Table 4), while different
  threads sweep different regions, so cross-thread conflicts stay
  near zero — the generator reproduces both properties with a
  run-length model over spatially sorted cells.
* SMC (marching cubes): particles in a uniform 3D grid of nodes; each
  particle atomically adds a density contribution to the 8 corner
  nodes of its cell.  Particles are partitioned into z-slabs (the
  natural fluid-sim decomposition), so threads touch disjoint node
  regions and, as in the paper, failures stay ~0%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ConfigError
from repro.workloads.interning import interned_generator
from repro.workloads.rng import Generator

__all__ = ["CollisionScene", "collision_scene", "ParticleField", "particle_field"]


@dataclass
class CollisionScene:
    """Objects assigned to grid cells for GBC.

    An object straddling a cell boundary is inserted into *each* cell
    it overlaps ("maps each object into (potentially multiple) grid
    cells", Table 2), so the work list is a flat sequence of
    (object, cell) *insertions*.
    """

    n_cells: int
    n_objects: int
    insertions: List[Tuple[int, int]]  # (object id, cell id)

    @property
    def n_insertions(self) -> int:
        """Number of linked-list insertions to perform."""
        return len(self.insertions)

    @property
    def object_cells(self) -> List[int]:
        """Primary cell per object (first insertion), for diagnostics."""
        first: List[int] = [-1] * self.n_objects
        for obj, cell in self.insertions:
            if first[obj] < 0:
                first[obj] = cell
        return first

    def cell_histogram(self) -> List[int]:
        """Oracle: number of insertions ending up in each cell."""
        counts = [0] * self.n_cells
        for _, cell in self.insertions:
            counts[cell] += 1
        return counts


@interned_generator
def collision_scene(
    n_objects: int,
    n_cells: int,
    run_mean: float,
    seed: int,
    straddle_fraction: float = 0.25,
) -> CollisionScene:
    """Generate a spatially coherent scene.

    Objects come in *runs* of geometric mean length ``run_mean`` that
    share a grid cell (a pile of nearby objects); runs are laid out in
    cell order, as a spatial broad-phase sweep would visit them.  A
    SIMD group of consecutive insertions then aliases at a rate set by
    ``run_mean`` (1.0 = no aliasing), while the contiguous per-thread
    insertion ranges cover nearly disjoint cell ranges.

    ``straddle_fraction`` of the objects overlap a cell boundary and
    are inserted into the neighbouring cell as well (Table 2's
    "potentially multiple grid cells").
    """
    if n_objects <= 0 or n_cells <= 0:
        raise ConfigError("n_objects and n_cells must be positive")
    if run_mean < 1:
        raise ConfigError(f"run_mean must be >= 1, got {run_mean}")
    if not 0 <= straddle_fraction <= 1:
        raise ConfigError(
            f"straddle_fraction must be in [0, 1], got {straddle_fraction}"
        )
    rng = Generator(seed)
    runs = []
    remaining = n_objects
    while remaining > 0:
        length = rng.geometric(1.0 / run_mean) if run_mean > 1 else 1
        length = max(1, min(length, remaining))
        runs.append((rng.integers(0, n_cells), length))
        remaining -= length
    runs.sort()  # spatial sweep order
    insertions: List[Tuple[int, int]] = []
    obj = 0
    for cell, length in runs:
        for _ in range(length):
            insertions.append((obj, cell))
            if rng.random() < straddle_fraction:
                insertions.append((obj, (cell + 1) % n_cells))
            obj += 1
    return CollisionScene(n_cells, n_objects, insertions)


@dataclass
class ParticleField:
    """Particles in a ``dim^3`` grid of nodes for SMC."""

    dim: int
    # Per particle: the 8 node indices of its cell corners and the
    # density weight it deposits on each.
    corner_nodes: List[Tuple[int, ...]]
    weights: List[float]

    @property
    def n_particles(self) -> int:
        """Number of particles."""
        return len(self.corner_nodes)

    @property
    def n_nodes(self) -> int:
        """Number of grid nodes."""
        return self.dim ** 3

    def density_oracle(self) -> List[float]:
        """Oracle: final node densities after all deposits."""
        density = [0.0] * self.n_nodes
        for corners, weight in zip(self.corner_nodes, self.weights):
            for node in corners:
                density[node] += weight
        return density


@interned_generator
def particle_field(n_particles: int, dim: int, seed: int) -> ParticleField:
    """Generate near-uniform particles in a ``dim^3`` node grid.

    Each particle sits in a cell ``(x, y, z)`` with ``0 <= x,y,z <
    dim-1`` and touches that cell's 8 corner nodes.  Particles are
    ordered by z-slab (threads taking contiguous particle ranges thus
    own disjoint slabs of the grid), but left unsorted within a slab
    so SIMD groups rarely alias.  Weights are quarter-integers so the
    parallel-reduction oracle comparison is exact.
    """
    if dim < 2:
        raise ConfigError(f"dim must be >= 2, got {dim}")
    if n_particles <= 0:
        raise ConfigError("n_particles must be positive")
    rng = Generator(seed)
    cells = [rng.integers(0, dim - 1, size=3) for _ in range(n_particles)]
    cells.sort(key=lambda cell: cell[2])  # stable: z-slabs keep draw order
    corner_nodes = []
    for x, y, z in cells:
        corners = tuple(
            (x + dx) + dim * ((y + dy) + dim * (z + dz))
            for dz in (0, 1)
            for dy in (0, 1)
            for dx in (0, 1)
        )
        corner_nodes.append(corners)
    weights = [v * 0.25 for v in rng.integers(1, 5, size=n_particles)]
    return ParticleField(dim, corner_nodes, weights)
