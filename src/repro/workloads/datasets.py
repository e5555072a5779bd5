"""Named dataset profiles for the seven RMS benchmarks.

The paper evaluates each benchmark on two datasets, A and B (Table 3).
The originals are proprietary (photographs, game scenes, sparse
matrices from a direct solver), so each profile here is a *synthetic*
dataset whose contention-relevant statistics — alias rate per SIMD
group, objects-per-cell clustering, sparsity — are tuned to land in
the regime Table 3/Table 4 report, while sizes are scaled down so the
pure-Python simulator finishes in seconds per run.  A ``tiny`` profile
per benchmark keeps unit tests fast.

Use :func:`dataset_params` to get the generator keyword arguments for
a (kernel, dataset) pair, and :data:`TABLE3_ROWS` for the Table 3
reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.errors import ConfigError

__all__ = ["DatasetSpec", "dataset_params", "TABLE3_ROWS"]


@dataclass(frozen=True)
class DatasetSpec:
    """One benchmark dataset: generator parameters + description."""

    kernel: str
    name: str
    params: Dict[str, Any]
    description: str
    paper_description: str


_SPECS: Dict[Tuple[str, str], DatasetSpec] = {}


def _register(spec: DatasetSpec) -> None:
    _SPECS[(spec.kernel, spec.name)] = spec


# -- HIP: histogram of image colors ------------------------------------------
# Paper: 480x480 car image (35% failure rate) and people image (20%).
# The coherence knob (spatial color runs) sets the alias regime at
# 4-wide SIMD.
_register(DatasetSpec(
    "hip", "A",
    dict(n_pixels=4096, n_bins=64, coherence=0.42, skew=1.2, seed=11),
    "4096 pixels, 64 bins, strong spatial color runs (car-image regime)",
    "480x480 image of cars",
))
_register(DatasetSpec(
    "hip", "B",
    dict(n_pixels=4096, n_bins=96, coherence=0.24, skew=1.0, seed=12),
    "4096 pixels, 96 bins, moderate color runs (people-image regime)",
    "480x480 image of people",
))
_register(DatasetSpec(
    "hip", "random",
    dict(n_pixels=4096, n_bins=64, coherence=0.0, skew=0.0, seed=13),
    "4096 uniformly random pixels (the paper's low-alias control)",
    "input composed of random numbers (Section 5.1)",
))
_register(DatasetSpec(
    "hip", "tiny",
    dict(n_pixels=256, n_bins=16, coherence=0.2, skew=0.5, seed=14),
    "unit-test image",
    "-",
))

# -- TMS: transpose sparse matrix-vector multiply -----------------------------
# y spans many cache lines (64KB / 128KB) like the paper's 67k/41k
# element vectors; the band keeps thread row-ranges reducing into
# nearly disjoint y regions.
_register(DatasetSpec(
    "tms", "A",
    dict(rows=512, cols=16384, density=0.00018, band=400.0, seed=21),
    "512x16384 banded sparse matrix, ~1500 nonzeros (64KB y vector)",
    "21616x67841 with 0.87% density",
))
_register(DatasetSpec(
    "tms", "B",
    dict(rows=1024, cols=32768, density=0.00005, band=700.0, seed=22),
    "1024x32768 banded sparse matrix, ~1700 nonzeros (128KB y vector)",
    "209614x41177 with 0.01% density",
))
_register(DatasetSpec(
    "tms", "tiny",
    dict(rows=16, cols=64, density=0.04, band=None, seed=23),
    "unit-test matrix",
    "-",
))

# -- FS: forward triangular solve ---------------------------------------------
# Enough block rows that two same-level blocks rarely target the same
# row block; the off-diagonal block data streams past the L1.
_register(DatasetSpec(
    "fs", "A",
    dict(n_blocks=32, block=8, fill=0.22, seed=31),
    "32 block rows of 8 unknowns, 22% block fill (~110 dense subblocks)",
    "2171x5167 with 2.47% density",
))
_register(DatasetSpec(
    "fs", "B",
    dict(n_blocks=40, block=8, fill=0.3, seed=32),
    "40 block rows of 8 unknowns, 30% block fill (~230 dense subblocks)",
    "3136x9408 with 15.06% density",
))
_register(DatasetSpec(
    "fs", "tiny",
    dict(n_blocks=4, block=4, fill=0.5, seed=33),
    "unit-test system",
    "-",
))

# -- GPS: game physics constraint solver ---------------------------------------
# Paper-sized object counts; constraints are spatially local, so the
# per-thread constraint blocks touch nearly disjoint object ranges.
_register(DatasetSpec(
    "gps", "A",
    dict(n_objects=625, n_constraints=1100, iterations=2, locality=20,
         seed=41),
    "625 objects, 1100 local constraints, 2 solver sweeps",
    "625 objects",
))
_register(DatasetSpec(
    "gps", "B",
    dict(n_objects=1600, n_constraints=2800, iterations=2, locality=20,
         seed=42),
    "1600 objects, 2800 local constraints, 2 solver sweeps",
    "1600 objects",
))
_register(DatasetSpec(
    "gps", "tiny",
    dict(n_objects=16, n_constraints=24, iterations=1, locality=4, seed=43),
    "unit-test constraint set",
    "-",
))

# -- SMC: surface extraction (marching cubes density deposit) ----------------
# Node grids at or beyond L1 size; particles are z-slab partitioned.
_register(DatasetSpec(
    "smc", "A",
    dict(n_particles=768, dim=16, seed=51),
    "768 particles in a 16^3 node grid (16KB density field)",
    "32K particles",
))
_register(DatasetSpec(
    "smc", "B",
    dict(n_particles=1024, dim=24, seed=52),
    "1024 particles in a 24^3 node grid (55KB density field)",
    "256K particles",
))
_register(DatasetSpec(
    "smc", "tiny",
    dict(n_particles=48, dim=4, seed=53),
    "unit-test particle field",
    "-",
))

# -- GBC: grid-based collision detection ----------------------------------------
# Paper-exact object/cell counts for A; run lengths reproduce the
# ~31-34% intra-vector alias failure rate.
_register(DatasetSpec(
    "gbc", "A",
    dict(n_objects=649, n_cells=8191, run_mean=2.3, seed=61),
    "649 objects in 8191 cells, spatially coherent runs (paper-exact sizes)",
    "649 objects in 8191 grid cells",
))
_register(DatasetSpec(
    "gbc", "B",
    dict(n_objects=2800, n_cells=32768, run_mean=2.6, seed=62),
    "2800 objects in 32768 cells, spatially coherent runs (half-scale)",
    "5649 objects in 65521 grid cells",
))
_register(DatasetSpec(
    "gbc", "tiny",
    dict(n_objects=64, n_cells=64, run_mean=1.5, seed=63),
    "unit-test scene",
    "-",
))

# -- MFP: maxflow push ----------------------------------------------------------
# Paper-sized node counts, edge counts halved for simulation time;
# edges are local and source-sorted so thread partitions are disjoint.
_register(DatasetSpec(
    "mfp", "A",
    dict(n_nodes=1500, n_edges=3400, locality=12, seed=71),
    "1500-node local flow network, 3400 push edges",
    "1500 nodes and 6800 edges",
))
_register(DatasetSpec(
    "mfp", "B",
    dict(n_nodes=3888, n_edges=9126, locality=12, seed=72),
    "3888-node local flow network, 9126 push edges (half-scale)",
    "3888 nodes and 18252 edges",
))
_register(DatasetSpec(
    "mfp", "tiny",
    dict(n_nodes=16, n_edges=28, locality=4, seed=73),
    "unit-test network",
    "-",
))


def dataset_params(kernel: str, name: str) -> Dict[str, Any]:
    """Generator keyword args for (kernel, dataset-name)."""
    try:
        return dict(_SPECS[(kernel, name)].params)
    except KeyError:
        raise ConfigError(
            f"no dataset {name!r} for kernel {kernel!r}; known: "
            f"{sorted(n for k, n in _SPECS if k == kernel)}"
        ) from None


#: (kernel, dataset) -> (our description, paper's description), the
#: content of the Table 3 reproduction.
TABLE3_ROWS = {
    (spec.kernel, spec.name): (spec.description, spec.paper_description)
    for spec in _SPECS.values()
    if spec.name in ("A", "B")
}
