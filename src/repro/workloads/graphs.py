"""Graphs for the MFP and GPS benchmarks.

* MFP (maxflow push): a flow network; the kernel repeatedly pushes
  excess from a node to a neighbour, locking both endpoints — the
  paper's "multiple lock critical section" pattern.
* GPS (game physics solver): a set of constraints, each touching one
  or two objects, solved iteratively under per-object locks.  The
  paper reorders each thread's constraints into groups of independent
  constraints to avoid intra-vector aliasing (Table 2), which the
  generator reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ConfigError
from repro.workloads.interning import interned_generator
from repro.workloads.rng import Generator

__all__ = [
    "FlowNetwork",
    "flow_network",
    "ConstraintSystem",
    "constraint_system",
    "group_independent",
]


@dataclass
class FlowNetwork:
    """A directed graph with per-edge push amounts for MFP."""

    n_nodes: int
    edges: List[Tuple[int, int]]       # (u, v), u != v
    push_amounts: List[float]          # amount pushed along each edge

    @property
    def n_edges(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def excess_oracle(self, initial_excess: List[float]) -> List[float]:
        """Oracle: node excess after every push executes once."""
        excess = list(initial_excess)
        for (u, v), amount in zip(self.edges, self.push_amounts):
            excess[u] -= amount
            excess[v] += amount
        return excess


@interned_generator
def flow_network(
    n_nodes: int, n_edges: int, seed: int, locality: int = 12
) -> FlowNetwork:
    """A spatially local flow network with integer push amounts.

    Edges connect nearby node ids (graph embeddings of meshes and road
    networks do) and are sorted by source node, so a thread's
    contiguous edge range touches a contiguous node region — matching
    the paper's node-partitioned parallelization, whose cross-thread
    lock conflicts are near zero (Table 4: MFP fails ~0%).
    """
    if n_nodes < 2 or n_edges <= 0:
        raise ConfigError("need >= 2 nodes and >= 1 edge")
    if locality < 1:
        raise ConfigError(f"locality must be >= 1, got {locality}")
    rng = Generator(seed)
    edges = []
    while len(edges) < n_edges:
        u = rng.integers(0, n_nodes)
        v = u + rng.integers(-locality, locality + 1)
        if v != u and 0 <= v < n_nodes:
            edges.append((u, v))
    edges.sort()
    amounts = [float(a) for a in rng.integers(1, 5, size=n_edges)]
    return FlowNetwork(n_nodes, edges, amounts)


@dataclass
class ConstraintSystem:
    """Constraints over objects for GPS.

    Each constraint references two distinct objects and applies an
    integer impulse: +delta to the first, -delta to the second (a
    momentum-conserving toy of the paper's force solver).
    """

    n_objects: int
    constraints: List[Tuple[int, int]]
    deltas: List[float]
    iterations: int

    @property
    def n_constraints(self) -> int:
        """Number of constraints."""
        return len(self.constraints)

    def solve_oracle(self) -> List[float]:
        """Oracle: object states after ``iterations`` full sweeps."""
        state = [0.0] * self.n_objects
        for _ in range(self.iterations):
            for (a, b), delta in zip(self.constraints, self.deltas):
                state[a] += delta
                state[b] -= delta
        return state


@interned_generator
def constraint_system(
    n_objects: int,
    n_constraints: int,
    iterations: int,
    seed: int,
    locality: int = 10,
) -> ConstraintSystem:
    """Spatially local pairwise constraints with integer impulses.

    Physics constraints connect objects that touch, i.e. that are
    close in a spatial ordering; constraints are sorted by first
    object, so contiguous per-thread constraint ranges reference
    nearly disjoint object regions — the reason GPS's cross-thread
    lock contention is ~0 in the paper (Table 4).
    """
    if n_objects < 2 or n_constraints <= 0 or iterations <= 0:
        raise ConfigError("need >= 2 objects, >= 1 constraint, >= 1 iteration")
    if locality < 1:
        raise ConfigError(f"locality must be >= 1, got {locality}")
    rng = Generator(seed)
    constraints = []
    while len(constraints) < n_constraints:
        a = rng.integers(0, n_objects)
        b = a + rng.integers(-locality, locality + 1)
        if b != a and 0 <= b < n_objects:
            constraints.append((a, b))
    constraints.sort()
    deltas = [float(d) for d in rng.integers(1, 4, size=n_constraints)]
    return ConstraintSystem(n_objects, constraints, deltas, iterations)


def group_independent(
    constraints: List[Tuple[int, int]], group_size: int
) -> List[List[int]]:
    """Greedy reorder of constraint indices into independent groups.

    Within one group no two constraints share an object, so a SIMD
    batch built from a group has no lock aliasing — the preprocessing
    GPS applies per thread (Table 2: "constraints within each thread
    are reordered into groups of independent constraints").
    Groups are at most ``group_size`` long.  A pass stops at a full
    group; the constraints it did not reach wait, in order, for the
    next pass.
    """
    if group_size <= 0:
        raise ConfigError(f"group_size must be positive, got {group_size}")
    remaining = list(range(len(constraints)))
    groups: List[List[int]] = []
    while remaining:
        used_objects = set()
        group: List[int] = []
        leftovers: List[int] = []
        for pos, idx in enumerate(remaining):
            a, b = constraints[idx]
            if a in used_objects or b in used_objects:
                leftovers.append(idx)
                continue
            group.append(idx)
            used_objects.add(a)
            used_objects.add(b)
            if len(group) == group_size:
                leftovers.extend(remaining[pos + 1:])
                break
        groups.append(group)
        remaining = leftovers
    return groups
