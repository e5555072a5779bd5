"""Unit tests for grid (GBC/SMC) and graph (GPS/MFP) workloads."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.kernels.common import MAX_SIMD_WIDTH, chunk
from repro.workloads.datasets import dataset_params
from repro.workloads.graphs import (
    constraint_system,
    flow_network,
    group_independent,
)
from repro.workloads.grids import collision_scene, particle_field


def rescan_group_independent(constraints, group_size):
    """Reference reorder: every pass rescans all remaining constraints."""
    remaining = list(range(len(constraints)))
    groups = []
    while remaining:
        used_objects = set()
        group = []
        leftovers = []
        for idx in remaining:
            a, b = constraints[idx]
            if (len(group) < group_size and a not in used_objects
                    and b not in used_objects):
                group.append(idx)
                used_objects.add(a)
                used_objects.add(b)
            else:
                leftovers.append(idx)
        groups.append(group)
        remaining = leftovers
    return groups


def dataset_a_thread_lists(n_threads):
    """The per-thread constraint lists GPS and MFP reorder on dataset A."""
    system = constraint_system(**dataset_params("gps", "A"))
    network = flow_network(**dataset_params("mfp", "A"))
    lists = []
    for items in (system.constraints, network.edges):
        for tid in range(n_threads):
            lo, hi = chunk(len(items), n_threads, tid)
            lists.append(items[lo:hi])
    return lists


class TestCollisionScene:
    def test_shape(self):
        scene = collision_scene(100, 64, run_mean=2.0, seed=1)
        assert scene.n_objects == 100
        assert scene.n_insertions >= 100
        assert all(0 <= c < 64 for _, c in scene.insertions)
        assert all(0 <= o < 100 for o, _ in scene.insertions)

    def test_straddle_fraction_adds_insertions(self):
        none = collision_scene(400, 512, 1.5, seed=9, straddle_fraction=0.0)
        some = collision_scene(400, 512, 1.5, seed=9, straddle_fraction=0.5)
        assert none.n_insertions == 400
        assert some.n_insertions > 500

    def test_straddled_object_gets_adjacent_cells(self):
        scene = collision_scene(200, 64, 1.0, seed=10, straddle_fraction=1.0)
        by_object = {}
        for obj, cell in scene.insertions:
            by_object.setdefault(obj, []).append(cell)
        for cells in by_object.values():
            assert len(cells) == 2
            assert cells[1] == (cells[0] + 1) % 64

    def test_runs_create_adjacent_aliases(self):
        scene = collision_scene(2000, 4096, run_mean=3.0, seed=2)
        repeats = sum(
            1
            for a, b in zip(scene.object_cells, scene.object_cells[1:])
            if a == b
        )
        assert repeats > 400  # long runs survive the spatial sort

    def test_run_mean_one_is_low_alias(self):
        # Sparse occupancy: with unit runs, adjacency comes only from
        # birthday collisions made adjacent by the spatial sort.
        scene = collision_scene(200, 4096, run_mean=1.0, seed=3)
        repeats = sum(
            1
            for a, b in zip(scene.object_cells, scene.object_cells[1:])
            if a == b
        )
        assert repeats < 20

    def test_cells_are_sorted(self):
        scene = collision_scene(500, 1024, run_mean=2.0, seed=4)
        # Spatial sweep: cell ids are non-decreasing run by run.
        assert scene.object_cells == sorted(scene.object_cells)

    def test_histogram_oracle(self):
        scene = collision_scene(50, 16, run_mean=1.5, seed=5)
        assert sum(scene.cell_histogram()) == scene.n_insertions

    def test_validation(self):
        with pytest.raises(ConfigError):
            collision_scene(0, 16, 1.5, 1)
        with pytest.raises(ConfigError):
            collision_scene(16, 16, 0.5, 1)


class TestParticleField:
    def test_shape(self):
        field = particle_field(100, 8, seed=1)
        assert field.n_particles == 100
        assert field.n_nodes == 512
        assert all(len(c) == 8 for c in field.corner_nodes)

    def test_corner_indices_valid(self):
        field = particle_field(200, 6, seed=2)
        for corners in field.corner_nodes:
            assert all(0 <= n < field.n_nodes for n in corners)
            assert len(set(corners)) == 8  # a cell's corners are distinct

    def test_z_slab_ordering(self):
        field = particle_field(300, 8, seed=3)
        z_of = [corners[0] // (8 * 8) for corners in field.corner_nodes]
        assert z_of == sorted(z_of)

    def test_density_oracle_mass(self):
        field = particle_field(50, 5, seed=4)
        assert sum(field.density_oracle()) == pytest.approx(
            8 * sum(field.weights)
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            particle_field(10, 1, 1)
        with pytest.raises(ConfigError):
            particle_field(0, 4, 1)


class TestFlowNetwork:
    def test_shape_and_locality(self):
        net = flow_network(200, 500, seed=1, locality=8)
        assert net.n_edges == 500
        for u, v in net.edges:
            assert u != v
            assert abs(u - v) <= 8

    def test_edges_sorted_by_source(self):
        net = flow_network(100, 300, seed=2)
        assert net.edges == sorted(net.edges)

    def test_excess_oracle_conserves_flow(self):
        net = flow_network(50, 120, seed=3)
        initial = [1.0] * 50
        final = net.excess_oracle(initial)
        assert sum(final) == pytest.approx(sum(initial))

    def test_validation(self):
        with pytest.raises(ConfigError):
            flow_network(1, 5, 1)
        with pytest.raises(ConfigError):
            flow_network(5, 5, 1, locality=0)


class TestConstraintSystem:
    def test_shape_and_locality(self):
        system = constraint_system(100, 250, 2, seed=1, locality=6)
        assert system.n_constraints == 250
        for a, b in system.constraints:
            assert a != b and abs(a - b) <= 6

    def test_oracle_is_iteration_scaled(self):
        one = constraint_system(20, 30, 1, seed=2)
        two = constraint_system(20, 30, 2, seed=2)
        assert two.solve_oracle() == [2 * v for v in one.solve_oracle()]

    def test_validation(self):
        with pytest.raises(ConfigError):
            constraint_system(1, 5, 1, 1)
        with pytest.raises(ConfigError):
            constraint_system(5, 5, 0, 1)


class TestGroupIndependent:
    def test_groups_are_independent(self):
        system = constraint_system(60, 150, 1, seed=4, locality=5)
        groups = group_independent(system.constraints, 16)
        for group in groups:
            objects = []
            for idx in group:
                objects.extend(system.constraints[idx])
            assert len(objects) == len(set(objects))

    def test_groups_cover_all_constraints_once(self):
        system = constraint_system(60, 150, 1, seed=5, locality=5)
        groups = group_independent(system.constraints, 16)
        flat = sorted(i for g in groups for i in g)
        assert flat == list(range(150))

    def test_group_size_respected(self):
        system = constraint_system(60, 150, 1, seed=6, locality=30)
        groups = group_independent(system.constraints, 4)
        assert all(len(g) <= 4 for g in groups)

    def test_validation(self):
        with pytest.raises(ConfigError):
            group_independent([(0, 1)], 0)

    @pytest.mark.parametrize("n_threads", [1, 16])
    def test_dataset_a_matches_rescan_reference(self, n_threads):
        for constraints in dataset_a_thread_lists(n_threads):
            groups = group_independent(constraints, MAX_SIMD_WIDTH)
            assert groups == rescan_group_independent(
                constraints, MAX_SIMD_WIDTH
            )
            flat = sorted(i for g in groups for i in g)
            assert flat == list(range(len(constraints)))
            for group in groups:
                assert len(group) <= MAX_SIMD_WIDTH
                objects = [o for idx in group for o in constraints[idx]]
                assert len(objects) == len(set(objects))

    @settings(max_examples=25)
    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(21, 40)),
            min_size=1,
            max_size=60,
        ),
        st.integers(1, 16),
    )
    def test_independence_property(self, constraints, group_size):
        groups = group_independent(constraints, group_size)
        assert groups == rescan_group_independent(constraints, group_size)
        flat = sorted(i for g in groups for i in g)
        assert flat == list(range(len(constraints)))
        for group in groups:
            assert len(group) <= group_size
            objects = []
            for idx in group:
                objects.extend(constraints[idx])
            assert len(objects) == len(set(objects))
