"""Snapshot, clustering, and projection tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pivotflow import (
    Clustering,
    DimensionMismatch,
    FullModel,
    NonFiniteState,
    ReducedModel,
    SnapshotMatrix,
    StepForcing,
    SurfaceInput,
    ValidationError,
    build_projection,
    cluster_trajectories,
    generate_snapshots,
    lift_state,
    reduce_state,
)
from conftest import hydrostatic_state, merge_log, simulate_reduced


def reference_average_linkage(data, th_c):
    """Exhaustive O(N^3) agglomerative average linkage.

    Exact ties break on the smallest (i, j) position pair. cluster_trajectories
    breaks them in NN-chain order instead (see its docstring), so the two agree
    on tie-free data such as random normal fixtures, not on every tied input.
    """
    n = data.shape[1]
    base = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            base[i, j] = np.linalg.norm(data[:, i] - data[:, j])
    clusters = [[i] for i in range(n)]
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = np.mean([base[a, b] for a in clusters[i] for b in clusters[j]])
                if best is None or d < best[0]:
                    best = (d, i, j)
        if not best[0] < th_c:
            break
        _, i, j = best
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
    assignment = np.empty(n, dtype=int)
    for cid, members in enumerate(clusters):
        assignment[members] = cid
    return assignment, len(clusters)


class TestSnapshots:
    def test_equilibrium_rows_identical(self, small_grid, loam):
        model = FullModel(small_grid, loam, substeps=2, bottom_bc="no_flux")
        x0 = hydrostatic_state(small_grid, -12.0)
        inputs = [(SurfaceInput.idle(small_grid.n_r), StepForcing())]
        snaps = generate_snapshots(model, x0, inputs, 1800.0)
        assert snaps.data.shape == (2, small_grid.n_nodes)
        assert np.abs(snaps.data[1] - snaps.data[0]).max() < 1e-10

    def test_rows_match_direct_simulation(self, small_grid, loam):
        model = FullModel(small_grid, loam, substeps=4)
        rng = np.random.default_rng(2)
        x0 = np.full(small_grid.n_nodes, -9.0) + rng.normal(0, 0.4, small_grid.n_nodes)
        inputs = [
            (SurfaceInput(np.full(small_grid.n_r, 2e-7), k % small_grid.n_theta),
             StepForcing(rain=5e-8))
            for k in range(5)
        ]
        snaps = generate_snapshots(model, x0, inputs, 900.0)
        x = x0
        for j, (surface, forcing) in enumerate(inputs):
            assert np.array_equal(snaps.data[j], x)
            x = model.step(x, surface, forcing, 900.0)
        assert np.array_equal(snaps.data[5], x)

    def test_window_shape_matches_horizon(self, small_grid, loam):
        model = FullModel(small_grid, loam, substeps=2)
        x0 = np.full(small_grid.n_nodes, -8.0)
        inputs = [(SurfaceInput.idle(small_grid.n_r), StepForcing())] * 7
        snaps = generate_snapshots(model, x0, inputs, 600.0)
        assert snaps.data.shape == (8, small_grid.n_nodes)

    def test_empty_window_rejected(self, small_model):
        with pytest.raises(ValidationError):
            generate_snapshots(small_model, np.full(small_model.n_states, -5.0), [], 600.0)

    def test_non_finite_snapshots_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            data = np.zeros((3, 4))
            data[1, 2] = bad
            with pytest.raises(NonFiniteState):
                SnapshotMatrix(data)
        # finite trajectories whose distance overflows
        with pytest.raises(NonFiniteState):
            cluster_trajectories(SnapshotMatrix([[1e200, -1e200]]), 1.0)


class TestClustering:
    def test_tiny_threshold_keeps_singletons(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(6, 9))
        c = cluster_trajectories(SnapshotMatrix(data), 1e-12)
        assert c.n_clusters == 9
        assert np.array_equal(c.assignment, np.arange(9))

    def test_huge_threshold_merges_everything(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(6, 9))
        c = cluster_trajectories(SnapshotMatrix(data), np.inf)
        assert c.n_clusters == 1

    def test_two_well_separated_groups(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=6)
        cols = []
        for center in (0.0, 100.0):
            for _ in range(3):
                cols.append(base + center + rng.normal(0, 0.01, 6))
        data = np.array(cols).T[:, [0, 3, 1, 4, 2, 5]]  # interleave the groups
        c = cluster_trajectories(SnapshotMatrix(data), 1.0)
        assert c.n_clusters == 2
        assert np.array_equal(c.assignment, [0, 1, 0, 1, 0, 1])

    def test_matches_exhaustive_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            data = rng.normal(0, 2.0, size=(8, 12))
            for th_c in (0.1, 1.0, 10.0):
                ours = cluster_trajectories(SnapshotMatrix(data), th_c)
                ref_assign, ref_n = reference_average_linkage(data, th_c)
                assert ours.n_clusters == ref_n
                assert np.array_equal(ours.assignment, ref_assign)

    def test_partition_invariants_after_every_merge(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(5, 20))
        for th_c in (5.0, 2.5):  # one cluster; six clusters
            c = cluster_trajectories(SnapshotMatrix(data), th_c)
            merges = merge_log(data, th_c)
            # replay the merge sequence, checking the partition stays a partition
            members = {i: {i} for i in range(20)}
            for i, j, dist in merges:
                assert 0 <= dist < th_c
                assert i < j and i == min(members[i]) and j == min(members[j])
                assert members[i].isdisjoint(members[j])
                members[i] |= members.pop(j)
            covered = set().union(*members.values())
            assert covered == set(range(20))
            dists = [dist for _, _, dist in merges]
            assert dists == sorted(dists)
            replayed = np.empty(20, dtype=int)
            for cid, first in enumerate(sorted(members)):
                replayed[list(members[first])] = cid
            assert np.array_equal(replayed, c.assignment)
            assert len(members) == c.n_clusters

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(6, 15))
        snaps = SnapshotMatrix(data)
        orders = [cluster_trajectories(snaps, t).n_clusters for t in (8.0, 4.0, 2.0, 1.0, 0.5, 0.1)]
        assert orders == sorted(orders)  # decreasing th_c never decreases r_m

    def test_cluster_ids_follow_first_member(self):
        data = np.array([[0.0, 100.0, 0.001, 100.001, 200.0]])
        c = cluster_trajectories(SnapshotMatrix(data), 1.0)
        # node 0's cluster gets id 0, node 1's id 1, node 4 alone gets 2
        assert np.array_equal(c.assignment, [0, 1, 0, 1, 2])
        # one node, and a pair 1.0 apart, which merges only strictly below th_c
        for data, th_c, expected in (
            ([[3.0]], 1.0, [0]),
            ([[0.0, 1.0]], 0.5, [0, 1]),
            ([[0.0, 1.0]], 1.0, [0, 1]),
            ([[0.0, 1.0]], np.nextafter(1.0, 2.0), [0, 0]),
            ([[0.0, 1.0]], 2.0, [0, 0]),
        ):
            c = cluster_trajectories(SnapshotMatrix(data), th_c)
            assert np.array_equal(c.assignment, expected)
            assert c.n_clusters == max(expected) + 1
            assert merge_log(data, th_c) == (((0, 1, 1.0),) if c.n_clusters == 1 and len(expected) == 2 else ())

    def test_exact_ties_follow_nn_chain_order(self):
        # After nodes 0 and 3 merge at 0, node 1 is 1.0 from both {0, 3} and
        # {2}. The smallest-position-pair rule of the reference merges 1 into
        # {0, 3}; NN-chain grows from slot 1 and takes its lowest-slot nearest
        # neighbour, node 2. Both partitions are valid average linkages.
        data = np.array([[0.0, 1.0, 2.0, 0.0]])
        c = cluster_trajectories(SnapshotMatrix(data), 1.01)
        assert np.array_equal(c.assignment, [0, 1, 1, 0])
        assert merge_log(data, 1.01) == ((0, 3, 0.0), (1, 2, 1.0))
        assert np.array_equal(reference_average_linkage(data, 1.01)[0], [0, 0, 1, 0])


def test_import_leaves_scipy_cluster_unloaded():
    # scipy.cluster and scipy.spatial are imported by the first clustering
    # call, not by `import pivotflow`, which they would slow by about 0.2 s
    import pivotflow

    src = str(Path(pivotflow.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import pivotflow, sys; "
            "print(sorted(m for m in ('scipy.cluster', 'scipy.spatial') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestProjection:
    def test_singletons_give_identity(self):
        u = build_projection(Clustering.singletons(5))
        assert np.array_equal(u.toarray(), np.eye(5))

    def test_cluster_of_four_has_half_weights(self):
        c = Clustering(np.zeros(4, dtype=int), 1)
        u = build_projection(c)
        assert np.allclose(u.toarray(), 0.5)

    def test_orthonormal_columns_random_partition(self):
        rng = np.random.default_rng(6)
        raw = rng.integers(0, 7, size=50)
        ids = {}
        assignment = np.array([ids.setdefault(int(a), len(ids)) for a in raw])
        u = build_projection(Clustering(assignment, len(ids)))
        gram = (u.T @ u).toarray()
        assert np.abs(gram - np.eye(len(ids))).max() < 1e-12

    def test_lift_reduce_is_cluster_mean(self):
        c = Clustering(np.array([0, 0, 1]), 2)
        u = build_projection(c)
        x = np.array([2.0, 4.0, 7.0])
        lifted = lift_state(u, reduce_state(u, x))
        assert lifted == pytest.approx([3.0, 3.0, 7.0])
        # each row of a batch equals its single-state call bit for bit
        rng = np.random.default_rng(4)
        raw = rng.integers(0, 6, size=40)
        ids = {}
        u = build_projection(Clustering(np.array([ids.setdefault(int(a), len(ids)) for a in raw]), len(ids)))
        xs = rng.normal(-6.0, 2.0, (5, 40))
        xis = reduce_state(u, xs)
        assert xis.shape == (5, len(ids))
        assert all(np.array_equal(xi, reduce_state(u, x)) for xi, x in zip(xis, xs))
        lifted = lift_state(u, xis)
        assert lifted.shape == xs.shape
        assert all(np.array_equal(row, lift_state(u, xi)) for row, xi in zip(lifted, xis))

    def test_projector_idempotent(self):
        rng = np.random.default_rng(7)
        raw = rng.integers(0, 5, size=30)
        ids = {}
        assignment = np.array([ids.setdefault(int(a), len(ids)) for a in raw])
        u = build_projection(Clustering(assignment, len(ids)))
        x = rng.normal(size=30)
        once = lift_state(u, reduce_state(u, x))
        twice = lift_state(u, reduce_state(u, once))
        assert np.abs(once - twice).max() < 1e-12
        p = (u @ u.T).toarray()
        assert np.abs(p - p.T).max() == 0.0
        assert np.trace(p) == pytest.approx(len(ids), abs=1e-9)

    def test_dimension_checks(self):
        u = build_projection(Clustering.singletons(4))
        with pytest.raises(DimensionMismatch):
            reduce_state(u, np.zeros(5))
        with pytest.raises(DimensionMismatch):
            lift_state(u, np.zeros(5))
        # (B, n) and (B, r) batches pass; a third axis does not
        assert reduce_state(u, np.zeros((3, 4))).shape == (3, 4)
        assert lift_state(u, np.zeros((3, 4))).shape == (3, 4)
        with pytest.raises(DimensionMismatch):
            reduce_state(u, np.zeros((2, 1, 4)))
        with pytest.raises(DimensionMismatch):
            lift_state(u, np.zeros((2, 1, 4)))


class TestReducedModel:
    def test_singleton_reduction_is_exact(self, small_grid, loam):
        model = FullModel(small_grid, loam, substeps=4)
        u = build_projection(Clustering.singletons(small_grid.n_nodes))
        reduced = ReducedModel(model, u)
        rng = np.random.default_rng(11)
        x0 = np.full(small_grid.n_nodes, -7.0) + rng.normal(0, 0.3, small_grid.n_nodes)
        inputs = [
            (SurfaceInput(np.full(small_grid.n_r, 1e-7), k % small_grid.n_theta),
             StepForcing(rain=2e-8))
            for k in range(6)
        ]
        full = model.simulate(x0, inputs, 900.0)
        red = simulate_reduced(reduced, reduce_state(u, x0), inputs, 900.0)
        assert np.array_equal(full, (u @ red.T).T)  # bitwise under identity permutation

    def test_equilibrium_preserved(self, small_grid, loam):
        model = FullModel(small_grid, loam, substeps=4, bottom_bc="no_flux")
        x0 = hydrostatic_state(small_grid, -14.0)
        c = Clustering(np.arange(small_grid.n_nodes) % 5, 5)
        # hydrostatic is NOT cluster-constant, so use singleton-per-column of z:
        # cluster nodes sharing the same depth (same h value in hydrostatic state)
        depth_of = np.unravel_index(np.arange(small_grid.n_nodes),
                                    (small_grid.n_r, small_grid.n_theta, small_grid.n_z))[2]
        u = build_projection(Clustering(depth_of, small_grid.n_z))
        xi = reduce_state(u, x0)
        out = ReducedModel(model, u).step(xi, SurfaceInput.idle(small_grid.n_r), StepForcing(), 1800.0)
        assert np.abs(out - xi).max() < 1e-10

    def test_uniform_field_one_cluster_matches_full(self, loam):
        # single-layer grid: a uniform state under uniform rain stays exactly
        # uniform, so the 1-cluster model must track the full simulation
        from pivotflow import CylindricalGrid

        grid = CylindricalGrid(n_r=5, n_theta=8, n_z=1, radius=3.0, depth=0.1)
        model = FullModel(grid, loam, substeps=8)
        n = grid.n_nodes
        u = build_projection(Clustering(np.zeros(n, dtype=int), 1))
        x0 = np.full(n, -5.0)
        inputs = [(SurfaceInput.idle(grid.n_r), StepForcing(rain=1e-7))] * 4
        full = model.simulate(x0, inputs, 1800.0)
        assert np.ptp(full[-1]) == 0.0  # stays uniform
        red = simulate_reduced(ReducedModel(model, u), reduce_state(u, x0), inputs, 1800.0)
        lifted = (u @ red.T).T
        assert np.abs(lifted[-1] - full[-1]).max() < 1e-6 * abs(full[-1]).max()
