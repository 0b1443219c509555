"""Snapshot, clustering, and projection tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotflow import (
    Clustering,
    CylindricalGrid,
    DimensionMismatch,
    FullModel,
    NonFiniteState,
    ReducedModel,
    RootUptake,
    SnapshotMatrix,
    StepForcing,
    SurfaceInput,
    UnstableStep,
    ValidationError,
    VanGenuchtenParams,
    build_projection,
    cluster_trajectories,
    generate_snapshots,
    lift_state,
    reduce_state,
)
from conftest import hydrostatic_state, merge_log, row_inputs, simulate_reduced


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


def one_block_average_linkage(data, th_c):
    """cluster_trajectories' partition from one scipy linkage over all nodes, no block split."""
    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import pdist

    data = np.asarray(data, dtype=float)
    if data.shape[1] < 2:
        return np.zeros(data.shape[1], dtype=int)
    tree = linkage(pdist(data.T), method="average")
    labels = fcluster(tree, np.nextafter(th_c, -np.inf), criterion="distance")
    _, first = np.unique(labels, return_index=True)
    ids = np.empty(labels.max() + 1, dtype=int)
    ids[labels[np.sort(first)]] = np.arange(first.size)
    return ids[labels]


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

    @pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0, 0)])
    def test_snapshots_without_a_time_row_or_node_rejected(self, shape):
        with pytest.raises(ValidationError, match="needs a time row and a node"):
            SnapshotMatrix(np.zeros(shape))


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

    @pytest.mark.parametrize("n_times", [2, 33, 51])
    def test_pair_just_below_threshold_is_not_split(self, n_times):
        from scipy.spatial.distance import pdist

        # b - a is c times the ones vector up to rounding, so the pair's projection
        # gap equals its distance; with the distance one or two ulps below th_c
        # the rounded gap often reaches th_c, and a cut at gap >= th_c would
        # split a pair that merges.
        rng = np.random.default_rng(n_times)
        naive_splits = 0
        for _ in range(300):
            a = rng.uniform(-14.0, -0.5, n_times)
            b = a + 0.3 / np.sqrt(n_times) * rng.uniform(0.9, 1.1)
            data = np.stack([a, b, a + 50.0], axis=1)
            th_c = pdist(np.stack([a, b]))[0]
            for _ in range(rng.integers(1, 3)):
                th_c = np.nextafter(th_c, np.inf)
            root = np.sqrt(n_times)
            naive_splits += abs(b.sum() / root - a.sum() / root) >= th_c
            expected = one_block_average_linkage(data, th_c)
            assert np.array_equal(expected, [0, 0, 1])
            assert np.array_equal(cluster_trajectories(SnapshotMatrix(data), th_c).assignment, expected)
        assert naive_splits > 0

    def test_distance_bound_overflow_rejected(self):
        # 1e200 and -1e200 fall in different blocks, so their distance is never
        # computed; in the triangle no pair's squared distance overflows. In
        # both the bound sqrt(sum_t ptp_t^2) on every distance overflows.
        for data in ([[1e200, -1e200, 0.0]], np.array([[0.0, 1.0, 0.5], [0.5, 0.0, 1.0]]) * 1.1e154):
            with pytest.raises(NonFiniteState):
                cluster_trajectories(SnapshotMatrix(data), 1.0)

    def test_separated_groups_never_link_all_nodes(self, monkeypatch):
        import scipy.spatial.distance

        sizes = []
        pdist = scipy.spatial.distance.pdist
        monkeypatch.setattr(scipy.spatial.distance, "pdist", lambda x: (sizes.append(len(x)), pdist(x))[1])
        rng = np.random.default_rng(3)
        data = np.concatenate([rng.normal(0.0, 0.01, (6, 10)), rng.normal(40.0, 0.01, (6, 12))], axis=1)
        data = data[:, rng.permutation(22)]
        c = cluster_trajectories(SnapshotMatrix(data), 1.0)
        assert sorted(sizes) == [10, 12]
        assert c.n_clusters == 2
        assert np.array_equal(c.assignment, one_block_average_linkage(data, 1.0))


@st.composite
def planted_groups(draw):
    """(time x nodes) trajectories of planted groups whose centers sit about th_c apart, and th_c.

    Successive centers step a random direction, or the ones vector that the
    block split projects on, so that projection gaps also land near th_c.
    """
    th_c = draw(st.sampled_from([0.05, 0.3, 1.0]))
    n_times = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    spacing = draw(st.floats(0.5, 2.0)) * th_c
    noise = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5])) * th_c
    along_ones = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = np.ones((len(sizes), n_times)) if along_ones else rng.normal(size=(len(sizes), n_times))
    steps *= rng.choice([-1.0, 1.0], (len(sizes), 1)) * rng.uniform(0.8, 1.2, (len(sizes), 1))
    centers = rng.uniform(-14.0, -0.5, n_times) + spacing * np.cumsum(
        steps / np.linalg.norm(steps, axis=1, keepdims=True), axis=0)
    cols = [center + rng.normal(0.0, noise, n_times) for center, size in zip(centers, sizes) for _ in range(size)]
    return np.array(cols).T[:, rng.permutation(len(cols))], th_c


@given(planted_groups())
@settings(max_examples=200, deadline=None)
def test_block_split_matches_one_block_linkage(case):
    data, th_c = case
    c = cluster_trajectories(SnapshotMatrix(data), th_c)
    assert np.array_equal(c.assignment, one_block_average_linkage(data, th_c))


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
    @pytest.mark.parametrize("make", [
        lambda: Clustering(np.array([], dtype=int), 0),
        lambda: Clustering.singletons(0),
        lambda: Clustering(np.zeros((2, 3), dtype=int), 1),
        lambda: Clustering(np.int64(0), 1),
    ], ids=["empty", "no-singletons", "2-D", "0-D"])
    def test_empty_or_not_1d_assignment_rejected(self, make):
        with pytest.raises(ValidationError, match="cluster assignment has shape"):
            make()

    def test_weights_are_the_projection_columns(self):
        c = Clustering(np.array([0, 1, 0, 2, 0, 1, 0]), 3)
        assert c.weights.tolist() == [0.5, 1.0 / np.sqrt(2.0), 1.0]
        u = build_projection(c)
        assert np.array_equal(np.asarray(u.max(axis=0).todense()).ravel(), c.weights)

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
        reduced = ReducedModel(model, Clustering.singletons(small_grid.n_nodes))
        u = reduced.projection
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
        reduced = ReducedModel(model, Clustering(depth_of, small_grid.n_z))
        xi = reduce_state(reduced.projection, x0)
        out = reduced.step(xi, SurfaceInput.idle(small_grid.n_r), StepForcing(), 1800.0)
        assert np.abs(out - xi).max() < 1e-10

    def test_uniform_field_one_cluster_matches_full(self, loam):
        # single-layer grid: a uniform state under uniform rain stays exactly
        # uniform, so the 1-cluster model must track the full simulation
        grid = CylindricalGrid(n_r=5, n_theta=8, n_z=1, radius=3.0, depth=0.1)
        model = FullModel(grid, loam, substeps=8)
        n = grid.n_nodes
        reduced = ReducedModel(model, Clustering(np.zeros(n, dtype=int), 1))
        u = reduced.projection
        x0 = np.full(n, -5.0)
        inputs = [(SurfaceInput.idle(grid.n_r), StepForcing(rain=1e-7))] * 4
        full = model.simulate(x0, inputs, 1800.0)
        assert np.ptp(full[-1]) == 0.0  # stays uniform
        red = simulate_reduced(reduced, reduce_state(u, x0), inputs, 1800.0)
        lifted = (u @ red.T).T
        assert np.abs(lifted[-1] - full[-1]).max() < 1e-6 * abs(full[-1]).max()


DESK_ZONES = [
    VanGenuchtenParams(alpha=3.6, n_vg=1.56, theta_r=0.078, theta_s=0.43, k_s=2.9e-6),
    VanGenuchtenParams(alpha=2.0, n_vg=1.41, theta_r=0.095, theta_s=0.41, k_s=1.2e-6),
    VanGenuchtenParams(alpha=4.5, n_vg=1.68, theta_r=0.065, theta_s=0.45, k_s=5.0e-6),
    VanGenuchtenParams(alpha=3.0, n_vg=1.48, theta_r=0.085, theta_s=0.42, k_s=2.0e-6),
]


def galerkin_reference(model, u, xi, surface, forcing, dt):
    """xi <- xi + dt_sub U^T f(U xi) over the model's sub-steps, with f the full model's rhs."""
    sub = dt / model.substeps
    for _ in range(model.substeps):
        xi = xi + sub * reduce_state(u, model.rhs(lift_state(u, xi), surface, forcing))
    return xi


def random_partition(n, n_clusters, rng):
    raw = rng.integers(0, n_clusters, size=n)
    ids = {}
    return Clustering(np.array([ids.setdefault(int(a), len(ids)) for a in raw]), len(ids))


def field_inputs(grid, steps):
    return [(SurfaceInput(np.full(grid.n_r, 1e-7), t), StepForcing(et=2e-8, k_c=0.5, rain=1e-8 * (t % 2)))
            for t in range(steps)]


class TestCoarseStep:
    # (n_r, n_theta, n_z, radius, depth), quadrant soil zones or one loam soil
    GRIDS = {
        "desk": ((10, 12, 6, 5.0, 0.4), True),
        "desk-one-soil": ((10, 12, 6, 5.0, 0.4), False),
        "reid-mid": ((12, 24, 8, 6.0, 0.4), True),
        "n_r=1": ((1, 6, 4, 2.0, 0.4), True),
        "n_theta=1": ((4, 1, 4, 2.0, 0.4), True),
        "n_theta=2": ((4, 2, 4, 2.0, 0.4), True),  # two faces join the same two nodes
        "n_z=1": ((4, 6, 1, 2.0, 0.1), True),
    }

    @staticmethod
    def model(name, bottom_bc="free_drainage", with_roots=True, substeps=24):
        dims, zoned = TestCoarseStep.GRIDS[name]
        grid = CylindricalGrid(*dims)
        soil = VanGenuchtenParams.from_zones(grid.quadrant_of_node(), DESK_ZONES) if zoned else DESK_ZONES[0]
        roots = RootUptake(root_depth=min(0.3, grid.depth), h_wilting=-16.0) if with_roots else None
        return FullModel(grid, soil, roots=roots, substeps=substeps, bottom_bc=bottom_bc)

    @pytest.mark.parametrize("with_roots", [True, False], ids=["roots", "no-roots"])
    @pytest.mark.parametrize("bottom_bc", ["free_drainage", "no_flux"])
    @pytest.mark.parametrize("name", list(GRIDS))
    def test_matches_iterated_galerkin_step(self, name, bottom_bc, with_roots):
        # Random clusters cross the quadrant soil zones, so clusters split
        # into groups; the coarse graph must give U^T f(U xi) exactly.
        model = self.model(name, bottom_bc, with_roots)
        rng = np.random.default_rng(len(name))
        reduced = ReducedModel(model, random_partition(model.n_states, 9, rng))
        u = reduced.projection
        xi = reduce_state(u, rng.uniform(-14.0, -3.0, (3, model.n_states)))
        for surface, forcing in field_inputs(model.grid, 3):
            want = galerkin_reference(model, u, xi, surface, forcing, 1800.0)
            got = reduced.step(xi, surface, forcing, 1800.0)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.abs(want - xi).max() > 1e-6 * np.abs(want).max()  # the states do move
            # each batch row equals its single-state call bit for bit
            assert all(np.array_equal(row, reduced.step(x, surface, forcing, 1800.0)) for row, x in zip(got, xi))
            xi = want

    @pytest.mark.parametrize("with_roots", [True, False], ids=["roots", "no-roots"])
    def test_per_row_inputs_equal_single_steps(self, with_roots):
        # Rows differ in active sector, irrigation rate and rain, and row 2
        # has no crop demand; each row equals its single-state call bit for bit.
        model = self.model("desk", with_roots=with_roots)
        rng = np.random.default_rng(11)
        reduced = ReducedModel(model, random_partition(model.n_states, 9, rng))
        u = reduced.projection
        xi = reduce_state(u, rng.uniform(-14.0, -3.0, (4, model.n_states)))
        surfaces, forcings = row_inputs(model.grid)
        got = reduced.step(xi, surfaces, forcings, 1800.0)
        for row, x, surface, forcing in zip(got, xi, surfaces, forcings):
            assert row.tobytes() == reduced.step(x, surface, forcing, 1800.0).tobytes()
        for surface, forcing in ((surfaces[:3], forcings), (surfaces, forcings * 2), (surfaces[0], forcings[1:])):
            with pytest.raises(DimensionMismatch, match=r"expected one per state row \(4\)"):
                reduced.step(xi, surface, forcing, 1800.0)

    def test_identity_projection_is_the_full_step(self, desk_grid):
        model = FullModel(desk_grid, VanGenuchtenParams.from_zones(desk_grid.quadrant_of_node(), DESK_ZONES),
                          roots=RootUptake(root_depth=0.3, h_wilting=-16.0), substeps=24)
        reduced = ReducedModel(model, Clustering.singletons(desk_grid.n_nodes))
        x = np.random.default_rng(3).uniform(-14.0, -3.0, (4, desk_grid.n_nodes))
        for surface, forcing in field_inputs(desk_grid, 2):
            assert np.array_equal(reduced.step(x, surface, forcing, 1800.0), model.step(x, surface, forcing, 1800.0))
            assert np.array_equal(reduced.step(x[1], surface, forcing, 1800.0),
                                  model.step(x[1], surface, forcing, 1800.0))
            x = model.step(x, surface, forcing, 1800.0)

    def test_permuted_singletons_take_the_coarse_path(self, monkeypatch):
        model = self.model("desk")
        n = model.n_states
        rng = np.random.default_rng(8)
        reduced = ReducedModel(model, Clustering(rng.permutation(n), n))
        u = reduced.projection
        xi = reduce_state(u, rng.uniform(-14.0, -3.0, n))
        surface, forcing = field_inputs(model.grid, 1)[0]
        want = galerkin_reference(model, u, xi, surface, forcing, 1800.0)
        monkeypatch.setattr(FullModel, "step", lambda *a, **k: pytest.fail("full-model step on the coarse path"))
        got = reduced.step(xi, surface, forcing, 1800.0)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_bad_reduced_states_raise_as_full_steps_do(self, small_grid, loam):
        clustering = Clustering(np.arange(small_grid.n_nodes) % 7, 7)
        reduced = ReducedModel(FullModel(small_grid, loam, substeps=4), clustering)
        inputs = (SurfaceInput.idle(small_grid.n_r), StepForcing())
        for bad in (np.nan, np.inf):
            xi = np.full(7, -10.0)
            xi[3] = bad
            with pytest.raises(NonFiniteState):
                reduced.step(xi, *inputs, 900.0)
        for shape in ((6,), (2, 8), (2, 1, 7)):
            with pytest.raises(DimensionMismatch):
                reduced.step(np.full(shape, -10.0), *inputs, 900.0)
        with pytest.raises(DimensionMismatch):
            reduced.step(np.full(7, -10.0), SurfaceInput.idle(small_grid.n_r + 1), StepForcing(), 900.0)
        with pytest.raises(ValidationError):
            reduced.step(np.full(7, -10.0), *inputs, 0.0)

    def test_diverging_lifted_heads_raise_unstable_step(self, loam):
        # two sub-steps of 900 s are too few where wet clusters border dry ones
        grid = CylindricalGrid(4, 6, 3, radius=2.0, depth=0.3)
        model = FullModel(grid, loam, substeps=2)
        reduced = ReducedModel(model, Clustering(np.arange(grid.n_nodes) % 7, 7))
        x = np.where(np.arange(grid.n_nodes) % 7 < 3, -0.01, -20.0)
        inputs = (SurfaceInput.idle(grid.n_r), StepForcing(), 1800.0)
        with pytest.raises(UnstableStep):
            model.step(x, *inputs)
        with pytest.raises(UnstableStep):
            reduced.step(reduce_state(reduced.projection, x), *inputs)

    def test_clustering_of_another_size_rejected(self, small_model):
        n = small_model.n_states
        with pytest.raises(DimensionMismatch, match=f"clustering covers {n - 1} nodes, the full model has {n}"):
            ReducedModel(small_model, Clustering(np.arange(n - 1) % 7, 7))
