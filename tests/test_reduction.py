"""Snapshot, clustering, and projection tests."""

import os
import subprocess
import sys
import warnings
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
    NoiseConfig,
    NonFiniteState,
    ReducedEkfState,
    ReducedModel,
    RootUptake,
    SnapshotMatrix,
    StepForcing,
    SurfaceInput,
    UnstableStep,
    ValidationError,
    VanGenuchtenParams,
    cluster_trajectories,
    generate_snapshots,
    lift_state,
    reduce_state,
    rollout,
    transfer_model,
)
from pivotflow.ekf import sensor_output_map
from conftest import dense_projection, hydrostatic_state, merge_log, row_inputs


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

    def test_window_row_equals_the_snapshot_run_from_its_start(self, desk_grid, loam):
        # A multi-window rollout's row w is bitwise the snapshot run from
        # starts[w] over its own window, while the other rows step beside it
        # on other inputs: an e_L window's full half can stand in for the
        # snapshots a re-identification at that step would generate.
        model = FullModel(desk_grid, loam, roots=RootUptake(root_depth=0.3, h_wilting=-16.0), substeps=12)
        surfaces, forcings = row_inputs(desk_grid)
        inputs = [(surfaces[t % 4], forcings[t // 2 % 4]) for t in range(9)]  # no two within 5 ticks alike
        offsets, horizon = [0, 2, 3, 5], 4
        starts = np.random.default_rng(4).uniform(-12.0, -3.0, (len(offsets), desk_grid.n_nodes))
        traj = rollout(model, starts, inputs, 900.0, offsets)
        assert traj.shape == (len(offsets), horizon + 1, desk_grid.n_nodes)
        for w, o in enumerate(offsets):
            snaps = generate_snapshots(model, starts[w], inputs[o:o + horizon], 900.0)
            assert snaps.data.tobytes() == traj[w].tobytes(), w

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

    @pytest.fixture()
    def linked_sizes(self, monkeypatch):
        """The node count of every block that cluster_trajectories hands to pdist, in call order."""
        import scipy.spatial.distance

        sizes = []
        pdist = scipy.spatial.distance.pdist
        monkeypatch.setattr(scipy.spatial.distance, "pdist", lambda x: (sizes.append(len(x)), pdist(x))[1])
        return sizes

    def test_separated_groups_never_link_all_nodes(self, linked_sizes):
        # each tight group's bounding box is narrower than th_c: one cluster, no distances at all
        rng = np.random.default_rng(3)
        data = np.concatenate([rng.normal(0.0, 0.01, (6, 10)), rng.normal(40.0, 0.01, (6, 12))], axis=1)
        data = data[:, rng.permutation(22)]
        c = cluster_trajectories(SnapshotMatrix(data), 1.0)
        assert linked_sizes == []
        assert c.n_clusters == 2
        assert np.array_equal(c.assignment, one_block_average_linkage(data, 1.0))

    def test_spread_groups_link_each_group_alone(self, linked_sizes):
        # groups wider than th_c that no time row cuts still link, each on its own
        rng = np.random.default_rng(3)
        data = np.concatenate([rng.normal(0.0, 0.3, (6, 10)), rng.normal(40.0, 0.3, (6, 12))], axis=1)
        data = data[:, rng.permutation(22)]
        c = cluster_trajectories(SnapshotMatrix(data), 1.0)
        assert sorted(linked_sizes) == [10, 12]
        assert np.array_equal(c.assignment, one_block_average_linkage(data, 1.0))

    def test_groups_with_equal_projections_split_on_a_time_row(self, linked_sizes):
        # the groups swap levels halfway, so the ones projection cannot tell
        # them apart; a time row can
        rng = np.random.default_rng(8)
        step = np.repeat([0.0, 5.0], 3)
        noise = rng.normal(0.0, 0.3, (6, 22))
        noise -= noise.mean(axis=0)  # every node's projection is the groups' common one
        data = np.concatenate([np.tile(step[:, None], 10), np.tile(step[::-1, None], 12)], axis=1) + noise
        x = data - data.min(axis=1, keepdims=True)
        assert np.ptp(x.sum(axis=0) / np.sqrt(6)) < 1e-9
        c = cluster_trajectories(SnapshotMatrix(data), 1.0)
        assert sorted(linked_sizes) == [10, 12]
        assert not set(c.assignment[:10]) & set(c.assignment[10:])
        assert np.array_equal(c.assignment, one_block_average_linkage(data, 1.0))

    @pytest.mark.parametrize("n_times", [1, 4, 33])
    def test_diameter_within_rounding_of_threshold_links(self, linked_sizes, n_times):
        # A pair whose distance sits within the margin of th_c, on either
        # side, is neither taken as one cluster nor cut: it links, and merges
        # only strictly below th_c. Half the pairs differ along one time row
        # only, so that the row's gap is their distance; th_c lies 1e-11
        # relative, or one or two ulps, from it.
        from scipy.spatial.distance import pdist

        rng = np.random.default_rng(n_times)
        for case in range(200):
            a = rng.uniform(-14.0, -0.5, n_times)
            direction = np.eye(n_times)[rng.integers(n_times)] if case % 2 else rng.normal(size=n_times)
            b = a + 0.3 * rng.uniform(0.9, 1.1) * direction / np.linalg.norm(direction)
            data = np.stack([a, b], axis=1)
            th_c = pdist(data.T)[0]
            if case % 4 < 2:
                th_c *= 1.0 + rng.uniform(-1e-11, 1e-11)
            else:
                for _ in range(rng.integers(1, 3)):
                    th_c = np.nextafter(th_c, np.inf)
            linked_sizes.clear()
            c = cluster_trajectories(SnapshotMatrix(data), th_c)
            assert linked_sizes == [2]
            assert np.array_equal(c.assignment, one_block_average_linkage(data, th_c))


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


def loaded_modules(code: str, modules=("scipy.cluster", "scipy.spatial", "scipy.sparse")) -> str:
    """Which of ``modules`` are loaded after ``code`` runs in a fresh interpreter."""
    import pivotflow

    src = str(Path(pivotflow.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code += f"; import sys; print(sorted(m for m in {tuple(modules)!r} if m in sys.modules))"
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout.strip()


def test_import_leaves_scipy_cluster_unloaded():
    # scipy.cluster and scipy.spatial are imported by the first clustering
    # call that links a block, not by `import pivotflow`, which they would
    # slow by about 0.34 s; scipy.sparse, which they load, is needed by
    # nothing else, as U is applied by index
    assert loaded_modules("import pivotflow") == "[]"


def test_import_leaves_yaml_and_multiprocessing_unloaded():
    # yaml is imported by the first scenario file read, and multiprocessing by
    # the first e_L call that forks its helper, not by `import pivotflow`
    assert loaded_modules("import pivotflow", ("yaml", "multiprocessing")) == "[]"


def test_clustering_tight_groups_leaves_scipy_cluster_unloaded():
    # blocks narrower than th_c are clusters without linkage, so no import
    code = ("import numpy as np, pivotflow; "
            "data = np.repeat([0.0, 0.001, 5.0, 5.001], 3).reshape(4, 3).T; "
            "c = pivotflow.cluster_trajectories(pivotflow.SnapshotMatrix(data), 1.0); "
            "assert c.assignment.tolist() == [0, 0, 1, 1], c")
    assert loaded_modules(code) == "[]"


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

    @pytest.mark.parametrize("assignment", [[0.0, 0.7, 1.2], [0.0, np.nan, 1.0], [0.0, np.inf, 1.0]],
                             ids=["fraction", "nan", "inf"])
    def test_non_integral_assignment_rejected(self, assignment):
        # int() would truncate [0, 0.7, 1.2] to [0, 0, 1] silently
        with pytest.raises(ValidationError, match="cluster assignment must hold integer ids"):
            Clustering(np.array(assignment), 2)

    def test_integral_float_assignment_accepted(self):
        c = Clustering(np.array([0.0, 1.0, 0.0]), 2)
        assert c.assignment.dtype.kind == "i" and c.assignment.tolist() == [0, 1, 0]

    def test_weights_are_the_projection_columns(self):
        c = Clustering(np.array([0, 1, 0, 2, 0, 1, 0]), 3)
        assert c.weights.tolist() == [0.5, 1.0 / np.sqrt(2.0), 1.0]
        u = dense_projection(c)
        assert np.array_equal(u.max(axis=0), c.weights)
        assert np.array_equal(lift_state(c, np.eye(3)), u.T)  # U I_r gives U's columns

    @pytest.mark.parametrize("name", ["sizes", "weights"])
    def test_sizes_and_weights_are_one_read_only_array(self, name):
        # each read computed a new writeable array, and the coarse graph kept copies of the weights
        c = Clustering(np.array([0, 1, 0, 2]), 3)
        value = getattr(c, name)
        assert getattr(c, name) is value and not value.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            value[0] = 1

    def test_singletons_give_identity(self):
        c = Clustering.singletons(5)
        assert np.array_equal(dense_projection(c), np.eye(5))
        x = np.random.default_rng(2).normal(size=(2, 5))
        assert np.array_equal(reduce_state(c, x), x) and np.array_equal(lift_state(c, x), x)

    def test_cluster_of_four_has_half_weights(self):
        c = Clustering(np.zeros(4, dtype=int), 1)
        assert np.allclose(dense_projection(c), 0.5)
        assert np.allclose(lift_state(c, [1.0]), 0.5)

    def test_orthonormal_columns_random_partition(self):
        rng = np.random.default_rng(6)
        raw = rng.integers(0, 7, size=50)
        ids = {}
        assignment = np.array([ids.setdefault(int(a), len(ids)) for a in raw])
        c = Clustering(assignment, len(ids))
        u = dense_projection(c)
        for gram in (u.T @ u, reduce_state(c, lift_state(c, np.eye(len(ids))))):
            assert np.abs(gram - np.eye(len(ids))).max() < 1e-12

    def test_lift_reduce_is_cluster_mean(self):
        c = Clustering(np.array([0, 0, 1]), 2)
        x = np.array([2.0, 4.0, 7.0])
        lifted = lift_state(c, reduce_state(c, x))
        assert lifted == pytest.approx([3.0, 3.0, 7.0])
        # each row of a batch equals its single-state call bit for bit
        rng = np.random.default_rng(4)
        raw = rng.integers(0, 6, size=40)
        ids = {}
        c = Clustering(np.array([ids.setdefault(int(a), len(ids)) for a in raw]), len(ids))
        xs = rng.normal(-6.0, 2.0, (5, 40))
        xis = reduce_state(c, xs)
        assert xis.shape == (5, len(ids))
        assert all(np.array_equal(xi, reduce_state(c, x)) for xi, x in zip(xis, xs))
        lifted = lift_state(c, xis)
        assert lifted.shape == xs.shape
        assert all(np.array_equal(row, lift_state(c, xi)) for row, xi in zip(lifted, xis))

    def test_projector_idempotent(self):
        rng = np.random.default_rng(7)
        raw = rng.integers(0, 5, size=30)
        ids = {}
        assignment = np.array([ids.setdefault(int(a), len(ids)) for a in raw])
        c = Clustering(assignment, len(ids))
        x = rng.normal(size=30)
        once = lift_state(c, reduce_state(c, x))
        twice = lift_state(c, reduce_state(c, once))
        assert np.abs(once - twice).max() < 1e-12
        u = dense_projection(c)
        p = u @ u.T
        assert np.abs(p - p.T).max() == 0.0
        assert np.trace(p) == pytest.approx(len(ids), abs=1e-9)

    def test_dimension_checks(self):
        c = Clustering.singletons(4)
        with pytest.raises(DimensionMismatch):
            reduce_state(c, np.zeros(5))
        with pytest.raises(DimensionMismatch):
            lift_state(c, np.zeros(5))
        # (B, n) and (B, r) batches pass; a third axis does not
        assert reduce_state(c, np.zeros((3, 4))).shape == (3, 4)
        assert lift_state(c, np.zeros((3, 4))).shape == (3, 4)
        with pytest.raises(DimensionMismatch):
            reduce_state(c, np.zeros((2, 1, 4)))
        with pytest.raises(DimensionMismatch):
            lift_state(c, np.zeros((2, 1, 4)))

    def test_products_equal_scipy_sparse_products_bit_for_bit(self, loam):
        # Reduce and lift index by the assignment; the filter's U products are
        # written with them. Each must give the bits of the same product with a
        # scipy CSR U, the representation they replace.
        import scipy.sparse as sp

        def csr(c):
            return sp.csr_matrix((c.weights[c.assignment], (np.arange(c.assignment.size), c.assignment)),
                                 shape=(c.assignment.size, c.n_clusters))

        def model_on(c):
            n = c.assignment.size
            return ReducedModel(FullModel(CylindricalGrid(n, 1, 1, radius=2.0, depth=0.1), loam), c)

        rng = np.random.default_rng(23)
        partitions = [Clustering.singletons(1), Clustering.singletons(17), Clustering(np.zeros(17, dtype=int), 1)]
        for _ in range(200):
            n = int(rng.integers(1, 41))
            partitions.append(random_partition(n, int(rng.integers(1, n + 1)), rng))
        noises = [NoiseConfig(q_diag=2.0, q_offdiag=0.5, p0_diag=1.0, p0_offdiag=5e-5), NoiseConfig()]
        for c in partitions:
            n, r = c.assignment.size, c.n_clusters
            new = random_partition(n, int(rng.integers(1, n + 1)), rng)
            u, u_new = csr(c), csr(new)
            for rows in ((), (1,), (4,)):
                x, xi = rng.normal(-8.0, 3.0, rows + (n,)), rng.normal(-8.0, 3.0, rows + (r,))
                assert reduce_state(c, x).tobytes() == (u.T @ x.T).T.tobytes()
                assert lift_state(c, xi).tobytes() == (u @ xi.T).T.tobytes()
            for noise in noises:
                for diag, off, got in ((noise.q_diag, noise.q_offdiag, noise.reduced_process_cov(c)),
                                       (noise.p0_diag, noise.p0_offdiag, noise.reduced_initial_cov(c))):
                    want = (diag - off) * (u.T @ u).toarray()
                    if off:
                        col_sums = np.asarray(u.sum(axis=0)).ravel()
                        want = want + off * np.outer(col_sums, col_sums)
                    assert got.tobytes() == want.tobytes()
            sensors = rng.integers(0, n, 3)
            assert sensor_output_map(c, sensors).tobytes() == u[sensors, :].toarray().tobytes()
            p = rng.normal(size=(r, r))
            state = ReducedEkfState(rng.normal(-8.0, 3.0, r), p @ p.T, np.eye(r), np.zeros((1, r)), model_on(c), 1)
            out = transfer_model(state, model_on(new), noises[0], sensors)
            mapping = (u_new.T @ u).toarray()
            cov = mapping @ state.cov @ mapping.T
            assert out.xi.tobytes() == (mapping @ state.xi).tobytes()
            assert out.cov.tobytes() == (0.5 * (cov + cov.T)).tobytes()


class TestReducedModel:
    def test_singleton_reduction_is_exact(self, small_grid, loam):
        model = FullModel(small_grid, loam, substeps=4)
        reduced = ReducedModel(model, Clustering.singletons(small_grid.n_nodes))
        c = reduced.clustering
        rng = np.random.default_rng(11)
        x0 = np.full(small_grid.n_nodes, -7.0) + rng.normal(0, 0.3, small_grid.n_nodes)
        inputs = [
            (SurfaceInput(np.full(small_grid.n_r, 1e-7), k % small_grid.n_theta),
             StepForcing(rain=2e-8))
            for k in range(6)
        ]
        full = rollout(model, x0, inputs, 900.0)[0]
        red = rollout(reduced, reduce_state(c, x0), inputs, 900.0)[0]
        assert np.array_equal(full, lift_state(c, red))  # bitwise under identity permutation

    def test_equilibrium_preserved(self, small_grid, loam):
        model = FullModel(small_grid, loam, substeps=4, bottom_bc="no_flux")
        x0 = hydrostatic_state(small_grid, -14.0)
        c = Clustering(np.arange(small_grid.n_nodes) % 5, 5)
        # hydrostatic is NOT cluster-constant, so use singleton-per-column of z:
        # cluster nodes sharing the same depth (same h value in hydrostatic state)
        depth_of = np.unravel_index(np.arange(small_grid.n_nodes),
                                    (small_grid.n_r, small_grid.n_theta, small_grid.n_z))[2]
        reduced = ReducedModel(model, Clustering(depth_of, small_grid.n_z))
        xi = reduce_state(reduced.clustering, x0)
        out = reduced.step(xi, SurfaceInput.idle(small_grid.n_r), StepForcing(), 1800.0)
        assert np.abs(out - xi).max() < 1e-10

    def test_uniform_field_one_cluster_matches_full(self, loam):
        # single-layer grid: a uniform state under uniform rain stays exactly
        # uniform, so the 1-cluster model must track the full simulation
        grid = CylindricalGrid(n_r=5, n_theta=8, n_z=1, radius=3.0, depth=0.1)
        model = FullModel(grid, loam, substeps=8)
        n = grid.n_nodes
        reduced = ReducedModel(model, Clustering(np.zeros(n, dtype=int), 1))
        c = reduced.clustering
        x0 = np.full(n, -5.0)
        inputs = [(SurfaceInput.idle(grid.n_r), StepForcing(rain=1e-7))] * 4
        full = rollout(model, x0, inputs, 1800.0)[0]
        assert np.ptp(full[-1]) == 0.0  # stays uniform
        red = rollout(reduced, reduce_state(c, x0), inputs, 1800.0)[0]
        lifted = lift_state(c, red)
        assert np.abs(lifted[-1] - full[-1]).max() < 1e-6 * abs(full[-1]).max()


DESK_ZONES = [
    VanGenuchtenParams(alpha=3.6, n_vg=1.56, theta_r=0.078, theta_s=0.43, k_s=2.9e-6),
    VanGenuchtenParams(alpha=2.0, n_vg=1.41, theta_r=0.095, theta_s=0.41, k_s=1.2e-6),
    VanGenuchtenParams(alpha=4.5, n_vg=1.68, theta_r=0.065, theta_s=0.45, k_s=5.0e-6),
    VanGenuchtenParams(alpha=3.0, n_vg=1.48, theta_r=0.085, theta_s=0.42, k_s=2.0e-6),
]


def galerkin_reference(model, clustering, xi, surface, forcing, dt):
    """xi <- xi + dt_sub U^T f(U xi) over the model's sub-steps, with f the full model's rhs."""
    sub = dt / model.substeps
    for _ in range(model.substeps):
        xi = xi + sub * reduce_state(clustering, model.rhs(lift_state(clustering, xi), surface, forcing))
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
        c = reduced.clustering
        xi = reduce_state(c, rng.uniform(-14.0, -3.0, (3, model.n_states)))
        for surface, forcing in field_inputs(model.grid, 3):
            want = galerkin_reference(model, c, xi, surface, forcing, 1800.0)
            got = reduced.step(xi, surface, forcing, 1800.0)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.abs(want - xi).max() > 1e-6 * np.abs(want).max()  # the states do move
            # each batch row equals its single-state call bit for bit
            assert all(row.tobytes() == reduced.step(x, surface, forcing, 1800.0).tobytes() for row, x in zip(got, xi))
            xi = want

    @pytest.mark.parametrize("with_roots", [True, False], ids=["roots", "no-roots"])
    def test_per_row_inputs_equal_single_steps(self, with_roots):
        # Rows differ in active sector, irrigation rate and rain, and row 2
        # has no crop demand; each row equals its single-state call bit for bit.
        model = self.model("desk", with_roots=with_roots)
        rng = np.random.default_rng(11)
        reduced = ReducedModel(model, random_partition(model.n_states, 9, rng))
        c = reduced.clustering
        xi = reduce_state(c, rng.uniform(-14.0, -3.0, (4, model.n_states)))
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
        c = reduced.clustering
        xi = reduce_state(c, rng.uniform(-14.0, -3.0, n))
        surface, forcing = field_inputs(model.grid, 1)[0]
        want = galerkin_reference(model, c, xi, surface, forcing, 1800.0)
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
        # a (0, r) batch once reached the surface flux and raised a bare IndexError
        for shape in ((6,), (2, 8), (2, 1, 7), (0, 7)):
            with pytest.raises(DimensionMismatch, match=r"^reduced state has shape \("):
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
        message = "diverged after a sub-step of 900 s; increase substeps$"
        with pytest.raises(UnstableStep, match=f"^state {message}"):
            model.step(x, *inputs)
        with pytest.raises(UnstableStep, match=f"^reduced state {message}"):
            reduced.step(reduce_state(reduced.clustering, x), *inputs)

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.inf, np.nan])
    @pytest.mark.parametrize("path", ["coarse", "identity"])
    def test_bad_dt_rejected(self, small_grid, loam, path, dt):
        # an infinite dt once ran a sub-step of inf s and raised UnstableStep after a RuntimeWarning
        n = small_grid.n_nodes
        clustering = Clustering(np.arange(n) % 7, 7) if path == "coarse" else Clustering.singletons(n)
        reduced = ReducedModel(FullModel(small_grid, loam, substeps=4), clustering)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^dt must be finite and > 0$"):
                reduced.step(np.full(reduced.order, -10.0), SurfaceInput.idle(small_grid.n_r), StepForcing(), dt)

    def test_errstate_is_restored(self, loam):
        # the coarse step enters one errstate around its sub-steps; it must
        # leave numpy's error settings as it found them, also when it raises
        grid = CylindricalGrid(4, 6, 3, radius=2.0, depth=0.3)
        inputs = (SurfaceInput.idle(grid.n_r), StepForcing(), 1800.0)
        xi_of = lambda reduced, x: reduce_state(reduced.clustering, x)
        before = np.geterr()
        stable = ReducedModel(FullModel(grid, loam, substeps=24), Clustering(np.arange(grid.n_nodes) % 7, 7))
        stable.step(xi_of(stable, np.full(grid.n_nodes, -8.0)), *inputs)
        assert np.geterr() == before
        unstable = ReducedModel(FullModel(grid, loam, substeps=2), Clustering(np.arange(grid.n_nodes) % 7, 7))
        with pytest.raises(UnstableStep):
            unstable.step(xi_of(unstable, np.where(np.arange(grid.n_nodes) % 7 < 3, -0.01, -20.0)), *inputs)
        assert np.geterr() == before

    def test_clustering_of_another_size_rejected(self, small_model):
        n = small_model.n_states
        with pytest.raises(DimensionMismatch, match=f"clustering covers {n - 1} nodes, the full model has {n}"):
            ReducedModel(small_model, Clustering(np.arange(n - 1) % 7, 7))
