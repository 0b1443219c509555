"""Trajectory-clustered model reduction.

Snapshots of the full model are clustered per node trajectory with
agglomerative average linkage (scipy's NN-chain algorithm on each block of an
exact split of the nodes' projections on the ones vector, cut strictly below
th_c, ids in first-member order), and the resulting clustering defines the
reduction: a cluster's nodes share one reduced coordinate, lifted with the
weight 1/sqrt(cluster size), so the orthonormal projection U has one nonzero
per row. The reduced dynamics are Galerkin per sub-step: xi <- xi + dt_sub
U^T f(U xi) over the full model's own sub-steps. U xi is constant on each
group of nodes that share a cluster and a soil, so U^T f(U xi) is computed
exactly from per-group values on a coarse graph of the groups, at a cost
that grows with the number of groups and of group pairs that share a face,
not with the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, NonFiniteState, UnstableStep, ValidationError
from .richards import FullModel, _stencil, _surface_flux, _uptake_scale, root_weight, stress_factor
from .soil import VanGenuchtenParams, capillary_capacity, hydraulic_conductivity, suction_logs


@dataclass(frozen=True)
class SnapshotMatrix:
    """Node trajectories over a prediction window: (n_steps + 1) x n_nodes."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=float))
        if self.data.ndim != 2:
            raise DimensionMismatch("snapshot matrix must be 2-D (time x nodes)")
        if 0 in self.data.shape:
            raise ValidationError(f"snapshot matrix has shape {self.data.shape}, needs a time row and a node")
        if not np.all(np.isfinite(self.data)):
            raise NonFiniteState("snapshot matrix contains NaN or infinity")

    @property
    def n_nodes(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class Clustering:
    """Partition of nodes: assignment[i] is the cluster id of node i."""

    assignment: np.ndarray
    n_clusters: int

    def __post_init__(self):
        object.__setattr__(self, "assignment", np.asarray(self.assignment, dtype=int))
        if self.assignment.ndim != 1 or self.assignment.size == 0:
            raise ValidationError(f"cluster assignment has shape {self.assignment.shape}, expected (n,), n >= 1")
        ids = np.unique(self.assignment)
        if not (ids.size == self.n_clusters and ids[0] == 0 and ids[-1] == self.n_clusters - 1):
            raise ValidationError("cluster ids must form a contiguous range [0, n_clusters)")

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_clusters)

    @property
    def weights(self) -> np.ndarray:
        """(n_clusters,) weight 1/sqrt(cluster size) with which each cluster's coordinate lifts to its nodes."""
        return 1.0 / np.sqrt(self.sizes.astype(float))

    @classmethod
    def singletons(cls, n_nodes: int) -> "Clustering":
        return cls(np.arange(n_nodes), n_nodes)


def generate_snapshots(model: FullModel, x0, inputs, dt: float) -> SnapshotMatrix:
    """Noise-free forward simulation of the full model over the input schedule."""
    if len(inputs) < 1:
        raise ValidationError("snapshot generation needs at least one interval")
    return SnapshotMatrix(model.simulate(x0, inputs, dt))


def cluster_trajectories(snapshots: SnapshotMatrix, th_c: float) -> Clustering:
    """Agglomerative average-linkage clustering of node trajectories.

    Starts from singletons and merges the pair at minimum average-linkage
    distance while that minimum is below th_c. Cluster ids follow each
    cluster's first member node.

    Exact block split: on the unit vector v = 1/sqrt(T), |<a - b, v>| <=
    ||a - b||, so cutting the sorted projections wherever neighbours are
    th_c apart keeps every pair closer than th_c in one block. A merge below
    th_c needs such a pair, so no cluster crosses a block. Each block, node
    ids ascending, runs scipy's NN-chain linkage on its condensed Euclidean
    distances. A cut needs a margin of 1e-9 (th_c + sqrt(T) max|x|) over
    th_c for the projections' rounding (x is the data less its row minima).

    Exact distance ties resolve in NN-chain order within each block: every
    cluster holds a slot, first its node index, and a merged pair keeps the
    larger slot. The chain starts at the lowest live slot, steps to the
    lowest-slot nearest neighbour (staying with the previous chain element
    on a tie) and merges the first mutual nearest pair it reaches.

    Raises ``NonFiniteState`` when sqrt(sum_t ptp_t^2), the bound on every
    pairwise distance from each time row's spread ptp_t, is not finite, even
    where the pairs that would overflow fall in different blocks.
    """
    # imported here: scipy.cluster/scipy.spatial add ~0.2 s and ~16 MB to `import pivotflow`
    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import pdist

    if not th_c > 0:
        raise ValidationError("th_c must be > 0")
    n = snapshots.n_nodes
    if n < 2:
        return Clustering.singletons(n)
    with np.errstate(over="ignore"):
        x = snapshots.data - snapshots.data.min(axis=1, keepdims=True)
        if not np.isfinite(np.sqrt(np.sum(x.max(axis=1) ** 2))):
            raise NonFiniteState("trajectory distances overflow to infinity")
    root_t = np.sqrt(x.shape[0])
    proj = x.sum(axis=0) / root_t
    order = np.argsort(proj, kind="stable")
    cuts = np.flatnonzero(np.diff(proj[order]) >= th_c + 1e-9 * (th_c + root_t * x.max())) + 1
    labels = np.empty(n, dtype=int)
    offset = 0
    for block in np.split(order, cuts):
        block.sort()
        if block.size == 1:
            labels[block] = offset + 1
        else:
            # indexing copies the block's rows C-contiguous; pdist on a strided view is ~2x slower
            tree = linkage(pdist(snapshots.data.T[block]), method="average")
            labels[block] = offset + fcluster(tree, np.nextafter(th_c, -np.inf), criterion="distance")
        offset = labels[block].max()
    # renumber fcluster's labels in the order of each cluster's first member node
    _, first = np.unique(labels, return_index=True)
    ids = np.empty(labels.max() + 1, dtype=int)
    ids[labels[np.sort(first)]] = np.arange(first.size)
    return Clustering(ids[labels], first.size)


def build_projection(clustering: Clustering) -> sp.csr_matrix:
    """Sparse n_nodes x n_clusters projection with weights 1/sqrt(cluster size)."""
    cols = clustering.assignment
    return sp.csr_matrix((clustering.weights[cols], (np.arange(cols.size), cols)),
                         shape=(cols.size, clustering.n_clusters))


def _rows_of(x, size: int, what: str) -> np.ndarray:
    """``x`` as floats, checked to be one vector (size,) or a batch (B, size)."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != size:
        raise DimensionMismatch(f"{what} has shape {x.shape}, expected ({size},) or (B, {size})")
    return x


def reduce_state(projection: sp.csr_matrix, x) -> np.ndarray:
    """xi = U^T x of one state (n,) or of each row of a batch (B, n).

    Each row of a batch equals the single-state result bit for bit.
    """
    return (projection.T @ _rows_of(x, projection.shape[0], "state").T).T


def lift_state(projection: sp.csr_matrix, xi) -> np.ndarray:
    """x_tilde = U xi of one reduced state (r,) or of each row of a batch (B, r).

    Each row of a batch equals the single-state result bit for bit.
    """
    return (projection @ _rows_of(xi, projection.shape[1], "reduced state").T).T


class _CoarseGraph(NamedTuple):
    """The full model's grid seen through a clustering.

    Node i of group g has the head w_c xi_c of its cluster c and the soil of
    its group, so K, C and beta are constant on a group. A face between
    groups g and g' adds (K_g + K_g') (diffusive (h_g' - h_g) + gravity) to
    g's rate; ordered pair p carries one summed coefficient of each kind.
    Faces inside a group drop out: radial and azimuthal fluxes vanish at equal
    heads, and the vertical gravity terms cancel in the group's sum.
    """

    cluster: np.ndarray     # (G,) cluster of each group
    weight: np.ndarray      # (G,) projection weight w_c of that cluster
    col_weight: np.ndarray  # (r,) weight of each cluster
    soil: VanGenuchtenParams  # one entry per group
    src: np.ndarray         # (P,) ordered group pairs that share a face
    dst: np.ndarray
    diffusive: np.ndarray   # (P,) summed stencil coefficients
    gravity: np.ndarray
    surface: np.ndarray     # group of each surface cell, in (n_r, n_theta) order
    drain: np.ndarray       # (G,) bottom cells over dz under free drainage, else 0
    roots: np.ndarray       # (G,) summed root weights (zeros without roots)


def _coarse_graph(full: FullModel, cluster: np.ndarray, col_weight: np.ndarray) -> _CoarseGraph:
    """The coarse graph of ``full``'s grid under the partition ``cluster`` with column weights ``col_weight``."""
    grid = full.grid
    n_r, n_t, n_z, n = grid.n_r, grid.n_theta, grid.n_z, grid.n_nodes
    names = [f.name for f in fields(full.soil) if f.init]
    node_soil = [np.broadcast_to(np.asarray(getattr(full.soil, a), dtype=float), (n,)) for a in names]
    # groups sorted by cluster, then by soil
    _, first, group = np.unique(np.column_stack([cluster] + node_soil), axis=0,
                                return_index=True, return_inverse=True)
    group = group.ravel()
    n_groups = first.size

    # each face once, as (node a, node b, coefficient on a's rate, on b's rate, gravity on a's rate);
    # a vertical face has a below b
    nodes = np.arange(n).reshape(n_r, n_t, n_z)
    radial_lo, radial_hi, azimuthal = _stencil(grid)
    width = n_t * n_z
    vertical = 0.5 / grid.dz**2
    faces = [
        (nodes[..., :-1].ravel(), nodes[..., 1:].ravel(), vertical, vertical, 0.5 / grid.dz),
        (np.arange((n_r - 1) * width), np.arange(width, n), radial_lo.ravel(), radial_hi.ravel(), 0.0),
    ]
    if n_t > 1:  # periodic: face j joins theta j and j + 1 mod n_theta
        az = azimuthal.ravel()
        faces.append((nodes.ravel(), np.roll(nodes, -1, axis=1).ravel(), az, az, 0.0))
    src, dst, diffusive, gravity = [], [], [], []
    for a, b, on_a, on_b, grav in faces:
        ga, gb = group[a], group[b]
        cross = ga != gb
        on_a = np.broadcast_to(on_a, a.shape)[cross]
        on_b = np.broadcast_to(on_b, a.shape)[cross]
        grav = np.full(on_a.shape, grav)
        src += [ga[cross], gb[cross]]
        dst += [gb[cross], ga[cross]]
        diffusive += [on_a, on_b]
        gravity += [grav, -grav]
    pairs, slot = np.unique(np.concatenate(src) * n_groups + np.concatenate(dst), return_inverse=True)

    columns = np.arange(n_r * n_t) * n_z
    bottom = np.bincount(group[columns], minlength=n_groups).astype(float)
    roots = np.zeros(n_groups)
    if full.roots is not None:
        roots = np.bincount(group, weights=root_weight(grid, full.roots.root_depth), minlength=n_groups)
    return _CoarseGraph(
        cluster=cluster[first],
        weight=col_weight[cluster[first]],
        col_weight=col_weight,
        soil=VanGenuchtenParams(**{a: values[first] for a, values in zip(names, node_soil)}),
        src=pairs // n_groups,
        dst=pairs % n_groups,
        diffusive=np.bincount(slot, weights=np.concatenate(diffusive), minlength=pairs.size),
        gravity=np.bincount(slot, weights=np.concatenate(gravity), minlength=pairs.size),
        surface=group[columns + n_z - 1],
        drain=bottom / grid.dz if full.bottom_bc == "free_drainage" else np.zeros(n_groups),
        roots=roots,
    )


@dataclass(frozen=True)
class ReducedModel:
    """Galerkin reduction of a full model by a fixed clustering of its nodes.

    The cluster projection U (``projection``, for the filter) and the coarse
    graph of the clustering are built once, at construction.
    """

    full: FullModel
    clustering: Clustering
    projection: sp.csr_matrix = field(init=False, repr=False, compare=False)
    _graph: _CoarseGraph | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cluster, n = self.clustering.assignment, self.full.n_states
        if cluster.size != n:
            raise DimensionMismatch(f"clustering covers {cluster.size} nodes, the full model has {n}")
        object.__setattr__(self, "projection", build_projection(self.clustering))
        identity = np.array_equal(cluster, np.arange(n))
        object.__setattr__(self, "_graph",
                           None if identity else _coarse_graph(self.full, cluster, self.clustering.weights))

    @property
    def order(self) -> int:
        return self.clustering.n_clusters

    @property
    def weights(self) -> np.ndarray:
        """(order,) weight with which each reduced coordinate lifts to its cluster's nodes."""
        return self.clustering.weights

    def step(self, xi, surface, forcing, dt) -> np.ndarray:
        """Advance xi by dt with xi <- xi + dt_sub U^T f(U xi) over the full model's sub-steps.

        f is the full model's right-hand side, so this is explicit Euler on
        the Galerkin-projected dynamics. Per sub-step it evaluates the soil
        closures once per group and one flux per group pair, and it raises
        ``UnstableStep`` when a lifted head leaves |h| <= 1e6, as
        ``FullModel.step`` does. ``xi`` may also be a (B, order) batch, with
        inputs shared by every row or one per row as ``FullModel.step``
        takes them; each row equals a single-state step with its own inputs
        bit for bit.

        When every node is its own cluster, in node order, U is the identity,
        the coarse graph is the grid itself and the map is the full model's,
        so the full model steps xi: the singleton reduction then equals the
        full model bit for bit, which the per-group summation order would
        not give.
        """
        graph = self._graph
        if graph is None:
            return self.full.step(xi, surface, forcing, dt)
        if not dt > 0:
            raise ValidationError("dt must be > 0")
        xi = _rows_of(xi, self.order, "reduced state")
        if not np.all(np.isfinite(xi)):
            raise NonFiniteState("reduced state contains non-finite entries")
        full = self.full
        grid = full.grid
        n_groups, order = graph.cluster.size, self.order
        sub = dt / full.substeps
        out = xi.reshape(-1, order).copy()
        rows = out.shape[0]
        # bincount scatters each row's cells and pairs into its groups and its
        # groups into its clusters in a fixed order, so a row's sums do not
        # depend on the batch
        offset = np.arange(rows)[:, None] * n_groups
        inflow = np.bincount((offset + graph.surface).ravel(),
                             weights=(_surface_flux(surface, forcing, grid, rows) / grid.dz).ravel(),
                             minlength=rows * n_groups).reshape(rows, n_groups)
        sink = None if full.roots is None else _uptake_scale(graph.roots, forcing)
        to_group = (offset + graph.src).ravel()
        to_cluster = (np.arange(rows)[:, None] * order + graph.cluster).ravel()
        for _ in range(full.substeps):
            h = out.take(graph.cluster, axis=1)
            h *= graph.weight
            logs = suction_logs(h, graph.soil)
            k = hydraulic_conductivity(h, graph.soil, logs=logs)
            c_eff = np.maximum(capillary_capacity(h, graph.soil, logs=logs), full.storativity)
            flow = k.take(graph.src, axis=1) + k.take(graph.dst, axis=1)
            flow *= graph.diffusive * (h.take(graph.dst, axis=1) - h.take(graph.src, axis=1)) + graph.gravity
            rate = inflow - k * graph.drain
            rate += np.bincount(to_group, weights=flow.ravel(), minlength=rows * n_groups).reshape(rows, n_groups)
            if sink is not None:
                rate += stress_factor(h, full.roots) * sink
            rate /= c_eff
            rate *= graph.weight
            change = np.bincount(to_cluster, weights=rate.ravel(), minlength=rows * order)
            change *= sub
            out += change.reshape(rows, order)
            # a lifted head beyond any physical suction (or NaN) means the explicit update diverged
            if not np.abs(out * graph.col_weight).max() <= 1e6:
                raise UnstableStep(f"reduced state diverged after a sub-step of {sub:g} s; increase substeps")
        return out.reshape(xi.shape)
