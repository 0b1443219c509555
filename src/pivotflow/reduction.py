"""Trajectory-clustered model reduction.

Snapshots of the full model are clustered per node trajectory with
agglomerative average linkage (scipy's NN-chain algorithm, cut strictly
below th_c, ids in first-member order), and the resulting partition
defines an orthonormal projection U whose columns carry weight
1/sqrt(cluster size). The reduced dynamics are Petrov-Galerkin: lift with
U, advance the full model, project back with U^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, NonFiniteState, ValidationError
from .richards import FullModel


@dataclass(frozen=True)
class SnapshotMatrix:
    """Node trajectories over a prediction window: (n_steps + 1) x n_nodes."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=float))
        if self.data.ndim != 2:
            raise DimensionMismatch("snapshot matrix must be 2-D (time x nodes)")
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
        ids = np.unique(self.assignment)
        if not (ids.size == self.n_clusters and ids[0] == 0 and ids[-1] == self.n_clusters - 1):
            raise ValidationError("cluster ids must form a contiguous range [0, n_clusters)")

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_clusters)

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
    distance while that minimum is below th_c, by scipy's NN-chain linkage
    on the condensed Euclidean distances. Cluster ids follow each cluster's
    first member node.

    Exact distance ties resolve in NN-chain order: every cluster holds a
    slot, first its node index, and a merged pair keeps the larger slot.
    The chain starts at the lowest live slot, steps to the lowest-slot
    nearest neighbour (staying with the previous chain element on a tie)
    and merges the first mutual nearest pair it reaches.
    """
    # imported here: scipy.cluster/scipy.spatial add ~0.2 s and ~16 MB to `import pivotflow`
    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import pdist

    if not th_c > 0:
        raise ValidationError("th_c must be > 0")
    n = snapshots.n_nodes
    if n < 2:
        return Clustering.singletons(n)
    try:
        tree = linkage(pdist(snapshots.data.T), method="average")
    except ValueError as exc:  # linkage rejects distances that overflowed to inf
        raise NonFiniteState("trajectory distances overflow to infinity") from exc
    labels = fcluster(tree, np.nextafter(th_c, -np.inf), criterion="distance")
    # renumber fcluster's labels in the order of each cluster's first member node
    _, first = np.unique(labels, return_index=True)
    ids = np.empty(labels.max() + 1, dtype=int)
    ids[labels[np.sort(first)]] = np.arange(first.size)
    return Clustering(ids[labels], first.size)


def build_projection(clustering: Clustering) -> sp.csr_matrix:
    """Sparse n_nodes x n_clusters projection with weights 1/sqrt(cluster size)."""
    n = clustering.assignment.size
    cols = clustering.assignment
    weights = 1.0 / np.sqrt(clustering.sizes[cols].astype(float))
    return sp.csr_matrix((weights, (np.arange(n), cols)), shape=(n, clustering.n_clusters))


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


@dataclass(frozen=True)
class ReducedModel:
    """Petrov-Galerkin reduction of a full model through a fixed projection."""

    full: FullModel
    projection: sp.csr_matrix

    def __post_init__(self):
        if self.projection.shape[0] != self.full.n_states:
            raise DimensionMismatch("projection row count must match the full state size")

    @property
    def order(self) -> int:
        return self.projection.shape[1]

    def step(self, xi, surface, forcing, dt) -> np.ndarray:
        """xi' = U^T f_step(U xi): lift, advance the full model, project back.

        ``xi`` may also be a (B, order) batch; the full model then steps all
        B lifted states in one call, and each row equals a single-state step.
        """
        return reduce_state(self.projection,
                            self.full.step(lift_state(self.projection, xi), surface, forcing, dt))
