"""Trajectory-clustered model reduction.

Snapshots of the full model are clustered per node trajectory with
agglomerative average linkage (an exact split of the nodes along their
projections on the ones vector and their time rows, then scipy's NN-chain
algorithm on each block wider than th_c, cut strictly below th_c, ids in
first-member order), and the resulting clustering defines the
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

import os
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonFiniteState, ValidationError
from .grid import _integral
from .richards import FullModel, _euler, _node_terms, _rows_of, _stencil, _surface_flux, _uptake_scale, root_weight
from .soil import VanGenuchtenParams


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
    """Partition of nodes: assignment[i] is the cluster id of node i; ``sizes`` and ``weights`` are computed once."""

    assignment: np.ndarray
    n_clusters: int

    def __post_init__(self):
        given = np.asarray(self.assignment)
        if not _integral(given):
            raise ValidationError("cluster assignment must hold integer ids")
        object.__setattr__(self, "assignment", np.asarray(given, dtype=int))
        if self.assignment.ndim != 1 or self.assignment.size == 0:
            raise ValidationError(f"cluster assignment has shape {self.assignment.shape}, expected (n,), n >= 1")
        ids = np.unique(self.assignment)
        if not (ids.size == self.n_clusters and ids[0] == 0 and ids[-1] == self.n_clusters - 1):
            raise ValidationError("cluster ids must form a contiguous range [0, n_clusters)")

    @cached_property
    def sizes(self) -> np.ndarray:
        sizes = np.bincount(self.assignment, minlength=self.n_clusters)
        sizes.flags.writeable = False
        return sizes

    @cached_property
    def weights(self) -> np.ndarray:
        """(n_clusters,) weight 1/sqrt(size) with which each cluster's coordinate lifts to its nodes; read-only."""
        weights = 1.0 / np.sqrt(self.sizes.astype(float))
        weights.flags.writeable = False
        return weights

    @classmethod
    def singletons(cls, n_nodes: int) -> "Clustering":
        return cls(np.arange(n_nodes), n_nodes)


def _windows(starts, inputs, offsets):
    """``starts`` as a (W, size) batch, ``offsets`` as W integer ticks, and the windows' common horizon."""
    starts, ticks = np.atleast_2d(np.asarray(starts, dtype=float)), np.asarray(offsets)
    if _integral(ticks):
        ticks = ticks.astype(int)
    if (ticks.dtype.kind != "i" or ticks.size == 0 or ticks.shape != starts.shape[:1]
            or np.any(np.diff(ticks) < 0) or ticks[0] < 0):
        raise DimensionMismatch("offsets must be integral, ascending, nonnegative and one per start, at least one")
    if len(inputs) <= ticks[-1]:
        raise ValidationError("an open-loop run needs at least one interval after its last offset")
    return starts, ticks, len(inputs) - int(ticks[-1])


def rollout(model, starts, inputs, dt: float, offsets=(0,)) -> np.ndarray:
    """Noise-free open-loop runs of ``model`` (a ``FullModel`` or ``ReducedModel``) from W start states.

    ``starts`` is a (W, size) batch, or one (size,) state, and ``offsets``
    its W ascending, nonnegative integer ticks. Window w runs over
    ``inputs[offsets[w]:offsets[w] + horizon]``, ``horizon = len(inputs) -
    offsets[-1]`` >= 1. The windows advance in lock step: at local tick j one
    ``model.step`` call advances every row, row w with ``inputs[offsets[w] +
    j]``, so each row equals its one-row run bit for bit. Returns the (W,
    horizon + 1, size) trajectories, start states first.
    """
    starts, ticks, horizon = _windows(starts, inputs, offsets)
    traj = np.empty((ticks.size, horizon + 1, starts.shape[1]))
    traj[:, 0] = starts
    for j in range(horizon):
        surfaces, forcings = zip(*(inputs[t + j] for t in ticks))
        traj[:, j + 1] = model.step(traj[:, j], surfaces, forcings, dt)
    return traj


def generate_snapshots(model: FullModel, x0, inputs, dt: float) -> SnapshotMatrix:
    """Noise-free open-loop run of the full model from x0 over the input schedule."""
    return SnapshotMatrix(rollout(model, x0, inputs, dt)[0])


def cluster_trajectories(snapshots: SnapshotMatrix, th_c: float) -> Clustering:
    """Agglomerative average-linkage clustering of node trajectories.

    Starts from singletons and merges the pair at minimum average-linkage
    distance while that minimum is below th_c. Cluster ids follow each
    cluster's first member node.

    Exact refinement before any distance: average linkage is reducible, so a
    merge below th_c needs a pair closer than th_c, and if every pair across
    two parts of the nodes is th_c or more apart, each part clusters alone.
    Sorted values cut wherever neighbours lie th_c apart give such parts when
    the values bound the distance from below: the projection on the unit
    vector v = 1/sqrt(T), as |<a - b, v>| <= ||a - b||, and each time row, as
    |a_t - b_t| <= ||a - b||. The nodes are first cut on their projections;
    then each block
    1. is one cluster if its bounding-box diagonal sqrt(sum_t (max_t -
       min_t)^2), which bounds every distance inside it, is below th_c: every
       merge inside it is then below th_c too;
    2. else is cut along the first of its time rows and its projection, in
       order of decreasing spread, that cuts it, and each part goes through
       these steps again;
    3. else runs scipy's NN-chain linkage on its condensed Euclidean
       distances, node ids ascending; only such a block imports scipy.cluster
       and scipy.spatial.

    Each cut and the one-cluster test need a margin of 1e-9 (th_c + sqrt(T)
    max|x|) over th_c (x is the data less its row minima). The rounding of x,
    of the projections, the diagonal and the distances, and of the linkage's
    averages over a block of m nodes is at most a few (T + m) eps times th_c
    + sqrt(T) max|x|, far below the margin while T + m is far below 10^6, so
    no cut separates a pair that merges and no block taken as one cluster
    holds a merge at th_c or above.

    Exact distance ties resolve in NN-chain order within each linkage block:
    every cluster holds a slot, first its node index, and a merged pair keeps
    the larger slot. The chain starts at the lowest live slot, steps to the
    lowest-slot nearest neighbour (staying with the previous chain element
    on a tie) and merges the first mutual nearest pair it reaches.

    Raises ``NonFiniteState`` when sqrt(sum_t ptp_t^2), the bound on every
    pairwise distance from each time row's spread ptp_t, is not finite, even
    where the pairs that would overflow fall in different blocks.
    """
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
    margin = 1e-9 * (th_c + root_t * x.max())
    proj = x.sum(axis=0) / root_t
    order = np.argsort(proj, kind="stable")
    pending = np.split(order, np.flatnonzero(np.diff(proj[order]) >= th_c + margin) + 1)
    labels = np.empty(n, dtype=int)
    offset = 0
    while pending:
        block = pending.pop()
        rows = x[:, block]
        spread = np.append(np.ptp(rows, axis=1), np.ptp(proj[block]))
        if block.size == 1 or np.sqrt(np.sum(spread[:-1] ** 2)) + margin < th_c:
            labels[block] = offset + 1
            offset += 1
            continue
        wide = np.flatnonzero(spread >= th_c + margin)
        for t in wide[np.argsort(-spread[wide], kind="stable")]:
            values = rows[t] if t < rows.shape[0] else proj[block]
            ranked = np.argsort(values, kind="stable")
            cuts = np.flatnonzero(np.diff(values[ranked]) >= th_c + margin) + 1
            if cuts.size:
                pending += np.split(block[ranked], cuts)
                break
        else:
            # imported here, by the first block that needs linkage: scipy.cluster/scipy.spatial (and the
            # scipy.sparse they load) add about 0.34 s and 36 MB
            from scipy.cluster.hierarchy import fcluster, linkage
            from scipy.spatial.distance import pdist

            block.sort()
            # indexing copies the block's rows C-contiguous; pdist on a strided view is ~2x slower
            tree = linkage(pdist(snapshots.data.T[block]), method="average")
            labels[block] = offset + fcluster(tree, np.nextafter(th_c, -np.inf), criterion="distance")
            offset = labels[block].max()
    # renumber the blocks' labels in the order of each cluster's first member node
    _, first = np.unique(labels, return_index=True)
    ids = np.empty(labels.max() + 1, dtype=int)
    ids[labels[np.sort(first)]] = np.arange(first.size)
    return Clustering(ids[labels], first.size)


def reduce_state(clustering: Clustering, x) -> np.ndarray:
    """xi = U^T x of one state (n,) or of each row of a batch (B, n).

    Each cluster's weighted nodes are summed in ascending node order, so each
    row of a batch equals the single-state result bit for bit.
    """
    cluster, r = clustering.assignment, clustering.n_clusters
    x = _rows_of(x, cluster.size, "state")
    rows = x.reshape(-1, cluster.size)
    index = np.arange(rows.shape[0])[:, None] * r + cluster
    weighted = rows * clustering.weights[cluster]
    xi = np.bincount(index.ravel(), weights=weighted.ravel(), minlength=rows.shape[0] * r)
    return xi.reshape(x.shape[:-1] + (r,))


def lift_state(clustering: Clustering, xi) -> np.ndarray:
    """x_tilde = U xi of one reduced state (r,) or of each row of a batch (B, r), C-ordered.

    Each row of a batch equals the single-state result bit for bit.
    """
    weighted = _rows_of(xi, clustering.n_clusters, "reduced state") * clustering.weights
    return np.take(weighted, clustering.assignment, axis=-1)


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
    soil: VanGenuchtenParams  # one entry per group
    src: np.ndarray         # (P,) ordered group pairs that share a face
    dst: np.ndarray
    diffusive: np.ndarray   # (P,) summed stencil coefficients
    gravity: np.ndarray
    surface: np.ndarray     # group of each surface cell, in (n_r, n_theta) order
    drain: np.ndarray       # (G,) bottom cells over dz under free drainage, else 0
    roots: np.ndarray       # (G,) summed root weights (zeros without roots)


def _coarse_graph(full: FullModel, cluster: np.ndarray) -> _CoarseGraph:
    """The coarse graph of ``full``'s grid under the partition ``cluster``."""
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
        (np.arange(n - width), np.arange(width, n), radial_lo[:-width], radial_hi[:-width], 0.0),
    ]
    if n_t > 1:  # periodic: face j joins theta j and j + 1 mod n_theta
        faces.append((nodes.ravel(), np.roll(nodes, -1, axis=1).ravel(), azimuthal, azimuthal, 0.0))
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

    The clustering is the projection U: ``reduce_state`` and ``lift_state``
    apply it by index. The coarse graph of the clustering is built once, at
    construction.
    """

    full: FullModel
    clustering: Clustering
    _graph: _CoarseGraph | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cluster, n = self.clustering.assignment, self.full.n_states
        if cluster.size != n:
            raise DimensionMismatch(f"clustering covers {cluster.size} nodes, the full model has {n}")
        identity = np.array_equal(cluster, np.arange(n))
        object.__setattr__(self, "_graph", None if identity else _coarse_graph(self.full, cluster))

    @property
    def order(self) -> int:
        return self.clustering.n_clusters

    def step(self, xi, surface, forcing, dt) -> np.ndarray:
        """Advance xi by dt with xi <- xi + dt_sub U^T f(U xi) over the full model's sub-steps.

        f is the full model's right-hand side, so this is explicit Euler on
        the Galerkin-projected dynamics. Per sub-step it evaluates the soil
        closures once per group and one flux per group pair, and it raises
        ``UnstableStep`` when a lifted head leaves |h| <= ``MAX_HEAD``, as
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
        xi = _rows_of(xi, self.order, "reduced state", finite=True)
        full = self.full
        grid = full.grid
        n_groups, order, weights = graph.cluster.size, self.order, self.clustering.weights
        out = xi.reshape(-1, order).copy()
        rows, state = out.shape[0], out.reshape(-1)
        # The batch runs flat, group g of row b at entry b G + g, with per-group
        # and per-pair constants laid out so once per call. Every index is in
        # range, so take runs unbuffered (mode="clip"), and bincount adds in a
        # fixed order, so a row's sums do not depend on the batch.
        offset = np.arange(rows)[:, None] * n_groups
        size = rows * n_groups
        inflow = np.bincount((offset + graph.surface).ravel(),
                             weights=(_surface_flux(surface, forcing, grid, rows) / grid.dz).ravel(),
                             minlength=size)
        scale = None if full.roots is None else _uptake_scale(graph.roots, forcing)
        scale = scale if scale is None else np.broadcast_to(scale, (rows, n_groups)).ravel()
        to_group = (offset + graph.src).ravel()
        ends = np.stack([to_group, (offset + graph.dst).ravel()])  # both ends of every pair
        to_cluster = (np.arange(rows)[:, None] * order + graph.cluster).ravel()
        per_group, per_pair = np.arange(size) % n_groups, np.arange(to_group.size) % graph.src.size
        weight, drain, soil = weights[graph.cluster[per_group]], graph.drain[per_group], graph.soil._pick(per_group)
        diffusive, gravity = graph.diffusive[per_pair], graph.gravity[per_pair]
        col_weight = weights[np.arange(state.size) % order]
        h, k, c, rate, sink, *logs = (np.empty(size) for _ in range(8))
        pair_k, pair_h = np.empty((2,) + ends.shape)
        (k_src, k_dst), (h_src, h_dst) = pair_k, pair_h

        def rates():
            nonlocal h, rate
            state.take(to_cluster, out=h, mode="clip")
            h *= weight
            _node_terms(full, soil, h, scale, logs, k, c, sink)
            k.take(ends, out=pair_k, mode="clip")
            h.take(ends, out=pair_h, mode="clip")
            flow = np.add(k_src, k_dst, out=k_src)
            head = np.subtract(h_dst, h_src, out=h_src)
            head *= diffusive
            head += gravity
            flow *= head
            np.subtract(inflow, np.multiply(k, drain, out=rate), out=rate)
            rate += np.bincount(to_group, weights=flow, minlength=size)
            rate += sink
            rate /= c
            rate *= weight
            return np.bincount(to_cluster, weights=rate, minlength=state.size)

        return _euler(state, rates, full.substeps, dt, "reduced state", weight=col_weight).reshape(xi.shape)


# The helper forks only when its half of a call's full-model work (windows x horizon x nodes x sub-steps)
# reaches this many node-substeps: below it, the fork's fixed cost and the copy-on-write faults it leaves
# on the steps after it outweigh the half it takes (measured break-even: README, "Notes on scale").
_FORK_WORK = 1_200_000
# Full-model entries (rows x nodes) per chunk of windows: a wider call's sub-step arrays outgrow a 4 MB
# L2, and each row then costs more, not less (ROADMAP item 14).
_CHUNK_ENTRIES = 24_000


def compute_error_metric(reduced, x_hat_full, inputs, dt: float, offsets) -> np.ndarray:
    """Mean-per-node cumulative absolute gap between reduced and full open-loop runs, per window.

    Both models run open loop from the (W, n) full-grid starts ``x_hat_full``
    over the windows of ``offsets``, as in ``rollout``. ``reduced`` is one
    ``ReducedModel`` or a sequence of W, one per window, all over one
    ``full`` model (else ``ValidationError``). W gaps are returned.

    The windows run in chunks of ``max(1, _CHUNK_ENTRIES // n)``; a chunk
    makes one lock-step full rollout, then one reduced rollout per distinct
    model. A window's full run precedes its reduced run, so if both diverge
    the full run's error is raised.

    With two or more windows, at least two CPUs and a later half whose
    full-model work reaches ``_FORK_WORK``, a one-worker
    ``ProcessPoolExecutor`` on the ``fork`` context runs the later half of
    the windows while this process runs the earlier half. Rows equal their
    one-row runs bit for bit, so the gaps depend neither on the split nor on
    the chunks. The executor's worker and threads are joined before the call
    returns or raises. A helper's exception, such as a ``PivotflowError``, is
    raised here with its type and message; a helper that exits without a
    result raises ``ChildProcessError``. Without a process to spare, every
    window runs here.
    """
    starts, ticks, horizon = _windows(x_hat_full, inputs, offsets)
    models = [reduced] * ticks.size if isinstance(reduced, ReducedModel) else list(reduced)
    if len(models) != ticks.size:
        raise DimensionMismatch(f"{len(models)} reduced models for {ticks.size} windows")
    full = models[0].full
    if any(model.full is not full for model in models):
        raise ValidationError("the windows' reduced models must share one full model")
    half = ticks.size // 2
    work = (ticks.size - half) * horizon * full.n_states * full.substeps
    if ticks.size < 2 or work < _FORK_WORK or not hasattr(os, "fork") or _cpus() < 2:
        return _window_gaps(models, starts, inputs, ticks, dt)

    # imported here, by the first call that forks
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as helper:
        try:
            tail = helper.submit(_window_gaps, models[half:], starts[half:], inputs, ticks[half:], dt)
        except OSError:  # no process to spare: run every window here
            return _window_gaps(models, starts, inputs, ticks, dt)
        # the earlier half's inputs end where the later half's do: every window keeps the horizon
        head = _window_gaps(models[:half], starts[:half], inputs[:ticks[half - 1] + horizon], ticks[:half], dt)
        try:
            return np.concatenate([head, tail.result()])
        except BrokenExecutor as exc:
            raise ChildProcessError("e_L helper process exited without a result") from exc


def _window_gaps(models, starts: np.ndarray, inputs, ticks: np.ndarray, dt: float) -> np.ndarray:
    """The e_L gaps of the windows at ``ticks``, window w under ``models[w]``, chunk by chunk."""
    n, horizon = starts.shape[1], len(inputs) - int(ticks[-1])
    size = max(1, _CHUNK_ENTRIES // n)
    gaps = np.empty(ticks.size)
    for lo in range(0, ticks.size, size):
        chunk = np.arange(lo, min(lo + size, ticks.size))
        # each run's inputs end where its last window's do, so every window keeps the horizon
        full = rollout(models[lo].full, starts[chunk], inputs[:ticks[chunk[-1]] + horizon], dt, ticks[chunk])
        by_model = {}
        for w in chunk:
            by_model.setdefault(id(models[w]), []).append(w)
        for rows in by_model.values():
            model = models[rows[0]]
            red = rollout(model, reduce_state(model.clustering, starts[rows]), inputs[:ticks[rows[-1]] + horizon],
                          dt, ticks[rows])
            # each gap is written in place into the window's C-ordered full run, which keeps the summation order
            for w, r in zip(rows, red):
                gap = full[w - lo, 1:]
                gaps[w] = np.abs(np.subtract(gap, lift_state(model.clustering, r[1:]), out=gap), out=gap).sum() / n
    return gaps


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
