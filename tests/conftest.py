import os
import threading

import numpy as np
import pytest

from pivotflow import CylindricalGrid, FullModel, StepForcing, SurfaceInput, VanGenuchtenParams

LOAM = VanGenuchtenParams(alpha=3.6, n_vg=1.56, theta_r=0.078, theta_s=0.43, k_s=2.9e-6)


def reap_leftover_child():
    """None if this process has no child; else the pid of an exited child, now reaped, or 0 if it still runs."""
    try:
        return os.waitpid(-1, os.WNOHANG)[0]
    except ChildProcessError:
        return None


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or un-reaped, or more threads than it found."""
    threads = threading.active_count()
    yield
    left = reap_leftover_child()
    if left is not None:
        pytest.fail(f"test left a child process behind ({'still running' if left == 0 else f'pid {left}'})")
    if threading.active_count() > threads:
        pytest.fail(f"test left {threading.active_count() - threads} more thread(s) running than it found")


@pytest.fixture(scope="session")
def loam():
    return LOAM


@pytest.fixture(scope="session")
def desk_grid():
    return CylindricalGrid(n_r=10, n_theta=12, n_z=6, radius=5.0, depth=0.4)


@pytest.fixture()
def small_grid():
    return CylindricalGrid(n_r=4, n_theta=6, n_z=4, radius=2.0, depth=0.4)


@pytest.fixture()
def small_model(small_grid):
    return FullModel(small_grid, LOAM, substeps=4)


def hydrostatic_state(grid, head_at_bottom):
    """h + z constant; bottom cell center at z = dz/2."""
    z = grid.node_coordinates()[2]
    return head_at_bottom + grid.dz / 2 - z


def dense_cov(diag, offdiag, n):
    """(diag - offdiag) I + offdiag 1 1^T: NoiseConfig's structured Q or P0, materialized."""
    return (diag - offdiag) * np.eye(n) + offdiag * np.ones((n, n))


def dense_projection(clustering):
    """U as a dense (n, r) array: node i's row holds its cluster's weight in that cluster's column."""
    cluster = clustering.assignment
    u = np.zeros((cluster.size, clustering.n_clusters))
    u[np.arange(cluster.size), cluster] = clustering.weights[cluster]
    return u


def merge_log(data, th_c):
    """The merges below th_c of the average linkage that cluster_trajectories cuts.

    Each entry is (smallest member of the absorbing cluster, smallest member
    of the absorbed one, distance); the absorbing cluster holds the smaller
    node. ``data`` is (time, nodes), as in a SnapshotMatrix.
    """
    from scipy.cluster.hierarchy import linkage
    from scipy.spatial.distance import pdist

    data = np.asarray(data, dtype=float)
    if data.shape[1] < 2:
        return ()
    smallest = list(range(data.shape[1]))  # smallest member node of each linkage cluster id
    merges = []
    for a, b, dist, _ in linkage(pdist(data.T), method="average"):
        if not dist < th_c:
            break
        i, j = sorted((smallest[int(a)], smallest[int(b)]))
        smallest.append(i)
        merges.append((i, j, float(dist)))
    return tuple(merges)


def row_inputs(grid):
    """Four rows of (surface, forcing) inputs that differ in active sector, irrigation rate and rain.

    Row 2 has no crop demand (k_c * et = 0) while the others have some.
    """
    surfaces = [SurfaceInput(np.full(grid.n_r, rate), sector)
                for rate, sector in ((1e-7, 0), (4e-7, grid.n_theta - 1), (0.0, 2), (2e-7, grid.n_theta // 2))]
    forcings = [StepForcing(et=2e-8, k_c=0.5, rain=1e-8), StepForcing(et=3e-8, k_c=1.1),
                StepForcing(et=4e-8, k_c=0.0, rain=2e-8), StepForcing(et=1e-8, k_c=0.8, rain=5e-9)]
    return surfaces, forcings
