import numpy as np
import pytest

from pivotflow import CylindricalGrid, FullModel, StepForcing, SurfaceInput, VanGenuchtenParams

LOAM = VanGenuchtenParams(alpha=3.6, n_vg=1.56, theta_r=0.078, theta_s=0.43, k_s=2.9e-6)


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


def simulate_reduced(reduced, xi0, inputs, dt):
    """Chain single-state reduced steps over (surface, forcing) pairs; (len(inputs)+1, r) states."""
    out = np.empty((len(inputs) + 1, reduced.order))
    out[0] = np.asarray(xi0, dtype=float)
    for j, (surface, forcing) in enumerate(inputs):
        out[j + 1] = reduced.step(out[j], surface, forcing, dt)
    return out


def row_inputs(grid):
    """Four rows of (surface, forcing) inputs that differ in active sector, irrigation rate and rain.

    Row 2 has no crop demand (k_c * et = 0) while the others have some.
    """
    surfaces = [SurfaceInput(np.full(grid.n_r, rate), sector)
                for rate, sector in ((1e-7, 0), (4e-7, grid.n_theta - 1), (0.0, 2), (2e-7, grid.n_theta // 2))]
    forcings = [StepForcing(et=2e-8, k_c=0.5, rain=1e-8), StepForcing(et=3e-8, k_c=1.1),
                StepForcing(et=4e-8, k_c=0.0, rain=2e-8), StepForcing(et=1e-8, k_c=0.8, rain=5e-9)]
    return surfaces, forcings
