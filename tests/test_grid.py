"""Cylindrical grid indexing and geometry tests."""

import numpy as np
import pytest

from pivotflow import CylindricalGrid, ValidationError


def test_node_count():
    g = CylindricalGrid(5, 8, 3, radius=10.0, depth=0.6)
    assert g.n_nodes == 5 * 8 * 3


def test_flat_index_is_a_bijection():
    g = CylindricalGrid(4, 6, 5, radius=2.0, depth=0.4)
    seen = set()
    for i in range(g.n_r):
        for j in range(g.n_theta):
            for k in range(g.n_z):
                idx = g.flat_index(i, j, k)
                assert 0 <= idx < g.n_nodes
                assert np.unravel_index(idx, (g.n_r, g.n_theta, g.n_z)) == (i, j, k)
                seen.add(idx)
    assert len(seen) == g.n_nodes


def test_radii_strictly_positive_and_offset_from_axis():
    g = CylindricalGrid(7, 4, 2, radius=3.5, depth=0.4)
    assert g.r_centers[0] == pytest.approx(g.dr / 2)
    assert np.all(g.r_centers > 0)


def test_cell_volumes_fill_cylinder():
    g = CylindricalGrid(9, 11, 4, radius=6.0, depth=0.5)
    total = g.cell_volumes().sum()
    assert total == pytest.approx(np.pi * g.radius**2 * g.depth, rel=1e-12)


def test_column_area_fills_disk():
    g = CylindricalGrid(12, 7, 3, radius=4.0, depth=0.3)
    assert g.column_area().sum() == pytest.approx(np.pi * g.radius**2, rel=1e-12)


def test_quadrants_cover_and_order():
    g = CylindricalGrid(2, 12, 2, radius=1.0, depth=0.2)
    q = g.quadrant_of_node()
    assert set(q) == {0, 1, 2, 3}
    # each quadrant holds the same number of nodes when n_theta % 4 == 0
    assert all((q == i).sum() == g.n_nodes // 4 for i in range(4))


def test_reshape_roundtrip():
    g = CylindricalGrid(3, 5, 2, radius=1.0, depth=0.2)
    x = np.arange(g.n_nodes, dtype=float)
    assert np.array_equal(g.flatten(g.reshape(x)), x)


def test_invalid_dimensions_rejected():
    with pytest.raises(ValidationError):
        CylindricalGrid(0, 4, 4, radius=1.0, depth=0.4)
    with pytest.raises(ValidationError):
        CylindricalGrid(4, 4, 4, radius=-1.0, depth=0.4)
    g = CylindricalGrid(2, 2, 2, radius=1.0, depth=0.4)
    with pytest.raises(ValidationError):
        g.flat_index(2, 0, 0)
