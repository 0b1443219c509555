"""Cylindrical grid geometry and node indexing.

Nodes are cell centers: annular rings at r_i = (i + 1/2) dr (no node on the
axis), full 2*pi azimuthal coverage, and vertical layers indexed bottom-up
(k = 0 deepest, k = n_z - 1 at the surface). The flat node index is
idx = (i_r * n_theta + i_theta) * n_z + i_z.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class CylindricalGrid:
    n_r: int
    n_theta: int
    n_z: int
    radius: float
    depth: float

    def __post_init__(self):
        for name in ("n_r", "n_theta", "n_z"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if not self.radius > 0:
            raise ValidationError("radius must be > 0")
        if not self.depth > 0:
            raise ValidationError("depth must be > 0")

    @property
    def n_nodes(self) -> int:
        return self.n_r * self.n_theta * self.n_z

    @property
    def dr(self) -> float:
        return self.radius / self.n_r

    @property
    def dtheta(self) -> float:
        return 2.0 * np.pi / self.n_theta

    @property
    def dz(self) -> float:
        return self.depth / self.n_z

    @property
    def r_centers(self) -> np.ndarray:
        """Ring radii, innermost at dr/2."""
        return (np.arange(self.n_r) + 0.5) * self.dr

    @property
    def z_centers(self) -> np.ndarray:
        """Heights above the bottom boundary (surface layer last)."""
        return (np.arange(self.n_z) + 0.5) * self.dz

    def flat_index(self, i_r: int, i_theta: int, i_z: int) -> int:
        if not (0 <= i_r < self.n_r and 0 <= i_theta < self.n_theta and 0 <= i_z < self.n_z):
            raise ValidationError("grid index out of range")
        return (i_r * self.n_theta + i_theta) * self.n_z + i_z

    def reshape(self, x: np.ndarray) -> np.ndarray:
        """View a flat state vector as (n_r, n_theta, n_z)."""
        return np.asarray(x).reshape(self.n_r, self.n_theta, self.n_z)

    def flatten(self, field3d: np.ndarray) -> np.ndarray:
        return np.asarray(field3d).reshape(self.n_nodes)

    def column_area(self) -> np.ndarray:
        """Horizontal area r*dr*dtheta of each (r, theta) column, shape (n_r, n_theta)."""
        return np.broadcast_to(
            (self.r_centers * self.dr * self.dtheta)[:, None], (self.n_r, self.n_theta)
        ).copy()

    def cell_volumes(self) -> np.ndarray:
        """Cell volumes, shape (n_r, n_theta, n_z)."""
        return np.broadcast_to(
            (self.r_centers * self.dr * self.dtheta * self.dz)[:, None, None],
            (self.n_r, self.n_theta, self.n_z),
        ).copy()

    def node_coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(r, theta, z) of every node in flat-index order; z is height above bottom."""
        rr, tt, zz = np.meshgrid(
            self.r_centers,
            np.arange(self.n_theta) * self.dtheta,
            self.z_centers,
            indexing="ij",
        )
        return self.flatten(rr), self.flatten(tt), self.flatten(zz)

    def quadrant_of_node(self) -> np.ndarray:
        """Azimuthal quadrant id (0..3) per node, flat-index order."""
        quad_of_theta = (np.arange(self.n_theta) * 4) // self.n_theta
        q3d = np.broadcast_to(quad_of_theta[None, :, None], (self.n_r, self.n_theta, self.n_z))
        return self.flatten(q3d)
