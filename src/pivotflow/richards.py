"""Richards-equation dynamics on a cylindrical grid.

Spatial scheme: second-order central differences in flux form for the
radial, azimuthal, and vertical divergence terms, with arithmetic-mean
inter-node conductivities. Boundaries: prescribed infiltration flux at the
surface (irrigation of the active pivot sector plus rain), unit-gradient
free drainage (or optional no-flux) at the bottom, no-flux at the inner
and outer rings, periodic wrap in theta. Time integration is explicit
Euler over a fixed number of equal sub-steps per sampling interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BadSensorIndex,
    DimensionMismatch,
    NonFiniteState,
    UnstableStep,
    ValidationError,
)
from .grid import CylindricalGrid
from .soil import VanGenuchtenParams, capillary_capacity, hydraulic_conductivity, suction_logs

BOTTOM_CONDITIONS = ("free_drainage", "no_flux")


@dataclass(frozen=True)
class SurfaceInput:
    """Pivot-arm irrigation rates [m/s] per radial node, applied to one sector."""

    u: np.ndarray
    active_sector: int = 0

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        if self.u.ndim != 1:
            raise ValidationError("u must be a 1-D array of per-ring rates")
        if self.u.size and not 0 <= self.u.min() <= self.u.max() < np.inf:
            raise ValidationError("u must be finite and nonnegative")

    @classmethod
    def idle(cls, n_r: int) -> "SurfaceInput":
        return cls(np.zeros(n_r), 0)


@dataclass(frozen=True)
class StepForcing:
    """Weather forcing over one sampling interval (rates in m/s)."""

    et: float = 0.0
    k_c: float = 0.0
    rain: float = 0.0

    def __post_init__(self):
        for name in ("et", "k_c", "rain"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValidationError(f"{name} must be finite and nonnegative")


@dataclass(frozen=True)
class RootUptake:
    """Root zone extent and the piecewise-linear water-stress heads [m]."""

    root_depth: float
    h_anaerobic: float = -0.05
    h_field_capacity: float = -3.3
    h_wilting: float = -150.0

    def __post_init__(self):
        if not 0 < self.root_depth < np.inf:
            raise ValidationError("root_depth must be finite and > 0")
        if not (-np.inf < self.h_wilting < self.h_field_capacity < self.h_anaerobic <= 0):
            raise ValidationError("require -inf < h_wilting < h_field_capacity < h_anaerobic <= 0")


@dataclass
class WaterBudget:
    """Cumulative boundary and sink volumes [m^3] accumulated per sub-step."""

    inflow: float = 0.0
    drainage: float = 0.0
    extraction: float = 0.0


def stress_factor(h, roots: RootUptake, out=None):
    """Feddes-type uptake reduction beta(h) in [0, 1].

    Linear from 0 at h_anaerobic up to 1 at h_field_capacity, then down to 0
    at h_wilting. The wet ramp is at most 1 where h >= h_field_capacity and
    the dry ramp where h <= h_field_capacity, so beta is the smaller ramp,
    cut at 0 (fmax also maps a NaN head to 0).
    """
    h = np.asarray(h, dtype=float)
    ha, hfc, hw = roots.h_anaerobic, roots.h_field_capacity, roots.h_wilting
    beta = np.subtract(ha, h, out=np.empty(h.shape) if out is None else out)
    beta /= ha - hfc
    dry = np.subtract(h, hw)
    dry /= hfc - hw
    np.minimum(beta, dry, out=beta)
    return np.fmax(beta, 0.0, out=beta)


@lru_cache(maxsize=16)
def root_weight(grid: CylindricalGrid, root_depth: float) -> np.ndarray:
    """Root-zone fraction of each node's layer over root_depth [1/m], flat-index order.

    Uniform root density down to root_depth, with partial layers weighted by
    their overlap. Cached per (grid, root_depth), so every sub-step shares
    one read-only array.
    """
    if root_depth > grid.depth + 1e-12:
        raise ValidationError("root_depth exceeds grid depth")
    z_lo = np.arange(grid.n_z) * grid.dz
    z_hi = z_lo + grid.dz
    overlap = np.minimum(z_hi, grid.depth) - np.maximum(z_lo, grid.depth - root_depth)
    frac = np.clip(overlap, 0.0, None) / grid.dz
    weight = np.tile(frac / root_depth, grid.n_r * grid.n_theta)
    weight.flags.writeable = False
    return weight


@lru_cache(maxsize=16)
def _stencil(grid: CylindricalGrid):
    """Stencil factors with 1/2, 1/dr, 1/(r dr) and 1/(r dtheta)^2 folded in.

    Returns (radial_lo, radial_hi, azimuthal), each (n_nodes,) in flat-index
    order. With F = (K_a + K_b)(h_b - h_a) the unscaled flux through a face,
    a radial face between rings i and i+1 adds F * radial_lo = F r_{i+1/2} /
    (2 r_i dr^2) to ring i and takes F * radial_hi = F r_{i+1/2} / (2 r_{i+1}
    dr^2) from ring i+1, both read at ring i's entries; an azimuthal face in
    ring i weighs F by 1 / (2 (r_i dtheta)^2). The outer ring has no face
    outward: its radial entries are -0.0 in radial_lo and +0.0 in radial_hi,
    so that a zero flux through them adds -0.0 and takes +0.0, which leaves
    every rate bit for bit. Cached per grid; the arrays are read-only because
    every sub-step shares them.
    """
    width = grid.n_theta * grid.n_z
    face_r = np.arange(1, grid.n_r) * grid.dr
    r = grid.r_centers
    parts = (
        np.append(np.repeat(0.5 * face_r / (r[:-1] * grid.dr**2), width), np.full(width, -0.0)),
        np.append(np.repeat(0.5 * face_r / (r[1:] * grid.dr**2), width), np.zeros(width)),
        np.repeat(0.5 / (r * grid.dtheta) ** 2, width),
    )
    for a in parts:
        a.flags.writeable = False
    return parts


def sink_scale(grid: CylindricalGrid, forcing, roots: RootUptake | None):
    """Per-node uptake factor root_weight * -K_c * ET [1/s] of one sampling interval.

    ``forcing`` is one ``StepForcing`` shared by every state, giving an
    (n_nodes,) factor, or a sequence with one per row of a batch, giving
    (B, n_nodes). None without roots or when no row has demand.
    """
    return None if roots is None else _uptake_scale(root_weight(grid, roots.root_depth), forcing)


def _uptake_scale(weight, forcing):
    """``weight`` * -K_c * ET: weight's shape for one forcing, (B,) + weight's for one per row.

    None when no row has demand. A row without demand gets +0.0, the sink of
    a call without demand, never the -0.0 of ``weight * -0.0``, which would
    flip the sign of a zero rate.
    """
    forcings = _per_row(forcing, StepForcing, None)
    demand = forcing.k_c * forcing.et if forcings is None else np.array([[f.k_c * f.et] for f in forcings])
    if not np.any(demand):
        return None
    return weight * np.subtract(0.0, demand)


def sink_term(x, roots: RootUptake, scale, out=None):
    """Root water extraction S [1/s] per node (<= 0), flat-index order.

    S = beta(x) * scale with ``scale`` from ``sink_scale``, so total
    extraction integrates to beta-weighted K_c * ET over the field surface,
    with uniform root density down to root_depth. ``x`` may also be a
    (B, n_nodes) batch of states; ``out``, an array of x's shape, receives S.
    A ``scale`` of None gives S = 0.
    """
    x = np.asarray(x, dtype=float)
    s = np.empty(x.shape) if out is None else out
    if scale is None:
        s.fill(0.0)
        return s
    stress_factor(x, roots, out=s)
    s *= scale
    return s


def _per_row(value, kind, rows: int | None):
    """``value`` as a list with one entry per row, or None for a single ``kind`` shared by every row."""
    if isinstance(value, kind):
        return None
    value = list(value)
    if rows is not None and len(value) != rows:
        raise DimensionMismatch(f"{len(value)} {kind.__name__} values, expected one per state row ({rows})")
    return value


def _surface_flux(surface, forcing, grid: CylindricalGrid, rows: int) -> np.ndarray:
    """Infiltration flux [m/s] into each surface cell: rain plus the pivot sector's rates.

    Returns (rows, n_r, n_theta). ``surface`` and ``forcing`` are each one
    input shared by every row or a sequence with one per row; a wrong number
    raises ``DimensionMismatch``.
    """
    surfaces = _per_row(surface, SurfaceInput, rows) or [surface] * rows
    forcings = _per_row(forcing, StepForcing, rows) or [forcing] * rows
    for s in surfaces:
        if s.u.size != grid.n_r:
            raise DimensionMismatch(f"surface input has {s.u.size} rates, expected {grid.n_r}")
    n_r, n_t = grid.n_r, grid.n_theta
    q_in = np.repeat(np.array([f.rain for f in forcings], dtype=float), n_r * n_t).reshape(rows, n_r, n_t)
    sectors = [[s.active_sector % n_t] for s in surfaces]
    q_in[np.arange(rows)[:, None], np.arange(n_r), sectors] += np.stack([s.u for s in surfaces])
    return q_in


def observe(x, sensor_nodes, v=None) -> np.ndarray:
    """Measurement y = C x + v where C selects the sensor rows; v, if given, has one entry per sensor."""
    x = np.asarray(x, dtype=float)
    s = np.asarray(sensor_nodes, dtype=int)
    if s.size == 0:
        raise BadSensorIndex("sensor list is empty")
    if s.min() < 0 or s.max() >= x.size:
        raise BadSensorIndex(f"sensor index out of range [0, {x.size})")
    y = x[s].copy()
    if v is not None:
        v = np.asarray(v, dtype=float)
        if v.shape != (s.size,):
            raise DimensionMismatch(f"noise has shape {v.shape}, expected ({s.size},), one entry per sensor")
        y = y + v
    return y


class _Workspace:
    """Sub-step temporaries of one batch shape, allocated once per step call."""

    def __init__(self, shape, grid: CylindricalGrid):
        self.logs = tuple(np.empty(shape) for _ in range(3))
        self.k = np.empty(shape)
        self.c = np.empty(shape)
        self.rate = np.empty(shape)
        self.sink = np.empty(shape)
        self.face = np.empty(shape)
        # azimuthal faces, entry m + n_z after node m; the first n_z stay 0.0
        self.flux_t = np.zeros(shape[0] * shape[1] + grid.n_z)


@dataclass(frozen=True)
class FullModel:
    """Grid, soil, and integration settings bundled as the full-order model.

    The soil's fields are scalars (one soil everywhere) or flat per-node arrays.
    """

    grid: CylindricalGrid
    soil: VanGenuchtenParams
    roots: RootUptake | None = None
    substeps: int = 12
    storativity: float = 1e-4
    bottom_bc: str = "free_drainage"

    def __post_init__(self):
        if self.bottom_bc not in BOTTOM_CONDITIONS:
            raise ValidationError(f"bottom_bc must be one of {BOTTOM_CONDITIONS}")
        if self.substeps < 1:
            raise ValidationError("substeps must be >= 1")
        if not 0 < self.storativity < np.inf:
            raise ValidationError("storativity must be finite and > 0")
        if self.roots is not None and self.roots.root_depth > self.grid.depth + 1e-12:
            raise ValidationError("roots.root_depth must not exceed grid depth")
        n = self.grid.n_nodes
        shapes = {np.shape(a) for a in vars(self.soil).values()} - {(), (n,)}
        if shapes:
            raise DimensionMismatch(f"soil arrays have shape {shapes.pop()}, expected () or ({n},)")

    @property
    def n_states(self) -> int:
        return self.grid.n_nodes

    def _rates(self, h, inflow, scale, work):
        """dh/dt of a (B, n_nodes) batch into ``work.rate``, with the parts water accounting reads.

        ``inflow`` is the surface flux over dz, (B, n_r, n_theta), and
        ``scale`` the ``sink_scale`` of the interval; both are built once per
        call. Returns (dh/dt, bottom drainage flux (B, n_r, n_theta), sink S).
        """
        grid = self.grid
        n_r, n_t, n_z = grid.n_r, grid.n_theta, grid.n_z
        rows = h.shape[0]
        logs = suction_logs(h, self.soil, out=work.logs)
        k = hydraulic_conductivity(h, self.soil, logs=logs, out=work.k)
        c_eff = capillary_capacity(h, self.soil, logs=logs, out=work.c)
        np.maximum(c_eff, self.storativity, out=c_eff)
        rate = work.rate
        # the logs are spent: their arrays serve as scratch below
        df2, flux2 = work.logs[0], work.logs[1]
        df, flux = df2.reshape(-1), flux2.reshape(-1)

        # vertical: d/dz [K (dh/dz + 1)]. ``top`` holds the downward-positive
        # flux through each cell's upper face over dz, (K_a + K_b) (dh /
        # (2 dz^2) + 1 / (2 dz)), and the inflow over dz at the surface. In
        # flat order the lower face of a cell is the upper face of the entry
        # before it, except in the bottom layer, where the flat neighbour
        # belongs to another column.
        hf, kf, top, ratef = h.reshape(-1), k.reshape(-1), work.face.reshape(-1), rate.reshape(-1)
        if n_z > 1:
            np.subtract(hf[1:], hf[:-1], out=df[:-1])
            df[:-1] *= 0.5 / grid.dz**2
            df[:-1] += 0.5 / grid.dz
            np.add(kf[1:], kf[:-1], out=top[:-1])
            top[:-1] *= df[:-1]
        top3 = work.face.reshape(rows, n_r, n_t, n_z)
        top3[..., -1] = inflow
        np.subtract(top[1:], top[:-1], out=ratef[1:])
        k3, rate3 = k.reshape(top3.shape), rate.reshape(top3.shape)
        # unit-gradient drainage K(h_bottom), or no flux
        g_bottom = k3[..., 0] if self.bottom_bc == "free_drainage" else np.zeros(top3.shape[:-1])
        np.subtract(top3[..., 0], g_bottom / grid.dz, out=rate3[..., 0])

        # The radial and azimuthal faces are flat passes over the batch too: a
        # ring neighbour is n_theta n_z entries on, a theta neighbour n_z. Each
        # node adds its radial lo, radial hi and azimuthal terms in that order.
        width = n_t * n_z
        radial_lo, radial_hi, azimuthal = _stencil(grid)

        # radial: (1/(r dr)) d/dr [r K dh/dr]; no-flux at r = 0 and r = R. An
        # outer-ring entry pairs a node with the next row's inner ring: its
        # flux is set to +0.0, so it adds -0.0 and takes +0.0
        if n_r > 1:
            np.add(kf[width:], kf[:-width], out=flux[:-width])
            np.subtract(hf[width:], hf[:-width], out=df[:-width])
            flux[:-width] *= df[:-width]
            flux2[:, -width:] = 0.0
            np.multiply(flux2, radial_lo, out=df2)
            ratef[:-width] += df[:-width]
            np.multiply(flux2, radial_hi, out=df2)
            ratef[width:] -= df[:-width]

        # azimuthal: (1/r^2) d/dtheta [K dh/dtheta], periodic. flux_t[m + n_z]
        # is the face after node m; the slot after a ring's last block holds
        # the ring's wrapped face, and its first block's difference is redone
        if n_t > 1:
            flux_t = work.flux_t
            np.add(kf[:-n_z], kf[n_z:], out=flux_t[n_z:-n_z])
            np.subtract(hf[n_z:], hf[:-n_z], out=df[:-n_z])
            flux_t[n_z:-n_z] *= df[:-n_z]
            rings = (rows * n_r, width)
            k2, h2, faces = kf.reshape(rings), hf.reshape(rings), flux_t[n_z:].reshape(rings)
            wrap = np.add(k2[:, -n_z:], k2[:, :n_z], out=faces[:, -n_z:])
            wrap *= np.subtract(h2[:, :n_z], h2[:, -n_z:], out=work.logs[2].reshape(rings)[:, :n_z])
            np.subtract(flux_t[n_z:], flux_t[:-n_z], out=df)
            np.subtract(faces[:, :n_z], wrap, out=df.reshape(rings)[:, :n_z])
            df2 *= azimuthal
            ratef += df

        sink = sink_term(h, self.roots, scale, out=work.sink)
        rate += sink
        rate /= c_eff
        return rate, g_bottom, sink

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = self.grid.n_nodes
        if x.shape[-1:] != (n,) or x.ndim > 2 or x.size == 0:
            raise DimensionMismatch(f"state has shape {x.shape}, expected ({n},) or (B, {n}) with B >= 1")
        if not np.all(np.isfinite(x)):
            raise NonFiniteState("state contains non-finite entries")
        return x

    def rhs(self, x, surface, forcing):
        """Time derivative dx/dt [m/s] of one state (n_nodes,) or a batch (B, n_nodes), flat-index order.

        The inputs are shared or per row, as for ``step``.
        """
        x = self._check(x)
        grid = self.grid
        h = x.reshape(-1, grid.n_nodes)
        inflow = _surface_flux(surface, forcing, grid, h.shape[0]) / grid.dz
        scale = sink_scale(grid, forcing, self.roots)
        rate, _, _ = self._rates(h, inflow, scale, _Workspace(h.shape, grid))
        return rate.reshape(x.shape)

    def step(self, x, surface, forcing, dt, budget=None):
        """Advance the state by dt with explicit Euler over fixed equal sub-steps.

        ``x`` may be one state (n_nodes,) or a batch (B, n_nodes) of independent
        states. ``surface`` and ``forcing`` are each one input shared by every
        row, or a sequence of B inputs, one per row; a wrong count raises
        ``DimensionMismatch``. Each row gets exactly the values a single-state
        call with its own inputs would give it. ``budget`` accumulates one
        state's boundary and sink volumes.
        """
        if not 0 < dt < np.inf:
            raise ValidationError("dt must be finite and > 0")
        x = self._check(x)
        if budget is not None and x.ndim != 1:
            raise ValidationError("a water budget is kept for one state at a time")
        grid = self.grid
        h = x.reshape(-1, grid.n_nodes).copy()
        q_in = _surface_flux(surface, forcing, grid, h.shape[0])
        inflow = q_in / grid.dz
        scale = sink_scale(grid, forcing, self.roots)
        sub = dt / self.substeps
        work = _Workspace(h.shape, grid)
        if budget is not None:
            area = grid.column_area()
            volume = grid.cell_volumes()
        for _ in range(self.substeps):
            rate, g_bottom, sink = self._rates(h, inflow, scale, work)
            rate *= sub
            h += rate
            # |h| beyond any physical suction (or NaN) means the explicit update diverged
            if not np.abs(h, out=work.face).max() <= 1e6:
                raise UnstableStep(
                    f"state diverged after a sub-step of {sub:g} s; increase substeps"
                )
            if budget is not None:
                budget.inflow += float(np.sum(q_in[0] * area)) * sub
                budget.drainage += float(np.sum(g_bottom * area)) * sub
                budget.extraction += float(np.sum(-sink.reshape(volume.shape) * volume)) * sub
        return h.reshape(x.shape)

    def simulate(self, x0, inputs, dt):
        """Chain steps over (surface, forcing) pairs; returns (len(inputs)+1, n) states."""
        out = np.empty((len(inputs) + 1, self.n_states))
        out[0] = np.asarray(x0, dtype=float)
        for j, (surface, forcing) in enumerate(inputs):
            out[j + 1] = self.step(out[j], surface, forcing, dt)
        return out
