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
from .grid import CylindricalGrid, _integer, _integral, _number, _real
from .soil import VanGenuchtenParams, capillary_capacity, hydraulic_conductivity, suction_logs

BOTTOM_CONDITIONS = ("free_drainage", "no_flux")
# |h| [m] beyond any physical suction: a stepped head past it (or NaN) means the explicit update diverged
MAX_HEAD = 1e6


@dataclass(frozen=True)
class SurfaceInput:
    """Pivot-arm irrigation rates [m/s] per radial node, applied to one sector."""

    u: np.ndarray
    active_sector: int = 0

    def __post_init__(self):
        if not (_real(self.u) and np.ndim(self.u) == 1):
            raise ValidationError("u must be a 1-D array of per-ring rates")
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        if self.u.size and not 0 <= self.u.min() <= self.u.max() < np.inf:
            raise ValidationError("u must be finite and nonnegative")
        if not _integer(self.active_sector):
            raise ValidationError("active_sector must be an integer")
        object.__setattr__(self, "active_sector", int(self.active_sector))

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
        for name, value in (("et", self.et), ("k_c", self.k_c), ("rain", self.rain)):
            if not (_number(value) and 0 <= value < np.inf):
                raise ValidationError(f"{name} must be finite and nonnegative")


@dataclass(frozen=True)
class RootUptake:
    """Root zone extent and the piecewise-linear water-stress heads [m]."""

    root_depth: float
    h_anaerobic: float = -0.05
    h_field_capacity: float = -3.3
    h_wilting: float = -150.0

    def __post_init__(self):
        if not (_number(self.root_depth) and 0 < self.root_depth < np.inf):
            raise ValidationError("root_depth must be finite and > 0")
        heads = (self.h_wilting, self.h_field_capacity, self.h_anaerobic)
        if not (all(map(_number, heads)) and -np.inf < self.h_wilting < self.h_field_capacity < self.h_anaerobic <= 0):
            raise ValidationError("require -inf < h_wilting < h_field_capacity < h_anaerobic <= 0")


@dataclass
class WaterBudget:
    """Cumulative boundary and sink volumes [m^3] accumulated per sub-step."""

    inflow: float = 0.0
    drainage: float = 0.0
    extraction: float = 0.0


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
    with uniform root density down to root_depth. The Feddes-type beta is
    the smaller of a wet ramp (0 at h_anaerobic, 1 at h_field_capacity) and
    a dry ramp (1 there, 0 at h_wilting), cut at 0; fmax maps NaN to 0.
    ``x`` may also be a (B, n_nodes) batch of states; ``out``, an array of
    x's shape, receives S. A ``scale`` of None gives S = 0.
    """
    x = np.asarray(x, dtype=float)
    s = np.empty(x.shape) if out is None else out
    if scale is None:
        s.fill(0.0)
        return s
    ha, hfc, hw = roots.h_anaerobic, roots.h_field_capacity, roots.h_wilting
    np.subtract(ha, x, out=s)
    s /= ha - hfc
    dry = np.subtract(x, hw)
    dry /= hfc - hw
    np.minimum(s, dry, out=s)
    np.fmax(s, 0.0, out=s)
    s *= scale
    return s


def _node_terms(model, soil, h, scale, logs, k, c, sink):
    """Both steppers' per-node physics at heads ``h``: suction logs, K, C floored at storativity, and the sink.

    Writes them into ``logs``, ``k``, ``c`` and ``sink``; ``soil`` is ``model.soil`` or one entry per entry of ``h``.
    Calls each closure by its name in this module, in the caller's errstate (``_euler``, ``FullModel.rhs``).
    """
    terms = suction_logs(h, soil, out=logs)
    hydraulic_conductivity(h, soil, logs=terms, out=k)
    np.maximum(capillary_capacity(h, soil, logs=terms, out=c), model.storativity, out=c)
    sink_term(h, model.roots, scale, out=sink)


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


def _sensor_nodes(sensor_nodes, n_nodes: int) -> np.ndarray:
    """``sensor_nodes`` as integer indices of n_nodes nodes.

    Integral floats are accepted, as in a cluster assignment. An empty list,
    a fractional or non-finite index, or one outside [0, n_nodes) raises
    ``BadSensorIndex``.
    """
    s = np.asarray(sensor_nodes)
    if s.size == 0:
        raise BadSensorIndex("sensor list is empty")
    if not _integral(s):
        raise BadSensorIndex("sensor indices must be integers")
    if s.min() < 0 or s.max() >= n_nodes:
        raise BadSensorIndex(f"sensor index out of range [0, {n_nodes})")
    return s.astype(int)


def _rows_of(x, size: int, what: str, finite: bool = False) -> np.ndarray:
    """``x`` as floats, checked to be one vector (size,) or a batch (B, size) and, if ``finite``, to be finite."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != size or x.size == 0:
        raise DimensionMismatch(f"{what} has shape {x.shape}, expected ({size},) or (B, {size}) with B >= 1")
    if finite and not np.all(np.isfinite(x)):
        raise NonFiniteState(f"{what} contains non-finite entries")
    return x


def observe(x, sensor_nodes, v=None) -> np.ndarray:
    """Measurement y = C x + v where C selects the sensor rows; v, if given, has one entry per sensor."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch(f"state has shape {x.shape}, expected one state (n_nodes,)")
    s = _sensor_nodes(sensor_nodes, x.size)
    y = x[s].copy()
    if v is not None:
        v = np.asarray(v, dtype=float)
        if v.shape != (s.size,):
            raise DimensionMismatch(f"noise has shape {v.shape}, expected ({s.size},), one entry per sensor")
        y = y + v
    return y


def _euler(state, rates, substeps: int, dt: float, what: str, weight=None, book=None):
    """Explicit Euler in place: ``substeps`` times state += sub * rates(), sub = dt / substeps, then ``book(sub)``.

    dt outside (0, inf) raises ``ValidationError``, and a spent rate's heads (``state`` or ``state * weight``)
    beyond |h| <= ``MAX_HEAD`` or NaN raise ``UnstableStep``.
    """
    if not 0 < dt < np.inf:
        raise ValidationError("dt must be finite and > 0")
    sub = dt / substeps
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(substeps):
            rate = rates()
            rate *= sub
            state += rate
            heads = state if weight is None else np.multiply(state, weight, out=rate)
            if not np.abs(heads, out=rate).max() <= MAX_HEAD:
                raise UnstableStep(f"{what} diverged after a sub-step of {sub:g} s; increase substeps")
            if book is not None:
                book(sub)
    return state


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
        if not (_integer(self.substeps) and self.substeps >= 1):
            raise ValidationError("substeps must be an integer >= 1")
        object.__setattr__(self, "substeps", int(self.substeps))
        if not (_number(self.storativity) and 0 < self.storativity < np.inf):
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

    def _rates(self, h, inflow, scale):
        """The rate pass of one call on its (B, n_nodes) batch ``h``: a function ``rates()``.

        ``inflow`` is the surface flux over dz, (B, n_r, n_theta), and
        ``scale`` the ``sink_scale`` of the interval. The call's buffers, and
        every view of them and of ``h`` that the pass reads, are bound here
        once per call, not once per sub-step. ``step`` updates ``h`` in place,
        so its views follow every update. A flat neighbour lies ``s`` entries
        on, with s = 1 (vertical), n_z (azimuthal) and n_theta n_z (radial),
        so a pass pairs a[s:] with a[:-s]. Returns ``rates`` with the bottom
        drainage flux (B, n_r, n_theta) and the sink S that water accounting
        reads: each ``rates()`` evaluates dh/dt at ``h``'s current values, and
        the next call overwrites all three arrays.
        """
        grid = self.grid
        rows, (n_r, n_t, n_z) = h.shape[0], (grid.n_r, grid.n_theta, grid.n_z)
        width = n_t * n_z
        k, c, rate, sink, face, *logs = (np.empty(h.shape) for _ in range(8))
        radial_lo, radial_hi, azimuthal = _stencil(grid)
        dz = grid.dz
        # the logs are spent once K and C are evaluated: their arrays serve as scratch
        df2, flux2 = logs[0], logs[1]
        df, flux = df2.reshape(-1), flux2.reshape(-1)
        hf, kf, top, ratef = h.reshape(-1), k.reshape(-1), face.reshape(-1), rate.reshape(-1)

        # vertical: ``top`` holds the flux through each cell's upper face over dz
        if n_z > 1:
            h_above, h_below, v_diff, k_above, k_below, v_top = hf[1:], hf[:-1], df[:-1], kf[1:], kf[:-1], top[:-1]
            half_over_dz2, half_over_dz = 0.5 / dz**2, 0.5 / dz
        top3 = face.reshape(rows, n_r, n_t, n_z)
        surface_face, face_ahead, face_behind, rate_ahead = top3[..., -1], top[1:], top[:-1], ratef[1:]
        k3, rate3 = k.reshape(top3.shape), rate.reshape(top3.shape)
        # unit-gradient drainage K(h_bottom), or no flux; ``drain`` receives it over dz
        bottom = k3[..., 0] if self.bottom_bc == "free_drainage" else np.zeros(top3.shape[:-1])
        drain = np.empty(top3.shape[:-1])
        bottom_face, bottom_rate = top3[..., 0], rate3[..., 0]

        if n_r > 1:
            k_out, k_in, r_flux, h_out, h_in = kf[width:], kf[:-width], flux[:-width], hf[width:], hf[:-width]
            r_diff, outer, rate_in, rate_out = df[:-width], flux2[:, -width:], ratef[:-width], ratef[width:]

        if n_t > 1:
            # azimuthal faces, entry m + n_z after node m; the first n_z stay 0.0
            flux_t = np.zeros(h.size + n_z)
            rings = (rows * n_r, width)
            k2, h2, faces = kf.reshape(rings), hf.reshape(rings), flux_t[n_z:].reshape(rings)
            k_before, k_after, t_flux, h_after, h_before = kf[:-n_z], kf[n_z:], flux_t[n_z:-n_z], hf[n_z:], hf[:-n_z]
            t_diff, k_last, k_first, wrap = df[:-n_z], k2[:, -n_z:], k2[:, :n_z], faces[:, -n_z:]
            h_first, h_last, wrap_diff = h2[:, :n_z], h2[:, -n_z:], logs[2].reshape(rings)[:, :n_z]
            face_after, face_before, first_faces = flux_t[n_z:], flux_t[:-n_z], faces[:, :n_z]
            first_diff = df.reshape(rings)[:, :n_z]

        def rates():
            # An augmented assignment such as ``diff *= c`` would make a name
            # bound above local to this function, so each update is a ufunc
            # call with ``out=``.
            _node_terms(self, self.soil, h, scale, logs, k, c, sink)

            # vertical: d/dz [K (dh/dz + 1)]. ``top`` holds the downward-positive
            # flux through each cell's upper face over dz, (K_a + K_b) (dh /
            # (2 dz^2) + 1 / (2 dz)), and the inflow over dz at the surface. In
            # flat order the lower face of a cell is the upper face of the entry
            # before it, except in the bottom layer, where the flat neighbour
            # belongs to another column.
            if n_z > 1:
                np.subtract(h_above, h_below, out=v_diff)
                np.multiply(v_diff, half_over_dz2, out=v_diff)
                np.add(v_diff, half_over_dz, out=v_diff)
                np.add(k_above, k_below, out=v_top)
                np.multiply(v_top, v_diff, out=v_top)
            surface_face[...] = inflow
            np.subtract(face_ahead, face_behind, out=rate_ahead)
            np.divide(bottom, dz, out=drain)
            np.subtract(bottom_face, drain, out=bottom_rate)

            # The radial and azimuthal faces are flat passes over the batch too: a
            # ring neighbour is n_theta n_z entries on, a theta neighbour n_z. Each
            # node adds its radial lo, radial hi and azimuthal terms in that order.
            #
            # radial: (1/(r dr)) d/dr [r K dh/dr]; no-flux at r = 0 and r = R. An
            # outer-ring entry pairs a node with the next row's inner ring: its
            # flux is set to +0.0, so it adds -0.0 and takes +0.0
            if n_r > 1:
                np.add(k_out, k_in, out=r_flux)
                np.subtract(h_out, h_in, out=r_diff)
                np.multiply(r_flux, r_diff, out=r_flux)
                outer[...] = 0.0
                np.multiply(flux2, radial_lo, out=df2)
                np.add(rate_in, r_diff, out=rate_in)
                np.multiply(flux2, radial_hi, out=df2)
                np.subtract(rate_out, r_diff, out=rate_out)

            # azimuthal: (1/r^2) d/dtheta [K dh/dtheta], periodic. flux_t[m + n_z]
            # is the face after node m; the slot after a ring's last block holds
            # the ring's wrapped face, and its first block's difference is redone
            if n_t > 1:
                np.add(k_before, k_after, out=t_flux)
                np.subtract(h_after, h_before, out=t_diff)
                np.multiply(t_flux, t_diff, out=t_flux)
                np.add(k_last, k_first, out=wrap)
                np.multiply(wrap, np.subtract(h_first, h_last, out=wrap_diff), out=wrap)
                np.subtract(face_after, face_before, out=df)
                np.subtract(first_faces, wrap, out=first_diff)
                np.multiply(df2, azimuthal, out=df2)
                np.add(ratef, df, out=ratef)

            np.add(rate, sink, out=rate)
            np.divide(rate, c, out=rate)
            return rate

        return rates, bottom, sink

    def rhs(self, x, surface, forcing):
        """Time derivative dx/dt [m/s] of one state (n_nodes,) or a batch (B, n_nodes), flat-index order.

        The inputs are shared or per row, as for ``step``.
        """
        x = _rows_of(x, self.grid.n_nodes, "state", finite=True)
        grid = self.grid
        h = x.reshape(-1, grid.n_nodes)
        inflow = _surface_flux(surface, forcing, grid, h.shape[0]) / grid.dz
        scale = sink_scale(grid, forcing, self.roots)
        rates, _, _ = self._rates(h, inflow, scale)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return rates().reshape(x.shape)

    def step(self, x, surface, forcing, dt, budget=None):
        """Advance the state by dt with explicit Euler over fixed equal sub-steps.

        ``x`` may be one state (n_nodes,) or a batch (B, n_nodes) of independent
        states. ``surface`` and ``forcing`` are each one input shared by every
        row, or a sequence of B inputs, one per row; a wrong count raises
        ``DimensionMismatch``. Each row gets exactly the values a single-state
        call with its own inputs would give it. ``budget`` accumulates one
        state's boundary and sink volumes.
        """
        x = _rows_of(x, self.grid.n_nodes, "state", finite=True)
        if budget is not None and x.ndim != 1:
            raise ValidationError("a water budget is kept for one state at a time")
        grid = self.grid
        h = x.reshape(-1, grid.n_nodes).copy()
        q_in = _surface_flux(surface, forcing, grid, h.shape[0])
        inflow = q_in / grid.dz
        scale = sink_scale(grid, forcing, self.roots)
        rates, bottom, sink = self._rates(h, inflow, scale)
        book = None
        if budget is not None:
            area = grid.column_area()
            volume = grid.cell_volumes()

            def book(sub):
                budget.inflow += float(np.sum(q_in[0] * area)) * sub
                budget.drainage += float(np.sum(bottom * area)) * sub
                budget.extraction += float(np.sum(-sink.reshape(volume.shape) * volume)) * sub
        return _euler(h, rates, self.substeps, dt, "state", book=book).reshape(x.shape)
