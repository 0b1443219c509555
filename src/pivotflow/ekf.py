"""Reduced-order extended Kalman filter with performance-triggered re-identification.

The filter lives entirely in the reduced coordinates of the active
projection. Prediction linearizes the reduced transition map by forward
finite differences (one evaluation per reduced coordinate); covariances
are symmetrized after every propagate and update. When the open-loop
prediction-error metric exceeds its threshold while rising, a new
reduced model is identified from fresh snapshots and the filter state is
carried over through the full-order space.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np
import scipy.sparse as sp

from .errors import (
    DimensionMismatch,
    JacobianFailure,
    PivotflowError,
    SingularInnovation,
    ValidationError,
)
from .reduction import (
    ReducedModel,
    build_projection,
    cluster_trajectories,
    generate_snapshots,
    lift_state,
    reduce_state,
)
from .richards import FullModel

SCHEMES = ("performance", "static", "time-triggered")

# Steps filtered ahead under one model whose e_L windows then run as one batch.
# Measured on the benchmark's desk-shift workload (seed 1, 720 nodes, n_fd 32,
# OMP_NUM_THREADS=1, 2-core VM), estimate_s / peak RSS by look-ahead:
# 1: 43.8 s / 76.1 MB, 4: 26.9 s / 76.2 MB, 8: 23.6 s / 77.7 MB,
# 16: 24.8 s / 78.9 MB, 32: 23.9 s / 86.4 MB. Past 8 the time stays flat and
# the memory of the live windows grows.
_LOOKAHEAD = 8


@dataclass(frozen=True)
class NoiseConfig:
    """EKF tuning covariances in structured form.

    Full-order Q and P0 are (diag - offdiag) * I + offdiag * ones * ones^T,
    kept as generators so they are never materialized at field scale;
    R is r_diag * I over the sensors.
    """

    q_diag: float = 1.0
    q_offdiag: float = 0.0
    r_diag: float = 0.08
    p0_diag: float = 1.0
    p0_offdiag: float = 5e-5

    def __post_init__(self):
        if not self.r_diag > 0:
            raise ValidationError("r_diag must be > 0")
        for diag, off, name in (
            (self.q_diag, self.q_offdiag, "q"),
            (self.p0_diag, self.p0_offdiag, "p0"),
        ):
            if diag < 0 or off < 0 or off > diag:
                raise ValidationError(f"{name}_diag/{name}_offdiag must satisfy 0 <= offdiag <= diag")

    def measurement_cov(self, n_y: int) -> np.ndarray:
        return self.r_diag * np.eye(n_y)

    def _reduced(self, projection: sp.csr_matrix, diag: float, offdiag: float) -> np.ndarray:
        utu = (projection.T @ projection).toarray()
        reduced = (diag - offdiag) * utu
        if offdiag:
            col_sums = np.asarray(projection.sum(axis=0)).ravel()
            reduced = reduced + offdiag * np.outer(col_sums, col_sums)
        return reduced

    def reduced_process_cov(self, projection: sp.csr_matrix) -> np.ndarray:
        """Q_r = U^T Q U."""
        return self._reduced(projection, self.q_diag, self.q_offdiag)

    def reduced_initial_cov(self, projection: sp.csr_matrix) -> np.ndarray:
        """P_r(0) = U^T P(0) U."""
        return self._reduced(projection, self.p0_diag, self.p0_offdiag)

    def dense_process_cov(self, n: int) -> np.ndarray:
        return (self.q_diag - self.q_offdiag) * np.eye(n) + self.q_offdiag * np.ones((n, n))

    def dense_initial_cov(self, n: int) -> np.ndarray:
        return (self.p0_diag - self.p0_offdiag) * np.eye(n) + self.p0_offdiag * np.ones((n, n))


@dataclass(frozen=True)
class ReducedEkfState:
    """Filter state in the coordinates of one reduced model."""

    xi: np.ndarray
    cov: np.ndarray
    q_r: np.ndarray
    c_r: np.ndarray
    projection: sp.csr_matrix
    model_index: int

    @property
    def order(self) -> int:
        return self.xi.size


def sensor_output_map(projection: sp.csr_matrix, sensor_nodes) -> np.ndarray:
    """C_r = C U: the sensor rows of the projection, densified."""
    rows = np.asarray(sensor_nodes, dtype=int)
    return projection[rows, :].toarray()


def initialize_filter(projection: sp.csr_matrix, x0_full, noise: NoiseConfig,
                      sensor_nodes, model_index: int = 1) -> ReducedEkfState:
    """Project the full-order prior onto a freshly identified model."""
    return ReducedEkfState(
        xi=reduce_state(projection, x0_full),
        cov=noise.reduced_initial_cov(projection),
        q_r=noise.reduced_process_cov(projection),
        c_r=sensor_output_map(projection, sensor_nodes),
        projection=projection,
        model_index=model_index,
    )


def _fd_jacobian(transition, xi: np.ndarray, f0: np.ndarray, batched: bool = False) -> np.ndarray:
    """Forward-difference Jacobian of the reduced transition map at xi.

    With ``batched`` the transition takes all perturbed states as the rows of
    one (n, n) array; each column comes out as with one call per coordinate.
    """
    n = xi.size
    deltas = np.maximum(1e-6, 1e-6 * np.abs(xi))
    if batched:
        perturbed = np.repeat(xi[None, :], n, axis=0)
        perturbed[np.arange(n), np.arange(n)] += deltas
        f = transition(perturbed)
        bad = ~np.all(np.isfinite(f), axis=1)
        if bad.any():
            raise JacobianFailure(f"non-finite transition for perturbed coordinate {int(np.argmax(bad))}")
        return np.ascontiguousarray(((f - f0) / deltas[:, None]).T)
    jac = np.empty((f0.size, n))
    for i in range(n):
        perturbed = xi.copy()
        perturbed[i] += deltas[i]
        f_i = transition(perturbed)
        if not np.all(np.isfinite(f_i)):
            raise JacobianFailure(f"non-finite transition for perturbed coordinate {i}")
        jac[:, i] = (f_i - f0) / deltas[i]
    return jac


def ekf_predict(state: ReducedEkfState, model, surface, forcing, dt: float) -> ReducedEkfState:
    """Propagate estimate and covariance one sampling interval (zero disturbance).

    A ``ReducedModel`` steps all Jacobian columns as one batch; other models
    are called once per column.
    """
    transition = lambda xi: model.step(xi, surface, forcing, dt)
    xi_pred = transition(state.xi)
    a_d = _fd_jacobian(transition, state.xi, xi_pred, batched=isinstance(model, ReducedModel))
    cov = a_d @ state.cov @ a_d.T + state.q_r
    cov = 0.5 * (cov + cov.T)
    return replace(state, xi=xi_pred, cov=cov)


def ekf_update(state: ReducedEkfState, y, r_cov: np.ndarray) -> ReducedEkfState:
    """Measurement update with gain K = P C^T (R + C P C^T)^-1."""
    y = np.asarray(y, dtype=float)
    c = state.c_r
    if y.shape != (c.shape[0],):
        raise DimensionMismatch(f"measurement has shape {y.shape}, expected ({c.shape[0]},)")
    innovation_cov = r_cov + c @ state.cov @ c.T
    try:
        np.linalg.cholesky(innovation_cov)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation("innovation covariance is not positive definite") from exc
    gain = np.linalg.solve(innovation_cov, c @ state.cov).T
    xi = state.xi + gain @ (y - c @ state.xi)
    cov = (np.eye(state.order) - gain @ c) @ state.cov
    cov = 0.5 * (cov + cov.T)
    return replace(state, xi=xi, cov=cov)


def reconstruct(state: ReducedEkfState) -> np.ndarray:
    """Full-grid estimate x_hat = U xi_hat."""
    return lift_state(state.projection, state.xi)


def clamp_estimate(state: ReducedEkfState, ceiling: float) -> ReducedEkfState:
    """Constrain the estimate so no lifted pressure head exceeds ``ceiling``.

    Cluster j lifts to the uniform value w_j * xi_j (w_j is the column's
    single weight), so the constraint is a per-coordinate cap. Covariances
    are untouched; the cap only engages when a noisy update overshoots the
    unsaturated range that keeps the explicit stepper stable.
    """
    col_weight = np.asarray(state.projection.max(axis=0).todense()).ravel()
    capped = np.minimum(state.xi, ceiling / col_weight)
    if np.array_equal(capped, state.xi):
        return state
    return replace(state, xi=capped)


def transfer_model(state: ReducedEkfState, new_projection: sp.csr_matrix,
                   noise: NoiseConfig, sensor_nodes, model_index: int) -> ReducedEkfState:
    """Carry the filter to a new reduced model through the full-order space.

    Maps estimate and covariance up with the old projection and back down
    with the new one; process and output maps are rebuilt for the new basis.
    """
    if new_projection.shape[0] != state.projection.shape[0]:
        raise DimensionMismatch("projections must share the full state dimension")
    mapping = (new_projection.T @ state.projection).toarray()
    cov = mapping @ state.cov @ mapping.T
    return ReducedEkfState(
        xi=mapping @ state.xi,
        cov=0.5 * (cov + cov.T),
        q_r=noise.reduced_process_cov(new_projection),
        c_r=sensor_output_map(new_projection, sensor_nodes),
        projection=new_projection,
        model_index=model_index,
    )


def compute_error_metric(model: FullModel, projection: sp.csr_matrix, x_hat_full,
                         inputs, dt: float, offsets=None):
    """Mean-per-node cumulative absolute gap between reduced and full open-loop runs.

    Both models start from the current full-grid estimate (the reduced one
    from its projection) and run the same scheduled inputs without noise.
    A reduced step lifts, takes a full-model step and projects back, so the
    full state and the lifted reduced state advance as one batch of
    full-model steps. A reduced model that does not wrap ``model`` is
    stepped on its own.

    With ``offsets`` (ascending clock ticks, one per window) ``x_hat_full``
    is a (W, n) batch of start states and an array of W gaps is returned.
    Window w runs over ``inputs[offsets[w]:offsets[w] + horizon]``, where
    ``horizon = len(inputs) - offsets[-1]``. At each tick every live window
    steps in one call on ``[full rows; lifted reduced rows]``, since they all
    take that tick's input; each gap equals a single-window call bit for bit.
    """
    starts = np.atleast_2d(np.asarray(x_hat_full, dtype=float))
    ticks = [0] if offsets is None else [int(o) for o in offsets]
    if len(ticks) != starts.shape[0] or ticks != sorted(ticks) or ticks[0] < 0:
        raise DimensionMismatch("offsets must be ascending, nonnegative and one per start state")
    horizon = len(inputs) - ticks[-1]
    if horizon < 1:
        raise ValidationError("error metric needs at least one prediction interval")
    reduced = ReducedModel(model, projection)
    paired = getattr(reduced, "full", None) is model
    full_traj = np.empty((len(ticks), horizon + 1, model.n_states))
    red_traj = np.empty((len(ticks), horizon + 1, projection.shape[1]))
    full_traj[:, 0] = starts
    for w, start in enumerate(starts):
        red_traj[w, 0] = reduce_state(projection, start)
    for t, (surface, forcing) in enumerate(inputs):
        live = [(w, t - o) for w, o in enumerate(ticks) if 0 <= t - o < horizon]
        if not live:
            continue
        if paired:
            rows = model.step(np.stack([full_traj[w, j] for w, j in live]
                                       + [lift_state(projection, red_traj[w, j]) for w, j in live]),
                              surface, forcing, dt)
            for (w, j), full_row, red_row in zip(live, rows, rows[len(live):]):
                full_traj[w, j + 1] = full_row
                red_traj[w, j + 1] = reduce_state(projection, red_row)
        else:
            for w, j in live:
                full_traj[w, j + 1] = model.step(full_traj[w, j], surface, forcing, dt)
                red_traj[w, j + 1] = reduced.step(red_traj[w, j], surface, forcing, dt)
    # one contiguous (horizon, n) gap array per window keeps the summation order
    gaps = np.array([np.abs((projection @ red.T).T[1:] - full[1:]).sum() / model.n_states
                     for full, red in zip(full_traj, red_traj)])
    return gaps if offsets is not None else float(gaps[0])


@dataclass
class TriggerState:
    """Rolling view of the error metric used by the re-identification test."""

    th_e: float
    slope_limit: float = 0.05
    history: deque = field(default_factory=lambda: deque(maxlen=11))

    def record(self, e_l: float) -> None:
        if e_l < 0:
            raise ValidationError("e_L must be nonnegative")
        self.history.append(float(e_l))

    @property
    def last(self) -> float:
        return self.history[-1] if self.history else 0.0


def slope_estimate(trigger: TriggerState) -> float:
    """Moving average of the last ten rising differences of e_L (0 before warm-up)."""
    if len(trigger.history) < 11:
        return 0.0
    diffs = np.diff(np.asarray(trigger.history, dtype=float))
    return float(np.maximum(diffs, 0.0).mean())


def _fires(scheme: str, k: int, trigger: TriggerState, period: int) -> bool:
    if k == 0:
        return True
    if scheme == "performance":
        return trigger.last > trigger.th_e and slope_estimate(trigger) >= trigger.slope_limit
    if scheme == "static":
        return False
    if scheme == "time-triggered":
        return k % period == 0
    raise ValidationError(f"scheme must be one of {SCHEMES}")


@dataclass
class EstimationTrace:
    """Per-step record of one adaptive-estimation run."""

    estimates: np.ndarray
    e_l: np.ndarray
    edot_l: np.ndarray
    orders: np.ndarray
    model_index: np.ndarray
    trigger: np.ndarray
    iter_seconds: np.ndarray
    model_changes: list
    percent_mae: np.ndarray | None = None


def run_adaptive_estimation(cfg, measurements, truth=None, diagnostics=None) -> EstimationTrace:
    """Run the performance-triggered reduced EKF loop over a measurement stream.

    Each step: re-identify if the scheme's trigger fires, predict, update with
    the measurement, reconstruct the full-grid estimate, then evaluate the
    prediction-error metric and its filtered slope. ``truth``, when given, is
    only used to record the per-step estimation error; ``diagnostics(k, state)``
    is called after every update.

    The steps run in blocks of up to ``_LOOKAHEAD``. A block filters ahead
    under the model of its first step, stopping before a step whose trigger
    fires on schedule; evaluates the e_L windows of its steps in one batched
    call; then walks its steps in order, recording e_L and testing the next
    step's trigger. Where the performance trigger fires, the rest of the
    block is discarded and the next block opens at that step, so every
    result equals a one-step-at-a-time run. ``iter_seconds[k]`` is step k's
    own filter and walk time plus, if step k has an e_L window, an equal
    share of its block's e_L call; discarded look-ahead is charged to the
    step that reopens the block, so the entries add up to the loop's wall
    time.
    """
    if cfg.scheme not in SCHEMES:
        raise ValidationError(f"scheme must be one of {SCHEMES}")
    model = cfg.estimator_model()
    noise = cfg.noise_config()
    sensors = np.asarray(cfg.sensors, dtype=int)
    r_cov = noise.measurement_cov(sensors.size)
    ceiling = cfg.estimate_ceiling
    n = cfg.steps
    measurements = np.asarray(measurements, dtype=float)
    if measurements.shape != (n, sensors.size):
        raise DimensionMismatch(
            f"measurements have shape {measurements.shape}, expected ({n}, {sensors.size})"
        )

    trigger = TriggerState(th_e=cfg.th_e, slope_limit=cfg.slope_limit)
    x_hat = cfg.guess_state0()
    state = None
    reduced = None
    m = 0
    e_l = 0.0

    trace = EstimationTrace(
        estimates=np.empty((n, model.n_states)),
        e_l=np.empty(n),
        edot_l=np.empty(n),
        orders=np.empty(n, dtype=int),
        model_index=np.empty(n, dtype=int),
        trigger=np.zeros(n, dtype=bool),
        iter_seconds=np.empty(n),
        model_changes=[],
        percent_mae=None if truth is None else np.empty(n),
    )
    if truth is not None:
        from .runner import percent_mae  # deferred: runner imports this module

    k = 0
    carry = 0.0  # seconds of discarded look-ahead, charged to the step that reopens the block
    clock = perf_counter()
    while k < n:
        # 1. filter ahead; the scheduled triggers (all but performance) are known in advance
        block, spent = [], []  # (fired, state, x_hat) and seconds per step
        ahead, ahead_x = state, x_hat
        for s in range(k, min(k + _LOOKAHEAD, n)):
            if s > k and cfg.scheme != "performance" and _fires(cfg.scheme, s, trigger, cfg.period):
                break
            try:
                fired = s == k and _fires(cfg.scheme, s, trigger, cfg.period)
                if fired:
                    m += 1
                    origin = max(s - 1, 0)
                    snapshots = generate_snapshots(
                        model, ahead_x, cfg.estimator_inputs_window(origin, cfg.n_fd),
                        cfg.delta_s, origin_step=origin,
                    )
                    projection = build_projection(cluster_trajectories(snapshots, cfg.th_c))
                    if ahead is None:
                        ahead = initialize_filter(projection, ahead_x, noise, sensors, m)
                    else:
                        ahead = transfer_model(ahead, projection, noise, sensors, m)
                    reduced = ReducedModel(model, projection)
                    trace.model_changes.append((s, m, ahead.order))
                if s > 0:
                    surface, forcing = cfg.estimator_inputs(s - 1)
                    ahead = ekf_predict(ahead, reduced, surface, forcing, cfg.delta_s)
                ahead = ekf_update(ahead, measurements[s], r_cov)
                if ceiling is not None:
                    ahead = clamp_estimate(ahead, ceiling)
                ahead_x = reconstruct(ahead)
            except PivotflowError as exc:
                if s == k:
                    raise type(exc)(f"step {s}: {exc}") from exc
                break  # step s runs again as the first step of a later block
            now = perf_counter()
            block.append((fired, ahead, ahead_x))
            spent.append(now - clock)
            clock = now

        # 2. the e_L windows of the block, stepped on one shared input clock
        offsets = [i for i, (fired, *_) in enumerate(block)
                   if fired or cfg.stride <= 1 or (k + i) % cfg.stride == 0]
        batched = {}
        if offsets:
            try:
                gaps = compute_error_metric(
                    model, reduced.projection, np.stack([block[i][2] for i in offsets]),
                    cfg.estimator_inputs_window(k, offsets[-1] + cfg.n_fd), cfg.delta_s,
                    offsets=offsets,
                )
                batched = dict(zip(offsets, gaps.tolist()))
            except PivotflowError:
                pass  # the walk runs the windows one at a time and names the failing step
            now = perf_counter()
            for i in offsets:
                spent[i] += (now - clock) / len(offsets)
            clock = now

        # 3. walk the block; a performance trigger inside it discards the rest
        walked = 0
        for i, (fired, ahead, ahead_x) in enumerate(block):
            s = k + i
            if i > 0 and _fires(cfg.scheme, s, trigger, cfg.period):
                break
            try:
                if i in batched:
                    e_l = batched[i]
                elif i in offsets:
                    e_l = compute_error_metric(
                        model, ahead.projection, ahead_x,
                        cfg.estimator_inputs_window(s, cfg.n_fd), cfg.delta_s,
                    )
                trigger.record(e_l)
            except PivotflowError as exc:
                raise type(exc)(f"step {s}: {exc}") from exc
            state, x_hat = ahead, ahead_x

            if diagnostics is not None:
                diagnostics(s, state)
            trace.estimates[s] = x_hat
            trace.e_l[s] = e_l
            trace.edot_l[s] = slope_estimate(trigger)
            trace.orders[s] = state.order
            trace.model_index[s] = state.model_index
            trace.trigger[s] = fired
            if truth is not None:
                trace.percent_mae[s] = percent_mae(x_hat, truth[s])
            now = perf_counter()
            trace.iter_seconds[s] = carry + spent[i] + (now - clock)
            carry, clock = 0.0, now
            walked += 1
        carry = sum(spent[walked:])
        k += walked
    return trace
