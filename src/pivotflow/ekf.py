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
    DegenerateReference,
    DimensionMismatch,
    JacobianFailure,
    NonFiniteState,
    PivotflowError,
    SingularInnovation,
    ValidationError,
)
from .grid import CylindricalGrid
from .reduction import (
    ReducedModel,
    cluster_trajectories,
    generate_snapshots,
    lift_state,
    reduce_state,
)

SCHEMES = ("performance", "static", "time-triggered")

# Steps filtered ahead under one model whose e_L windows then run as one batch.
# With lock-step windows a block of W windows makes n_fd full calls of W rows,
# so a wider block spreads each call's fixed cost over more rows. Measured on
# the benchmark's desk-shift workload (720 nodes, n_fd 32, 2-core VM; seeds
# 1-3), estimate_s / peak RSS by look-ahead: 8: 4.82 s / 74.9 MB, 16: 4.23 s /
# 77.1 MB, 32: 3.95 s / 81.1 MB (medians). 32 gains little more than 16 and
# holds 8 % more memory than 8, close to the benchmark's 10 % bound on it.
_LOOKAHEAD = 16


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
        if not 0 < self.r_diag < np.inf:
            raise ValidationError("r_diag must be finite and > 0")
        for diag, off, name in (
            (self.q_diag, self.q_offdiag, "q"),
            (self.p0_diag, self.p0_offdiag, "p0"),
        ):
            if not 0 <= off <= diag < np.inf:
                raise ValidationError(f"{name}_diag/{name}_offdiag must satisfy 0 <= offdiag <= diag < inf")

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


def _fd_jacobian(transition, xi: np.ndarray):
    """The transition at xi and its forward-difference Jacobian there.

    The transition takes xi and every perturbed state as the n + 1 rows of
    one array.
    """
    n = xi.size
    deltas = np.maximum(1e-6, 1e-6 * np.abs(xi))
    rows = np.repeat(xi[None, :], n + 1, axis=0)
    rows[np.arange(1, n + 1), np.arange(n)] += deltas
    f = transition(rows)
    f0 = f[0]
    bad = ~np.all(np.isfinite(f[1:]), axis=1)
    if bad.any():
        raise JacobianFailure(f"non-finite transition for perturbed coordinate {int(np.argmax(bad))}")
    return f0, np.ascontiguousarray(((f[1:] - f0) / deltas[:, None]).T)


def ekf_predict(state: ReducedEkfState, model, surface, forcing, dt: float) -> ReducedEkfState:
    """Propagate estimate and covariance one sampling interval (zero disturbance).

    ``model.step`` must take a (B, r) batch of reduced states: the estimate
    and all r Jacobian columns are stepped as the r + 1 rows of one call.
    """
    transition = lambda xi: model.step(xi, surface, forcing, dt)
    xi_pred, a_d = _fd_jacobian(transition, state.xi)
    cov = a_d @ state.cov @ a_d.T + state.q_r
    cov = 0.5 * (cov + cov.T)
    return replace(state, xi=xi_pred, cov=cov)


def ekf_update(state: ReducedEkfState, y, r_cov: np.ndarray) -> ReducedEkfState:
    """Measurement update with gain K = P C^T (R + C P C^T)^-1."""
    y = np.asarray(y, dtype=float)
    c = state.c_r
    if y.shape != (c.shape[0],):
        raise DimensionMismatch(f"measurement has shape {y.shape}, expected ({c.shape[0]},)")
    if not np.all(np.isfinite(y)):
        raise NonFiniteState("measurement contains non-finite entries")
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


def clamp_estimate(state: ReducedEkfState, cap) -> ReducedEkfState:
    """Cap each reduced coordinate: xi_j <- min(xi_j, cap_j).

    ``cap`` is one bound or one per coordinate. Covariances are untouched;
    the estimator caps the lifted heads at its ceiling, which only engages
    when a noisy update overshoots the unsaturated range that keeps the
    explicit stepper stable.
    """
    capped = np.minimum(state.xi, cap)
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


def compute_error_metric(reduced: ReducedModel, x_hat_full, inputs, dt: float, offsets) -> np.ndarray:
    """Mean-per-node cumulative absolute gap between reduced and full open-loop runs, per window.

    Both models start from a full-grid estimate (the reduced one from its
    projection) and run the same scheduled inputs without noise: the full
    rows with ``reduced.full.step``, the reduced rows with ``reduced.step``.

    ``x_hat_full`` is a (W, n) batch of start states, one per window, and
    ``offsets`` their ascending clock ticks; an array of W gaps is returned.
    Window w runs over ``inputs[offsets[w]:offsets[w] + horizon]``, where
    ``horizon = len(inputs) - offsets[-1]``. The windows advance in lock
    step on their own local ticks: at local tick j one full call steps all W
    rows, row w with ``inputs[offsets[w] + j]``, and one reduced call does
    the same, so a call of W rows is made ``horizon`` times per model. Each
    gap equals a single-window call bit for bit.
    """
    model, projection = reduced.full, reduced.projection
    starts = np.atleast_2d(np.asarray(x_hat_full, dtype=float))
    ticks = np.asarray(offsets, dtype=int)
    if ticks.size == 0 or ticks.shape != starts.shape[:1] or np.any(np.diff(ticks) < 0) or ticks[0] < 0:
        raise DimensionMismatch("offsets must be ascending, nonnegative and one per start state, at least one")
    horizon = len(inputs) - ticks[-1]
    if horizon < 1:
        raise ValidationError("error metric needs at least one prediction interval")
    full_traj = np.empty((ticks.size, horizon + 1, model.n_states))
    red_traj = np.empty((ticks.size, horizon + 1, reduced.order))
    full_traj[:, 0] = starts
    red_traj[:, 0] = reduce_state(projection, starts)
    for j in range(horizon):
        surfaces, forcings = zip(*(inputs[t + j] for t in ticks))
        full_traj[:, j + 1] = model.step(full_traj[:, j], surfaces, forcings, dt)
        red_traj[:, j + 1] = reduced.step(red_traj[:, j], surfaces, forcings, dt)
    # one contiguous (horizon, n) gap array per window keeps the summation order
    return np.array([np.abs(lift_state(projection, red)[1:] - full[1:]).sum() / model.n_states
                     for full, red in zip(full_traj, red_traj)])


@dataclass
class TriggerState:
    """Rolling view of the error metric used by the re-identification test."""

    th_e: float
    slope_limit: float = 0.05
    history: deque = field(default_factory=lambda: deque(maxlen=11))

    def record(self, e_l: float) -> None:
        if not 0 <= e_l < np.inf:
            raise ValidationError(f"e_L must be finite and nonnegative, got {e_l}")
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
    return k % period == 0  # time-triggered


@dataclass
class EstimationTrace:
    """Record of one adaptive-estimation run: per-step arrays on one step axis.

    Full-grid estimates are kept only at ``cfg.snapshot_steps``, in
    ``snapshots`` (step -> (truth row or None, estimate)).
    """

    scheme: str
    grid: CylindricalGrid
    delta_s: float
    e_l: np.ndarray
    edot_l: np.ndarray
    orders: np.ndarray
    model_index: np.ndarray
    trigger: np.ndarray
    iter_seconds: np.ndarray
    model_changes: list
    snapshots: dict
    percent_mae: np.ndarray | None = None


def percent_mae(x_hat, x_true) -> float:
    """Mean absolute estimation error normalized by the mean absolute state, in %."""
    x_hat = np.asarray(x_hat, dtype=float)
    x_true = np.asarray(x_true, dtype=float)
    if x_hat.shape != x_true.shape:
        raise DimensionMismatch(f"shapes {x_hat.shape} and {x_true.shape} differ")
    denom = np.abs(x_true).sum()
    if denom == 0.0:
        raise DegenerateReference("reference state is identically zero")
    return float(100.0 * np.abs(x_hat - x_true).sum() / denom)


def run_adaptive_estimation(cfg, measurements, truth=None) -> EstimationTrace:
    """Run the performance-triggered reduced EKF loop over a measurement stream.

    Each step: re-identify if the scheme's trigger fires, predict, update with
    the measurement, reconstruct the full-grid estimate, then evaluate the
    prediction-error metric and its filtered slope. ``truth``, when given, is
    only used to record the per-step estimation error and the snapshot truth
    rows.

    The steps run in blocks of up to ``_LOOKAHEAD``. A block filters ahead
    under the model of its first step, stopping before a step whose trigger
    fires on schedule; evaluates the e_L windows of its steps in one
    ``compute_error_metric`` call, which advances them in lock step, each on
    its own inputs; then walks its steps in order, recording e_L and testing
    the next step's trigger. Where the performance trigger fires, the rest of the
    block is discarded and the next block opens at that step, so every
    result equals a one-step-at-a-time run.

    Failures follow one rule. If filtering ahead or the e_L call raises a
    ``PivotflowError``, the block's steps run again one at a time, as with a
    look-ahead of 1, and a one-step block that fails raises the error
    prefixed with ``step k:``. So a failure names the step a one-step-at-a-time
    run would name, and a failure in look-ahead that the performance trigger
    discards does not stop the run.

    ``iter_seconds[k]`` is step k's own filter and walk time plus, if step k
    has an e_L window, an equal share of its block's e_L call; discarded
    look-ahead and failed blocks are charged to the step that reopens the
    block, so the entries add up to the loop's wall time.
    """
    if cfg.scheme not in SCHEMES:
        raise ValidationError(f"scheme must be one of {SCHEMES}")
    model = cfg.estimator_model()
    sensors = np.asarray(cfg.sensors, dtype=int)
    r_cov = cfg.ekf.measurement_cov(sensors.size)
    ceiling = cfg.estimate_ceiling
    n = cfg.steps
    measurements = np.asarray(measurements, dtype=float)
    if measurements.shape != (n, sensors.size):
        raise DimensionMismatch(
            f"measurements have shape {measurements.shape}, expected ({n}, {sensors.size})"
        )

    trigger = TriggerState(th_e=cfg.th_e, slope_limit=cfg.slope_limit)
    x_hat = cfg.guess_state0()
    state = reduced = None
    e_l = 0.0

    trace = EstimationTrace(
        scheme=cfg.scheme,
        grid=cfg.grid,
        delta_s=cfg.delta_s,
        e_l=np.empty(n),
        edot_l=np.empty(n),
        orders=np.empty(n, dtype=int),
        model_index=np.empty(n, dtype=int),
        trigger=np.zeros(n, dtype=bool),
        iter_seconds=np.empty(n),
        model_changes=[],
        snapshots={},
        percent_mae=None if truth is None else np.empty(n),
    )

    k = 0
    retry_end = 0  # a failed block's steps re-run one at a time, up to this step
    carry = 0.0  # seconds of discarded or failed look-ahead, charged to the step that reopens the block
    clock = perf_counter()
    # layer functions are looked up in this module's globals: the benchmark's tracer patches them here
    while k < n:
        width = 1 if k < retry_end else _LOOKAHEAD
        block, spent = [], []  # (fired, state, x_hat) and seconds per step
        try:
            # 1. filter ahead; the scheduled triggers (all but performance) are known in advance
            # a block filters under one model: the one identified at its first step, if any
            ahead, ahead_x, ahead_model = state, x_hat, reduced
            for s in range(k, min(k + width, n)):
                if s > k and cfg.scheme != "performance" and _fires(cfg.scheme, s, trigger, cfg.period):
                    break
                fired = s == k and _fires(cfg.scheme, s, trigger, cfg.period)
                if fired:
                    snapshots = generate_snapshots(
                        model, ahead_x, cfg.estimator_inputs_window(max(s - 1, 0), cfg.n_fd), cfg.delta_s,
                    )
                    ahead_model = ReducedModel(model, cluster_trajectories(snapshots, cfg.th_c))
                    if ahead is None:
                        ahead = initialize_filter(ahead_model.projection, ahead_x, cfg.ekf, sensors)
                    else:
                        ahead = transfer_model(ahead, ahead_model.projection, cfg.ekf, sensors,
                                               ahead.model_index + 1)
                if s > 0:
                    surface, forcing = cfg.estimator_inputs(s - 1)
                    ahead = ekf_predict(ahead, ahead_model, surface, forcing, cfg.delta_s)
                ahead = ekf_update(ahead, measurements[s], r_cov)
                if ceiling is not None:
                    # cluster j lifts to weight_j * xi_j, so the head ceiling caps each coordinate
                    ahead = clamp_estimate(ahead, ceiling / ahead_model.weights)
                ahead_x = reconstruct(ahead)
                now = perf_counter()
                block.append((fired, ahead, ahead_x))
                spent.append(now - clock)
                clock = now

            # 2. the e_L windows of the block, advanced in lock step, each on its own inputs
            offsets = [i for i, (fired, *_) in enumerate(block)
                       if fired or cfg.stride <= 1 or (k + i) % cfg.stride == 0]
            gaps = {}
            if offsets:
                gaps = dict(zip(offsets, compute_error_metric(
                    ahead_model, np.stack([block[i][2] for i in offsets]),
                    cfg.estimator_inputs_window(k, offsets[-1] + cfg.n_fd), cfg.delta_s,
                    offsets=offsets,
                ).tolist()))
                now = perf_counter()
                for i in offsets:
                    spent[i] += (now - clock) / len(offsets)
                clock = now
        except PivotflowError as exc:
            if width == 1:
                raise type(exc)(f"step {k}: {exc}") from exc
            carry += sum(spent)
            retry_end = k + width
            continue

        # 3. walk the block; a performance trigger inside it discards the rest
        walked = 0
        for i, (fired, ahead, ahead_x) in enumerate(block):
            s = k + i
            if i > 0 and _fires(cfg.scheme, s, trigger, cfg.period):
                break
            state, x_hat, reduced = ahead, ahead_x, ahead_model
            e_l = gaps.get(i, e_l)
            trigger.record(e_l)
            if fired:
                trace.model_changes.append((s, state.model_index, state.order))

            if s in cfg.snapshot_steps:
                trace.snapshots[s] = (None if truth is None else np.array(truth[s]), x_hat)
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
