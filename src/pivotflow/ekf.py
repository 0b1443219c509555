"""Reduced-order extended Kalman filter with performance-triggered re-identification.

The filter lives entirely in the reduced coordinates of the model that its
state carries. Prediction linearizes the reduced transition map by forward
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

from .errors import (
    DegenerateReference,
    DimensionMismatch,
    JacobianFailure,
    NonFiniteState,
    PivotflowError,
    SingularInnovation,
    ValidationError,
)
from .grid import CylindricalGrid, _number
from .reduction import (
    Clustering,
    ReducedModel,
    cluster_trajectories,
    compute_error_metric,
    generate_snapshots,
    lift_state,
    reduce_state,
)
from .richards import _sensor_nodes

SCHEMES = ("performance", "static", "time-triggered")

# Steps filtered ahead, re-identifying at every scheduled trigger on the way,
# whose e_L windows then run as one batch, each under its own step's model.
# With lock-step windows each chunk of a block's windows makes n_fd full calls,
# so a wider block spreads each call's fixed cost over more rows; where the
# later half's work pays for a fork, a helper process takes it, and each
# process makes its calls of about W/2 rows. On the benchmark's desk-shift
# workload with the split, 32 ran as fast as 64 and the estimating process held
# 6 % less memory (BENCH_two_core_el.json, lookahead_sweep).
_LOOKAHEAD = 32


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
        if not (_number(self.r_diag) and 0 < self.r_diag < np.inf):
            raise ValidationError("r_diag must be finite and > 0")
        for diag, off, name in ((self.q_diag, self.q_offdiag, "q"), (self.p0_diag, self.p0_offdiag, "p0")):
            if not (_number(diag) and _number(off) and 0 <= off <= diag < np.inf):
                raise ValidationError(f"{name}_diag/{name}_offdiag must satisfy 0 <= offdiag <= diag < inf")

    def measurement_cov(self, n_y: int) -> np.ndarray:
        return self.r_diag * np.eye(n_y)

    def _reduced(self, clustering: Clustering, diag: float, offdiag: float) -> np.ndarray:
        utu = reduce_state(clustering, lift_state(clustering, np.eye(clustering.n_clusters)))
        reduced = (diag - offdiag) * utu
        if offdiag:
            col_sums = reduce_state(clustering, np.ones(clustering.assignment.size))
            reduced = reduced + offdiag * np.outer(col_sums, col_sums)
        return reduced

    def reduced_process_cov(self, clustering: Clustering) -> np.ndarray:
        """Q_r = U^T Q U."""
        return self._reduced(clustering, self.q_diag, self.q_offdiag)

    def reduced_initial_cov(self, clustering: Clustering) -> np.ndarray:
        """P_r(0) = U^T P(0) U."""
        return self._reduced(clustering, self.p0_diag, self.p0_offdiag)


@dataclass(frozen=True)
class ReducedEkfState:
    """Filter state in the coordinates of one reduced model."""

    xi: np.ndarray
    cov: np.ndarray
    q_r: np.ndarray
    c_r: np.ndarray
    model: ReducedModel
    model_index: int

    @property
    def order(self) -> int:
        return self.xi.size


def sensor_output_map(clustering: Clustering, sensor_nodes) -> np.ndarray:
    """C_r = C U: the sensor rows of U, as the sensor columns of U I_r.

    ``sensor_nodes`` are checked as ``observe`` checks them: an empty list, a
    fractional or non-finite index, or one off the grid raises
    ``BadSensorIndex``.
    """
    nodes = _sensor_nodes(sensor_nodes, clustering.assignment.size)
    return lift_state(clustering, np.eye(clustering.n_clusters))[:, nodes].T


def initialize_filter(model: ReducedModel, x0_full, noise: NoiseConfig, sensor_nodes) -> ReducedEkfState:
    """Project the full-order prior onto a freshly identified model, the run's model 1."""
    clustering = model.clustering
    return ReducedEkfState(
        xi=reduce_state(clustering, x0_full),
        cov=noise.reduced_initial_cov(clustering),
        q_r=noise.reduced_process_cov(clustering),
        c_r=sensor_output_map(clustering, sensor_nodes),
        model=model,
        model_index=1,
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


def ekf_predict(state: ReducedEkfState, surface, forcing, dt: float) -> ReducedEkfState:
    """Propagate estimate and covariance one sampling interval (zero disturbance).

    The state's own model steps: ``state.model.step`` must take a (B, r) batch
    of reduced states, the estimate and its r Jacobian columns as r + 1 rows.
    """
    transition = lambda xi: state.model.step(xi, surface, forcing, dt)
    xi_pred, a_d = _fd_jacobian(transition, state.xi)
    cov = a_d @ state.cov @ a_d.T + state.q_r
    cov = 0.5 * (cov + cov.T)
    return replace(state, xi=xi_pred, cov=cov)


def ekf_update(state: ReducedEkfState, y, r_cov: np.ndarray) -> ReducedEkfState:
    """Measurement update with gain K = P C^T (R + C P C^T)^-1.

    R must be a finite, exactly symmetric (n_y, n_y) array: the positive
    definiteness test reads only its lower triangle, the gain all of it.
    """
    y = np.asarray(y, dtype=float)
    c = state.c_r
    if y.shape != (c.shape[0],):
        raise DimensionMismatch(f"measurement has shape {y.shape}, expected ({c.shape[0]},)")
    if np.shape(r_cov) != (y.size, y.size):
        raise DimensionMismatch(f"R has shape {np.shape(r_cov)}, expected ({y.size}, {y.size})")
    r_cov = np.asarray(r_cov, dtype=float)
    if not np.all(np.isfinite(r_cov)):
        raise NonFiniteState("R contains non-finite entries")
    if not np.array_equal(r_cov, r_cov.T):
        raise ValidationError("R must be symmetric")
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
    return lift_state(state.model.clustering, state.xi)


def clamp_estimate(state: ReducedEkfState, ceiling) -> ReducedEkfState:
    """Cap the lifted heads at ``ceiling``: xi_j <- min(xi_j, ceiling / w_j).

    Cluster j lifts to w_j * xi_j, w_j = ``state.model.clustering.weights[j]``
    > 0, so the head ceiling caps each coordinate. Covariances are untouched;
    the ceiling only engages when a noisy update overshoots the unsaturated
    range that keeps the explicit stepper stable.
    """
    capped = np.minimum(state.xi, ceiling / state.model.clustering.weights)
    if np.array_equal(capped, state.xi):
        return state
    return replace(state, xi=capped)


def transfer_model(state: ReducedEkfState, model: ReducedModel, noise: NoiseConfig,
                   sensor_nodes) -> ReducedEkfState:
    """Carry the filter to a new reduced model through the full-order space.

    Maps estimate and covariance up with the old model's projection and back
    down with the new one's; process and output maps are rebuilt for the new
    basis, and the model index is one past the old one.
    """
    old, new = state.model.clustering, model.clustering
    if new.assignment.size != old.assignment.size:
        raise DimensionMismatch("projections must share the full state dimension")
    mapping = reduce_state(new, lift_state(old, np.eye(old.n_clusters))).T
    cov = mapping @ state.cov @ mapping.T
    return ReducedEkfState(
        xi=mapping @ state.xi,
        cov=0.5 * (cov + cov.T),
        q_r=noise.reduced_process_cov(new),
        c_r=sensor_output_map(new, sensor_nodes),
        model=model,
        model_index=state.model_index + 1,
    )


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

    The steps run in blocks of up to ``_LOOKAHEAD``. A block filters ahead,
    performing every trigger it knows in advance: the first step's, and each
    scheduled one (time-triggered) inside the block, which re-identifies from
    the previous step's estimate and transfers the filter, so each step keeps
    its own model. It then evaluates the e_L windows of its steps in one
    ``compute_error_metric`` call, which advances them in lock step, each on
    its own inputs and under its own step's model; then walks its steps in
    order, recording e_L and testing the next step's trigger. Only a trigger
    that filtering ahead did not perform, a performance one, ends a block:
    the rest of it is discarded and the next block opens at that step, so
    every result equals a one-step-at-a-time run.

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
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        if truth.ndim != 2 or truth.shape[0] < n or truth.shape[1] != cfg.n_x:
            raise DimensionMismatch(f"truth has shape {truth.shape}, expected ({n}, {cfg.n_x}), or more rows")

    trigger = TriggerState(th_e=cfg.th_e, slope_limit=cfg.slope_limit)
    x_hat = cfg.guess_state0()
    state = None
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
            # 1. filter ahead, performing every trigger known in advance: a scheduled one (all
            # schemes but performance) at any step of the block, the performance trigger at its first
            ahead, ahead_x = state, x_hat
            for s in range(k, min(k + width, n)):
                fired = (s == k or cfg.scheme != "performance") and _fires(cfg.scheme, s, trigger, cfg.period)
                if fired:
                    snapshots = generate_snapshots(
                        model, ahead_x, cfg.estimator_inputs_window(max(s - 1, 0), cfg.n_fd), cfg.delta_s,
                    )
                    identified = ReducedModel(model, cluster_trajectories(snapshots, cfg.th_c))
                    if ahead is None:
                        ahead = initialize_filter(identified, ahead_x, cfg.ekf, sensors)
                    else:
                        ahead = transfer_model(ahead, identified, cfg.ekf, sensors)
                if s > 0:
                    surface, forcing = cfg.estimator_inputs(s - 1)
                    ahead = ekf_predict(ahead, surface, forcing, cfg.delta_s)
                ahead = ekf_update(ahead, measurements[s], r_cov)
                if ceiling is not None:
                    ahead = clamp_estimate(ahead, ceiling)
                ahead_x = reconstruct(ahead)
                now = perf_counter()
                block.append((fired, ahead, ahead_x))
                spent.append(now - clock)
                clock = now

            # 2. the e_L windows of the block, advanced in lock step, each on its own inputs and model
            offsets = [i for i, (fired, *_) in enumerate(block)
                       if fired or cfg.stride <= 1 or (k + i) % cfg.stride == 0]
            gaps = {}
            if offsets:
                gaps = dict(zip(offsets, compute_error_metric(
                    [block[i][1].model for i in offsets], np.stack([block[i][2] for i in offsets]),
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

        # 3. walk the block; a trigger that filtering ahead did not perform (a performance one) discards the rest
        walked = 0
        for i, (fired, ahead, ahead_x) in enumerate(block):
            s = k + i
            if i > 0 and not fired and _fires(cfg.scheme, s, trigger, cfg.period):
                break
            state, x_hat = ahead, ahead_x
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
