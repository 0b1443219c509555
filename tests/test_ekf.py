"""Reduced-order EKF, information transfer, and trigger-metric tests."""

import os

import numpy as np
import pytest

from pivotflow import (
    Clustering,
    CylindricalGrid,
    DimensionMismatch,
    FullModel,
    NoiseConfig,
    NonFiniteState,
    PivotflowError,
    ReducedEkfState,
    ReducedModel,
    SingularInnovation,
    StepForcing,
    SurfaceInput,
    TriggerState,
    UnstableStep,
    ValidationError,
    build_projection,
    clamp_estimate,
    compute_error_metric,
    ekf_predict,
    ekf_update,
    initialize_filter,
    reconstruct,
    reduce_state,
    slope_estimate,
    transfer_model,
)
import pivotflow.ekf as ekf
from pivotflow.ekf import sensor_output_map

from conftest import dense_cov, reap_leftover_child, simulate_reduced


class LinearTestModel:
    """Injected reduced dynamics xi' = A xi for Jacobian checks, on a (B, r) batch of rows."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)

    def step(self, xi, surface, forcing, dt):
        return np.array([self.a @ row for row in xi])


def make_state(xi, cov, q_r, c_r, model=None, model_index=1):
    return ReducedEkfState(
        xi=np.asarray(xi, dtype=float), cov=np.asarray(cov, float), q_r=np.asarray(q_r, float),
        c_r=np.asarray(c_r, float), model=model, model_index=model_index,
    )


def reduced_on(clustering, soil):
    """``clustering``'s ReducedModel over a grid of 3-node columns, as many nodes as it assigns."""
    n = clustering.assignment.size
    return ReducedModel(FullModel(CylindricalGrid(n // 3, 1, 3, radius=2.0, depth=0.3), soil), clustering)


class TestPredict:
    def test_fd_jacobian_recovers_linear_dynamics(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.5, (4, 4))
        state = make_state(rng.normal(0, 3, 4), np.eye(4), np.zeros((4, 4)), np.zeros((1, 4)),
                           LinearTestModel(a))
        out = ekf_predict(state, None, None, 1.0)
        # P' = A P A^T exactly when Q = 0 and the Jacobian is recovered
        assert np.abs(out.cov - a @ a.T).max() < 1e-5
        assert np.abs(out.xi - a @ state.xi).max() == 0.0

    def test_batched_jacobian_equals_column_loop(self, loam):
        # ekf_predict steps every Jacobian column in one batch; a reference
        # that steps one perturbed state per call must agree bit for bit.
        from pivotflow import CylindricalGrid

        grid = CylindricalGrid(4, 6, 3, radius=2.0, depth=0.3)
        model = FullModel(grid, loam, substeps=4)
        reduced = ReducedModel(model, Clustering(np.arange(grid.n_nodes) % 7, 7))

        rng = np.random.default_rng(5)
        state = make_state(rng.uniform(-20.0, -8.0, 7), np.eye(7), 0.1 * np.eye(7),
                           np.zeros((1, 7)), model=reduced)
        inputs = (SurfaceInput(np.full(grid.n_r, 2e-7), 2), StepForcing(rain=1e-8))
        batched = ekf_predict(state, *inputs, 900.0)

        f0 = reduced.step(state.xi, *inputs, 900.0)
        jac = np.empty((7, 7))
        for i in range(7):
            delta = max(1e-6, 1e-6 * abs(state.xi[i]))
            perturbed = state.xi.copy()
            perturbed[i] += delta
            jac[:, i] = (reduced.step(perturbed, *inputs, 900.0) - f0) / delta
        cov = jac @ state.cov @ jac.T + state.q_r
        assert batched.xi.tobytes() == f0.tobytes()
        assert batched.cov.tobytes() == (0.5 * (cov + cov.T)).tobytes()

    def test_predict_makes_one_reduced_step_call(self, loam, monkeypatch):
        # The estimate and its r_m perturbed copies share one (r_m + 1)-row
        # reduced step, and on a non-identity projection the coarse graph
        # steps them without any full-model step.
        from pivotflow import CylindricalGrid

        grid = CylindricalGrid(4, 6, 3, radius=2.0, depth=0.3)
        reduced = ReducedModel(FullModel(grid, loam, substeps=4), Clustering(np.arange(grid.n_nodes) % 7, 7))
        state = make_state(np.full(7, -20.0), np.eye(7), 0.1 * np.eye(7), np.zeros((1, 7)), model=reduced)
        full_rows, reduced_rows = [], []
        full_step, reduced_step = FullModel.step, ReducedModel.step
        monkeypatch.setattr(FullModel, "step",
                            lambda self, x, *a: full_rows.append(np.shape(x)) or full_step(self, x, *a))
        monkeypatch.setattr(ReducedModel, "step",
                            lambda self, x, *a: reduced_rows.append(np.shape(x)) or reduced_step(self, x, *a))
        ekf_predict(state, SurfaceInput(np.zeros(grid.n_r), 0), StepForcing(), 900.0)
        assert full_rows == []
        assert reduced_rows == [(8, 7)]

    def test_predict_steps_any_model_once(self):
        # Not only a ReducedModel: every model gets the estimate and its r
        # perturbed copies as the r + 1 rows of one step call.
        calls = []

        class Counted(LinearTestModel):
            def step(self, xi, surface, forcing, dt):
                calls.append(np.shape(xi))
                return super().step(xi, surface, forcing, dt)

        state = make_state([1.0, -2.0, 0.5], np.eye(3), np.zeros((3, 3)), np.zeros((1, 3)),
                           Counted(0.9 * np.eye(3)))
        ekf_predict(state, None, None, 1.0)
        assert calls == [(4, 3)]

    def test_frozen_dynamics_keep_covariance(self):
        state = make_state([1.0, -2.0], 0.3 * np.eye(2), np.zeros((2, 2)), np.zeros((1, 2)),
                           LinearTestModel(np.eye(2)))
        out = ekf_predict(state, None, None, 1.0)
        assert np.abs(out.cov - state.cov).max() < 1e-9

    def test_scalar_closed_form(self):
        state = make_state([1.0], [[1.0]], [[0.5]], np.zeros((1, 1)), LinearTestModel([[2.0]]))
        out = ekf_predict(state, None, None, 1.0)
        assert out.cov[0, 0] == pytest.approx(4.5, rel=1e-5)

    def test_covariance_stays_symmetric(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 1, (5, 5))
        p0 = rng.normal(size=(5, 5))
        p0 = p0 @ p0.T
        state = make_state(rng.normal(size=5), p0, np.eye(5), np.zeros((2, 5)), LinearTestModel(a))
        out = ekf_predict(state, None, None, 1.0)
        assert np.array_equal(out.cov, out.cov.T)


class TestUpdate:
    def test_scalar_closed_form(self):
        state = make_state([0.0], [[1.0]], [[0.0]], [[1.0]])
        out = ekf_update(state, np.array([1.0]), np.array([[1.0]]))
        assert out.cov[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert out.xi[0] == pytest.approx(0.5, rel=1e-12)

    def test_huge_noise_ignores_measurement(self):
        state = make_state([2.0, -1.0], np.eye(2), np.zeros((2, 2)), np.eye(2))
        out = ekf_update(state, np.array([100.0, -100.0]), 1e12 * np.eye(2))
        assert np.abs(out.xi - state.xi).max() < 1e-9

    def test_matches_reference_linear_kalman_filter(self):
        # 4-state LTI system, independently coded textbook KF
        rng = np.random.default_rng(5)
        a = np.array([
            [0.9, 0.1, 0.0, 0.0],
            [0.0, 0.8, 0.2, 0.0],
            [0.0, 0.0, 0.95, 0.05],
            [0.1, 0.0, 0.0, 0.85],
        ])
        c = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        q = 0.01 * np.eye(4)
        r = 0.1 * np.eye(2)
        x_true = rng.normal(size=4)
        state = make_state(np.zeros(4), np.eye(4), q, c, LinearTestModel(a))
        x_ref = np.zeros(4)
        p_ref = np.eye(4)
        for _ in range(100):
            x_true = a @ x_true + rng.normal(0, 0.1, 4)
            y = c @ x_true + rng.normal(0, np.sqrt(0.1), 2)
            state = ekf_predict(state, None, None, 1.0)
            state = ekf_update(state, y, r)
            # reference: straight textbook equations
            x_ref = a @ x_ref
            p_ref = a @ p_ref @ a.T + q
            k = p_ref @ c.T @ np.linalg.inv(r + c @ p_ref @ c.T)
            x_ref = x_ref + k @ (y - c @ x_ref)
            p_ref = (np.eye(4) - k @ c) @ p_ref
            assert np.abs(state.xi - x_ref).max() < 1e-8
            assert np.abs(state.cov - 0.5 * (p_ref + p_ref.T)).max() < 1e-8

    def test_singular_innovation_detected(self):
        state = make_state([0.0, 0.0], np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
        with pytest.raises(SingularInnovation):
            ekf_update(state, np.zeros(2), np.zeros((2, 2)))

    def test_non_finite_measurement_rejected(self):
        state = make_state([0.0], [[1.0]], [[0.0]], [[1.0]])
        with pytest.raises(NonFiniteState, match="measurement contains non-finite entries"):
            ekf_update(state, np.array([np.nan]), np.eye(1))

    def test_measurement_length_checked(self):
        state = make_state([0.0], [[1.0]], [[0.0]], [[1.0]])
        with pytest.raises(DimensionMismatch):
            ekf_update(state, np.zeros(3), np.eye(3))


class TestReconstructAndTransfer:
    def test_singleton_roundtrip(self, loam):
        noise = NoiseConfig()
        x = np.linspace(-9, -4, 6)
        state = initialize_filter(reduced_on(Clustering.singletons(6), loam), x, noise, [0, 3])
        assert np.array_equal(reconstruct(state), x)

    def test_one_cluster_weight_algebra(self, loam):
        n = 9
        model = reduced_on(Clustering(np.zeros(n, dtype=int), 1), loam)
        state = make_state([np.sqrt(n) * -7.5], [[1.0]], [[1.0]], [[1.0 / np.sqrt(n)]], model)
        assert reconstruct(state) == pytest.approx(np.full(n, -7.5), rel=1e-12)

    def test_transfer_to_same_projection_is_identity(self, loam):
        rng = np.random.default_rng(3)
        assignment = np.array([0, 0, 1, 1, 2, 2])
        model = reduced_on(Clustering(assignment, 3), loam)
        noise = NoiseConfig(q_diag=0.3, p0_diag=1.0, p0_offdiag=1e-4)
        state = initialize_filter(model, rng.normal(-8, 1, 6), noise, [1, 4])
        out = transfer_model(state, model, noise, [1, 4])
        assert np.abs(out.xi - state.xi).max() < 1e-12
        assert np.abs(out.cov - state.cov).max() < 1e-12
        assert out.model_index == 2

    def test_transfer_through_full_space_explicit_product(self, loam):
        # 6-node fixture: transfer to the single-cluster model and compare with
        # the dense-matrix composition computed by hand
        rng = np.random.default_rng(4)
        old = reduced_on(Clustering(np.array([0, 0, 1, 1, 2, 2]), 3), loam)
        new = reduced_on(Clustering(np.zeros(6, dtype=int), 1), loam)
        u_old, u_new = old.projection, new.projection
        noise = NoiseConfig()
        p = rng.normal(size=(3, 3))
        p = p @ p.T
        state = make_state(rng.normal(size=3), p, np.eye(3), sensor_output_map(u_old, [0]), old)
        out = transfer_model(state, new, noise, [0])
        m = u_new.toarray().T @ u_old.toarray()
        assert np.abs(out.xi - m @ state.xi).max() < 1e-12
        assert np.abs(out.cov - m @ p @ m.T).max() < 1e-12
        assert np.abs(out.c_r - u_new.toarray()[[0], :]).max() == 0.0

    def test_transfer_never_increases_total_variance(self, loam):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = 12
            raw = rng.integers(0, 5, n)
            ids = {}
            a_old = np.array([ids.setdefault(int(v), len(ids)) for v in raw])
            old = reduced_on(Clustering(a_old, len(ids)), loam)
            u_old = old.projection
            ids = {}
            raw = rng.integers(0, 4, n)
            a_new = np.array([ids.setdefault(int(v), len(ids)) for v in raw])
            new = reduced_on(Clustering(a_new, len(ids)), loam)
            p = rng.normal(size=(u_old.shape[1], u_old.shape[1]))
            p = p @ p.T
            state = make_state(rng.normal(size=u_old.shape[1]), p, np.eye(u_old.shape[1]),
                               sensor_output_map(u_old, [0]), old)
            out = transfer_model(state, new, NoiseConfig(), [0])
            lifted_trace = np.trace(u_old.toarray() @ p @ u_old.toarray().T)
            assert np.trace(out.cov) <= lifted_trace + 1e-9

    def test_switch_continuity_is_cluster_mean_projection(self, loam):
        # reconstructing after a transfer equals the new model's cluster-mean
        # view of the reconstruction before it
        rng = np.random.default_rng(13)
        old = reduced_on(Clustering(np.array([0, 0, 1, 1, 2, 2]), 3), loam)
        new = reduced_on(Clustering(np.array([0, 1, 0, 1, 2, 2]), 3), loam)
        u_new = new.projection
        p = rng.normal(size=(3, 3))
        state = make_state(rng.normal(size=3), p @ p.T, np.eye(3),
                           sensor_output_map(old.projection, [0]), old)
        before = reconstruct(state)
        after = reconstruct(transfer_model(state, new, NoiseConfig(), [0]))
        assert np.abs(after - u_new @ (u_new.T @ before)).max() < 1e-12

    def test_estimate_ceiling_caps_lifted_values(self, loam):
        model = reduced_on(Clustering(np.array([0, 0, 1]), 2), loam)
        state = make_state(np.array([3.0 * np.sqrt(2), -4.0]), np.eye(2), np.eye(2),
                           sensor_output_map(model.projection, [0]), model)
        capped = clamp_estimate(state, -0.5)
        lifted = reconstruct(capped)
        assert lifted.max() <= -0.5 + 1e-12
        assert lifted[2] == pytest.approx(-4.0)  # already-valid cluster untouched

    def test_transfer_to_another_grid_rejected(self, loam):
        old = reduced_on(Clustering(np.array([0, 0, 1, 1, 2, 2]), 3), loam)
        other = reduced_on(Clustering(np.zeros(9, dtype=int), 1), loam)
        state = initialize_filter(old, np.full(6, -8.0), NoiseConfig(), [0])
        with pytest.raises(DimensionMismatch, match="projections must share the full state dimension"):
            transfer_model(state, other, NoiseConfig(), [0])

    def test_transferred_state_carries_and_clamps_under_new_model(self, loam):
        # after a transfer the state steps, lifts and clamps in the new
        # model's coordinates: here one cluster of 3 nodes and one of 6
        old = reduced_on(Clustering.singletons(9), loam)
        new = reduced_on(Clustering(np.array([0, 0, 0, 1, 1, 1, 1, 1, 1]), 2), loam)
        x = np.array([2.0, 3.0, 4.0, -6.0, -5.0, -4.0, -6.0, -5.0, -4.0])
        state = transfer_model(initialize_filter(old, x, NoiseConfig(), [0, 4]), new, NoiseConfig(), [0, 4])
        assert state.model is new
        assert reconstruct(state) == pytest.approx([3.0] * 3 + [-5.0] * 6, rel=1e-12)
        capped = clamp_estimate(state, -0.5)
        assert capped.model is new
        lifted = reconstruct(capped)
        assert lifted.max() <= -0.5 + 1e-12
        assert lifted[:3] == pytest.approx([-0.5] * 3, rel=1e-12)
        assert np.array_equal(lifted[3:], reconstruct(state)[3:])  # a cluster under the ceiling is untouched


class TestErrorMetric:
    def test_singleton_model_gives_zero(self, small_grid, loam):
        model = FullModel(small_grid, loam, substeps=4)
        singletons = Clustering.singletons(small_grid.n_nodes)
        x0 = np.full(small_grid.n_nodes, -6.0)
        inputs = [(SurfaceInput(np.full(small_grid.n_r, 1e-7), 0), StepForcing(rain=1e-8))] * 4
        assert compute_error_metric(ReducedModel(model, singletons), x0, inputs, 900.0, offsets=[0])[0] == 0.0

    def test_matches_naive_double_loop(self, loam):
        from pivotflow import CylindricalGrid

        grid = CylindricalGrid(5, 2, 2, radius=2.0, depth=0.2)  # 20 nodes
        model = FullModel(grid, loam, substeps=2)
        rng = np.random.default_rng(8)
        x0 = np.full(grid.n_nodes, -7.0) + rng.normal(0, 0.5, grid.n_nodes)
        assignment = rng.integers(0, 4, grid.n_nodes)
        ids = {}
        assignment = np.array([ids.setdefault(int(v), len(ids)) for v in assignment])
        reduced = ReducedModel(model, Clustering(assignment, len(ids)))
        u = reduced.projection
        inputs = [(SurfaceInput(np.full(grid.n_r, 2e-7), k % grid.n_theta), StepForcing(rain=1e-8))
                  for k in range(5)]
        e = compute_error_metric(reduced, x0, inputs, 900.0, offsets=[0])[0]
        # brute force: simulate both trajectories step by step and accumulate
        x = x0.copy()
        xi = reduce_state(u, x0)
        acc = 0.0
        for surface, forcing in inputs:
            x = model.step(x, surface, forcing, 900.0)
            xi = reduced.step(xi, surface, forcing, 900.0)
            lifted = u @ xi
            for i in range(grid.n_nodes):
                acc += abs(lifted[i] - x[i])
        assert e == pytest.approx(acc / grid.n_nodes, rel=1e-12)

    def test_paired_runs_equal_separate_runs(self, loam):
        # The full and reduced runs share two-row batched steps; the gap must
        # be the one of two separate open-loop runs, bit for bit.
        from pivotflow import CylindricalGrid, RootUptake

        grid = CylindricalGrid(4, 6, 3, radius=2.0, depth=0.3)
        model = FullModel(grid, loam, roots=RootUptake(root_depth=0.2, h_wilting=-16.0), substeps=4)
        rng = np.random.default_rng(3)
        reduced = ReducedModel(model, Clustering(np.arange(grid.n_nodes) % 9, 9))
        u = reduced.projection
        x0 = rng.uniform(-12.0, -3.0, grid.n_nodes)
        inputs = [(SurfaceInput(np.full(grid.n_r, 1e-7 * (j % 2)), j), StepForcing(et=2e-8, k_c=0.5))
                  for j in range(3)]
        full = model.simulate(x0, inputs, 900.0)
        red = simulate_reduced(reduced, reduce_state(u, x0), inputs, 900.0)
        want = float(np.abs((u @ red.T).T[1:] - full[1:]).sum() / grid.n_nodes)
        assert compute_error_metric(reduced, x0, inputs, 900.0, offsets=[0])[0] == want

    def test_batched_windows_equal_single_windows(self, loam, monkeypatch):
        # Windows at ticks 0, 2 and 3 overlap and the one at 9 starts after
        # the others have ended; all four advance in lock step on their own
        # local ticks, so each model makes `horizon` calls of four rows.
        from pivotflow import CylindricalGrid, RootUptake

        grid = CylindricalGrid(4, 6, 3, radius=2.0, depth=0.3)
        model = FullModel(grid, loam, roots=RootUptake(root_depth=0.2, h_wilting=-16.0), substeps=4)
        rng = np.random.default_rng(5)
        offsets, horizon = [0, 2, 3, 9], 4
        starts = rng.uniform(-12.0, -3.0, (len(offsets), grid.n_nodes))
        inputs = [(SurfaceInput(np.full(grid.n_r, 1e-7 * (t % 3)), t), StepForcing(et=2e-8, k_c=0.5, rain=1e-9 * t))
                  for t in range(offsets[-1] + horizon)]
        reduced = ReducedModel(model, Clustering(np.arange(grid.n_nodes) % 9, 9))
        singles = [compute_error_metric(reduced, x0, inputs[o:o + horizon], 900.0, offsets=[0])[0]
                   for o, x0 in zip(offsets, starts)]

        # one process, so the counting patches see every row
        monkeypatch.setattr(ekf, "_cpus", lambda: 1)
        calls, reduced_calls = [], []
        step, reduced_step = FullModel.step, ReducedModel.step
        monkeypatch.setattr(FullModel, "step", lambda self, x, *a: calls.append(len(x)) or step(self, x, *a))
        monkeypatch.setattr(ReducedModel, "step",
                            lambda self, x, *a: reduced_calls.append(len(x)) or reduced_step(self, x, *a))
        gaps = compute_error_metric(reduced, starts, inputs, 900.0, offsets=offsets)
        assert gaps.tolist() == singles
        assert calls == reduced_calls == [len(offsets)] * horizon

    def test_batched_offsets_checked(self, small_model):
        reduced = ReducedModel(small_model, Clustering.singletons(small_model.n_states))
        starts = np.full((2, small_model.n_states), -5.0)
        window = [(SurfaceInput(np.zeros(small_model.grid.n_r), 0), StepForcing())] * 3
        with pytest.raises(DimensionMismatch):
            compute_error_metric(reduced, starts, window, 900.0, offsets=[1, 0])
        with pytest.raises(DimensionMismatch):
            compute_error_metric(reduced, starts, window, 900.0, offsets=[0])
        with pytest.raises(DimensionMismatch, match="at least one"):  # no windows
            compute_error_metric(reduced, starts[:0], window, 900.0, offsets=[])
        with pytest.raises(ValidationError):
            compute_error_metric(reduced, starts, window, 900.0, offsets=[0, 3])

    def test_empty_window_rejected(self, small_model):
        reduced = ReducedModel(small_model, Clustering.singletons(small_model.n_states))
        with pytest.raises(ValidationError):
            compute_error_metric(reduced, np.full(small_model.n_states, -5.0), [], 900.0, offsets=[0])


class TestErrorMetricHelper:
    """A forked helper process runs the later half of an e_L call's windows."""

    HORIZON = 3

    @pytest.fixture()
    def windows(self, loam, monkeypatch):
        """A reduced model, and a maker of (starts, inputs, offsets) for W windows; two CPUs assumed."""
        from pivotflow import CylindricalGrid, RootUptake

        monkeypatch.setattr(ekf, "_cpus", lambda: 2)
        grid = CylindricalGrid(4, 6, 3, radius=2.0, depth=0.3)
        model = FullModel(grid, loam, roots=RootUptake(root_depth=0.2, h_wilting=-16.0), substeps=4)
        reduced = ReducedModel(model, Clustering(np.arange(grid.n_nodes) % 9, 9))

        def make(n_windows):
            rng = np.random.default_rng(n_windows)
            offsets = np.sort(rng.integers(0, 2 * n_windows, n_windows)).tolist()
            starts = rng.uniform(-12.0, -3.0, (n_windows, grid.n_nodes))
            inputs = [(SurfaceInput(np.full(grid.n_r, 1e-7 * (t % 3)), t % grid.n_theta),
                       StepForcing(et=2e-8, k_c=0.5, rain=1e-9 * t))
                      for t in range(offsets[-1] + self.HORIZON)]
            return starts, inputs, offsets

        return reduced, make

    @staticmethod
    def _row_raising_step(monkeypatch, row, error):
        """Patch FullModel.step to call ``error()`` when a batch holds ``row``; the fork inherits the patch."""
        step = FullModel.step

        def patched(model, x, *args):
            if np.any(np.all(np.atleast_2d(x) == row, axis=1)):
                error()
            return step(model, x, *args)

        monkeypatch.setattr(FullModel, "step", patched)

    @pytest.mark.parametrize("n_windows", [2, 3, 16])
    def test_gaps_equal_single_windows(self, windows, n_windows, monkeypatch):
        reduced, make = windows
        starts, inputs, offsets = make(n_windows)
        horizon = len(inputs) - offsets[-1]
        singles = np.array([compute_error_metric(reduced, x0, inputs[o:o + horizon], 900.0, offsets=[0])[0]
                            for o, x0 in zip(offsets, starts)])
        forks, rows = [], []  # the parent steps only its own half, the earlier windows
        fork, step = os.fork, FullModel.step
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(FullModel, "step", lambda self, x, *a: rows.append(len(x)) or step(self, x, *a))
        gaps = compute_error_metric(reduced, starts, inputs, 900.0, offsets=offsets)
        assert gaps.tobytes() == singles.tobytes()
        assert forks == [1]
        assert rows == [n_windows // 2] * horizon
        assert reap_leftover_child() is None

    @pytest.mark.parametrize("half", ["helper", "parent"])
    def test_error_in_either_half_raises_here(self, windows, half, monkeypatch):
        reduced, make = windows
        starts, inputs, offsets = make(5)
        row = starts[-1] if half == "helper" else starts[0]  # the helper runs windows [2:]

        def diverge():
            raise UnstableStep(f"state diverged in the {half}'s half")

        self._row_raising_step(monkeypatch, row, diverge)
        with pytest.raises(UnstableStep) as caught:
            compute_error_metric(reduced, starts, inputs, 900.0, offsets=offsets)
        assert str(caught.value) == f"state diverged in the {half}'s half"
        assert reap_leftover_child() is None

    def test_helper_without_a_result_raises_child_process_error(self, windows, monkeypatch):
        reduced, make = windows
        starts, inputs, offsets = make(4)
        parent = os.getpid()
        self._row_raising_step(monkeypatch, starts[-1], lambda: os.getpid() != parent and os._exit(3))
        with pytest.raises(ChildProcessError, match="exited without a result") as caught:
            compute_error_metric(reduced, starts, inputs, 900.0, offsets=offsets)
        assert not isinstance(caught.value, PivotflowError)
        assert reap_leftover_child() is None

    def test_without_a_process_to_spare_all_windows_run_here(self, windows, monkeypatch):
        reduced, make = windows
        starts, inputs, offsets = make(4)
        want = compute_error_metric(reduced, starts, inputs, 900.0, offsets=offsets)

        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        assert compute_error_metric(reduced, starts, inputs, 900.0, offsets=offsets).tobytes() == want.tobytes()
        assert reap_leftover_child() is None


class TestSlopeEstimate:
    def test_warmup_returns_zero(self):
        t = TriggerState(th_e=1.0)
        for v in range(10):
            t.record(float(v))
        assert slope_estimate(t) == 0.0

    def test_constant_history_zero(self):
        t = TriggerState(th_e=1.0)
        for _ in range(11):
            t.record(2.0)
        assert slope_estimate(t) == 0.0

    def test_unit_ramp(self):
        t = TriggerState(th_e=1.0)
        for v in range(11):
            t.record(float(v))
        assert slope_estimate(t) == pytest.approx(1.0)

    def test_triangular_hand_computation(self):
        t = TriggerState(th_e=1.0)
        for v in (0, 1, 3, 6, 10, 15, 21, 28, 36, 45, 55):
            t.record(float(v))
        assert slope_estimate(t) == pytest.approx(5.5)

    def test_falling_values_clamped_to_zero(self):
        t = TriggerState(th_e=1.0)
        for v in (0, 1, 2, 3, 4, 5, 4, 3, 2, 1, 0):
            t.record(float(v))
        # rising diffs: five 1s; falling diffs count as 0
        assert slope_estimate(t) == pytest.approx(0.5)

    def test_negative_metric_rejected(self):
        t = TriggerState(th_e=1.0)
        with pytest.raises(ValidationError):
            t.record(-0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_metric_rejected(self, bad):
        # a NaN e_L would make edot_L NaN and silently stop the performance trigger
        t = TriggerState(th_e=1.0)
        with pytest.raises(ValidationError, match="finite"):
            t.record(bad)
        assert len(t.history) == 0


class TestNoiseConfig:
    def test_reduced_covs_match_dense_projection(self):
        rng = np.random.default_rng(9)
        raw = rng.integers(0, 4, 10)
        ids = {}
        assignment = np.array([ids.setdefault(int(v), len(ids)) for v in raw])
        u = build_projection(Clustering(assignment, len(ids)))
        noise = NoiseConfig(q_diag=2.0, q_offdiag=0.5, p0_diag=1.0, p0_offdiag=5e-5)
        ud = u.toarray()
        q, p0 = dense_cov(2.0, 0.5, 10), dense_cov(1.0, 5e-5, 10)
        assert np.abs(noise.reduced_process_cov(u) - ud.T @ q @ ud).max() < 1e-12
        assert np.abs(noise.reduced_initial_cov(u) - ud.T @ p0 @ ud).max() < 1e-12

    def test_invalid_settings_rejected(self):
        with pytest.raises(ValidationError):
            NoiseConfig(r_diag=0.0)
        with pytest.raises(ValidationError):
            NoiseConfig(q_diag=1.0, q_offdiag=2.0)
