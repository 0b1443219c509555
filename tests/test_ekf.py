"""Reduced-order EKF, information transfer, and trigger-metric tests."""

import numpy as np
import pytest

from pivotflow import (
    Clustering,
    DimensionMismatch,
    FullModel,
    NoiseConfig,
    ReducedEkfState,
    SingularInnovation,
    StepForcing,
    SurfaceInput,
    TriggerState,
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
from pivotflow.ekf import sensor_output_map

from conftest import hydrostatic_state


class LinearTestModel:
    """Injected reduced dynamics xi' = A xi for Jacobian checks."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)

    def step(self, xi, surface, forcing, dt):
        return self.a @ xi


def make_state(xi, cov, q_r, c_r, projection=None, model_index=1):
    xi = np.asarray(xi, dtype=float)
    if projection is None:
        projection = build_projection(Clustering.singletons(xi.size))
    return ReducedEkfState(
        xi=xi, cov=np.asarray(cov, float), q_r=np.asarray(q_r, float),
        c_r=np.asarray(c_r, float), projection=projection, model_index=model_index,
    )


class TestPredict:
    def test_fd_jacobian_recovers_linear_dynamics(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.5, (4, 4))
        model = LinearTestModel(a)
        state = make_state(rng.normal(0, 3, 4), np.eye(4), np.zeros((4, 4)), np.zeros((1, 4)))
        out = ekf_predict(state, model, None, None, 1.0)
        # P' = A P A^T exactly when Q = 0 and the Jacobian is recovered
        assert np.abs(out.cov - a @ a.T).max() < 1e-5
        assert np.abs(out.xi - a @ state.xi).max() == 0.0

    def test_batched_jacobian_equals_column_loop(self, loam):
        # A ReducedModel steps every Jacobian column in one batch; a wrapper
        # that is not one is called per column. Both must agree bit for bit.
        from pivotflow import CylindricalGrid, ReducedModel

        grid = CylindricalGrid(4, 6, 3, radius=2.0, depth=0.3)
        model = FullModel(grid, loam, substeps=4)
        u = build_projection(Clustering(np.arange(grid.n_nodes) % 7, 7))
        reduced = ReducedModel(model, u)

        class PerColumn:
            def step(self, xi, surface, forcing, dt):
                assert np.ndim(xi) == 1
                return reduced.step(xi, surface, forcing, dt)

        rng = np.random.default_rng(5)
        state = make_state(rng.uniform(-20.0, -8.0, 7), np.eye(7), 0.1 * np.eye(7),
                           np.zeros((1, 7)), projection=u)
        inputs = (SurfaceInput(np.full(grid.n_r, 2e-7), 2), StepForcing(rain=1e-8))
        batched = ekf_predict(state, reduced, *inputs, 900.0)
        looped = ekf_predict(state, PerColumn(), *inputs, 900.0)
        assert batched.xi.tobytes() == looped.xi.tobytes()
        assert batched.cov.tobytes() == looped.cov.tobytes()

    def test_frozen_dynamics_keep_covariance(self):
        state = make_state([1.0, -2.0], 0.3 * np.eye(2), np.zeros((2, 2)), np.zeros((1, 2)))
        out = ekf_predict(state, LinearTestModel(np.eye(2)), None, None, 1.0)
        assert np.abs(out.cov - state.cov).max() < 1e-9

    def test_scalar_closed_form(self):
        state = make_state([1.0], [[1.0]], [[0.5]], np.zeros((1, 1)))
        out = ekf_predict(state, LinearTestModel([[2.0]]), None, None, 1.0)
        assert out.cov[0, 0] == pytest.approx(4.5, rel=1e-5)

    def test_covariance_stays_symmetric(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 1, (5, 5))
        p0 = rng.normal(size=(5, 5))
        p0 = p0 @ p0.T
        state = make_state(rng.normal(size=5), p0, np.eye(5), np.zeros((2, 5)))
        out = ekf_predict(state, LinearTestModel(a), None, None, 1.0)
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
        state = make_state(np.zeros(4), np.eye(4), q, c)
        x_ref = np.zeros(4)
        p_ref = np.eye(4)
        model = LinearTestModel(a)
        for _ in range(100):
            x_true = a @ x_true + rng.normal(0, 0.1, 4)
            y = c @ x_true + rng.normal(0, np.sqrt(0.1), 2)
            state = ekf_predict(state, model, None, None, 1.0)
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

    def test_measurement_length_checked(self):
        state = make_state([0.0], [[1.0]], [[0.0]], [[1.0]])
        with pytest.raises(DimensionMismatch):
            ekf_update(state, np.zeros(3), np.eye(3))


class TestReconstructAndTransfer:
    def test_singleton_roundtrip(self):
        u = build_projection(Clustering.singletons(6))
        noise = NoiseConfig()
        x = np.linspace(-9, -4, 6)
        state = initialize_filter(u, x, noise, [0, 3])
        assert np.array_equal(reconstruct(state), x)

    def test_one_cluster_weight_algebra(self):
        n = 9
        u = build_projection(Clustering(np.zeros(n, dtype=int), 1))
        state = make_state([np.sqrt(n) * -7.5], [[1.0]], [[1.0]], [[1.0 / np.sqrt(n)]], u)
        assert reconstruct(state) == pytest.approx(np.full(n, -7.5), rel=1e-12)

    def test_transfer_to_same_projection_is_identity(self):
        rng = np.random.default_rng(3)
        assignment = np.array([0, 0, 1, 1, 2, 2])
        u = build_projection(Clustering(assignment, 3))
        noise = NoiseConfig(q_diag=0.3, p0_diag=1.0, p0_offdiag=1e-4)
        state = initialize_filter(u, rng.normal(-8, 1, 6), noise, [1, 4])
        out = transfer_model(state, u, noise, [1, 4], model_index=2)
        assert np.abs(out.xi - state.xi).max() < 1e-12
        assert np.abs(out.cov - state.cov).max() < 1e-12
        assert out.model_index == 2

    def test_transfer_through_full_space_explicit_product(self):
        # 6-node fixture: transfer to the single-cluster model and compare with
        # the dense-matrix composition computed by hand
        rng = np.random.default_rng(4)
        u_old = build_projection(Clustering(np.array([0, 0, 1, 1, 2, 2]), 3))
        u_new = build_projection(Clustering(np.zeros(6, dtype=int), 1))
        noise = NoiseConfig()
        p = rng.normal(size=(3, 3))
        p = p @ p.T
        state = make_state(rng.normal(size=3), p, np.eye(3), sensor_output_map(u_old, [0]), u_old)
        out = transfer_model(state, u_new, noise, [0], model_index=5)
        m = u_new.toarray().T @ u_old.toarray()
        assert np.abs(out.xi - m @ state.xi).max() < 1e-12
        assert np.abs(out.cov - m @ p @ m.T).max() < 1e-12
        assert np.abs(out.c_r - u_new.toarray()[[0], :]).max() == 0.0

    def test_transfer_never_increases_total_variance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = 12
            raw = rng.integers(0, 5, n)
            ids = {}
            a_old = np.array([ids.setdefault(int(v), len(ids)) for v in raw])
            u_old = build_projection(Clustering(a_old, len(ids)))
            ids = {}
            raw = rng.integers(0, 4, n)
            a_new = np.array([ids.setdefault(int(v), len(ids)) for v in raw])
            u_new = build_projection(Clustering(a_new, len(ids)))
            p = rng.normal(size=(u_old.shape[1], u_old.shape[1]))
            p = p @ p.T
            state = make_state(rng.normal(size=u_old.shape[1]), p, np.eye(u_old.shape[1]),
                               sensor_output_map(u_old, [0]), u_old)
            out = transfer_model(state, u_new, NoiseConfig(), [0], 2)
            lifted_trace = np.trace(u_old.toarray() @ p @ u_old.toarray().T)
            assert np.trace(out.cov) <= lifted_trace + 1e-9

    def test_switch_continuity_is_cluster_mean_projection(self):
        # reconstructing after a transfer equals the new model's cluster-mean
        # view of the reconstruction before it
        rng = np.random.default_rng(13)
        u_old = build_projection(Clustering(np.array([0, 0, 1, 1, 2, 2]), 3))
        u_new = build_projection(Clustering(np.array([0, 1, 0, 1, 2, 2]), 3))
        p = rng.normal(size=(3, 3))
        state = make_state(rng.normal(size=3), p @ p.T, np.eye(3),
                           sensor_output_map(u_old, [0]), u_old)
        before = reconstruct(state)
        after = reconstruct(transfer_model(state, u_new, NoiseConfig(), [0], 2))
        assert np.abs(after - u_new @ (u_new.T @ before)).max() < 1e-12

    def test_estimate_ceiling_caps_lifted_values(self):
        u = build_projection(Clustering(np.array([0, 0, 1]), 2))
        state = make_state(np.array([3.0 * np.sqrt(2), -4.0]), np.eye(2), np.eye(2),
                           sensor_output_map(u, [0]), u)
        capped = clamp_estimate(state, -0.5)
        lifted = reconstruct(capped)
        assert lifted.max() <= -0.5 + 1e-12
        assert lifted[2] == pytest.approx(-4.0)  # already-valid cluster untouched


class TestErrorMetric:
    def test_singleton_model_gives_zero(self, small_grid, loam):
        model = FullModel(small_grid, loam, substeps=4)
        u = build_projection(Clustering.singletons(small_grid.n_nodes))
        x0 = np.full(small_grid.n_nodes, -6.0)
        inputs = [(SurfaceInput(np.full(small_grid.n_r, 1e-7), 0), StepForcing(rain=1e-8))] * 4
        assert compute_error_metric(model, u, x0, inputs, 900.0) == 0.0

    def test_constant_offset_sum_algebra(self):
        # fabricated models: full holds the state, reduced drifts by delta/step
        class Hold:
            n_states = 5

            def step(self, x, surface, forcing, dt):
                return np.asarray(x, float)

            def simulate(self, x0, inputs, dt):
                out = [np.asarray(x0, float)]
                for surface, forcing in inputs:
                    out.append(self.step(out[-1], surface, forcing, dt))
                return np.array(out)

        import pivotflow.ekf as ekf_mod

        delta = 0.25
        n_fd = 6

        class Drift(Hold):
            def step(self, x, surface, forcing, dt):
                return np.asarray(x, float) - delta

        u = build_projection(Clustering.singletons(5))
        full = Hold()
        # monkeypatch ReducedModel construction via duck typing: wrap Drift inside
        drift = Drift()
        real = ekf_mod.ReducedModel
        try:
            ekf_mod.ReducedModel = lambda model, proj: drift
            e = ekf_mod.compute_error_metric(full, u, np.full(5, -3.0), [(None, None)] * n_fd, 1.0)
        finally:
            ekf_mod.ReducedModel = real
        # row j deviates by j*delta in every node; 5 nodes, divided by 5
        assert e == pytest.approx(sum(j * delta for j in range(1, n_fd + 1)), rel=1e-12)

    def test_matches_naive_double_loop(self, loam):
        from pivotflow import CylindricalGrid, ReducedModel

        grid = CylindricalGrid(5, 2, 2, radius=2.0, depth=0.2)  # 20 nodes
        model = FullModel(grid, loam, substeps=2)
        rng = np.random.default_rng(8)
        x0 = np.full(grid.n_nodes, -7.0) + rng.normal(0, 0.5, grid.n_nodes)
        assignment = rng.integers(0, 4, grid.n_nodes)
        ids = {}
        assignment = np.array([ids.setdefault(int(v), len(ids)) for v in assignment])
        u = build_projection(Clustering(assignment, len(ids)))
        inputs = [(SurfaceInput(np.full(grid.n_r, 2e-7), k % grid.n_theta), StepForcing(rain=1e-8))
                  for k in range(5)]
        e = compute_error_metric(model, u, x0, inputs, 900.0)
        # brute force: simulate both trajectories step by step and accumulate
        x = x0.copy()
        xi = reduce_state(u, x0)
        reduced = ReducedModel(model, u)
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
        from pivotflow import CylindricalGrid, ReducedModel, RootUptake

        grid = CylindricalGrid(4, 6, 3, radius=2.0, depth=0.3)
        model = FullModel(grid, loam, roots=RootUptake(root_depth=0.2, h_wilting=-16.0), substeps=4)
        rng = np.random.default_rng(3)
        u = build_projection(Clustering(np.arange(grid.n_nodes) % 9, 9))
        x0 = rng.uniform(-12.0, -3.0, grid.n_nodes)
        inputs = [(SurfaceInput(np.full(grid.n_r, 1e-7 * (j % 2)), j), StepForcing(et=2e-8, k_c=0.5))
                  for j in range(3)]
        full = model.simulate(x0, inputs, 900.0)
        red = ReducedModel(model, u).simulate(reduce_state(u, x0), inputs, 900.0)
        want = float(np.abs((u @ red.T).T[1:] - full[1:]).sum() / grid.n_nodes)
        assert compute_error_metric(model, u, x0, inputs, 900.0) == want

    def test_batched_windows_equal_single_windows(self, loam, monkeypatch):
        # Windows at ticks 0, 2 and 3 overlap; the one at 9 starts after the
        # others have ended, so ticks 7-8 have no live window and make no call.
        from pivotflow import CylindricalGrid, RootUptake

        grid = CylindricalGrid(4, 6, 3, radius=2.0, depth=0.3)
        model = FullModel(grid, loam, roots=RootUptake(root_depth=0.2, h_wilting=-16.0), substeps=4)
        rng = np.random.default_rng(5)
        u = build_projection(Clustering(np.arange(grid.n_nodes) % 9, 9))
        offsets, horizon = [0, 2, 3, 9], 4
        starts = rng.uniform(-12.0, -3.0, (len(offsets), grid.n_nodes))
        inputs = [(SurfaceInput(np.full(grid.n_r, 1e-7 * (t % 3)), t), StepForcing(et=2e-8, k_c=0.5, rain=1e-9 * t))
                  for t in range(offsets[-1] + horizon)]
        singles = [compute_error_metric(model, u, x0, inputs[o:o + horizon], 900.0)
                   for o, x0 in zip(offsets, starts)]

        calls = []
        step = FullModel.step
        monkeypatch.setattr(FullModel, "step", lambda self, x, *a: calls.append(len(x)) or step(self, x, *a))
        gaps = compute_error_metric(model, u, starts, inputs, 900.0, offsets=offsets)
        assert gaps.tolist() == singles
        assert calls == [2, 2, 4, 6, 4, 4, 2, 2, 2, 2, 2]  # full and lifted row per live window

    def test_batched_offsets_checked(self, small_model):
        u = build_projection(Clustering.singletons(small_model.n_states))
        starts = np.full((2, small_model.n_states), -5.0)
        window = [(SurfaceInput(np.zeros(small_model.grid.n_r), 0), StepForcing())] * 3
        with pytest.raises(DimensionMismatch):
            compute_error_metric(small_model, u, starts, window, 900.0, offsets=[1, 0])
        with pytest.raises(DimensionMismatch):
            compute_error_metric(small_model, u, starts, window, 900.0, offsets=[0])
        with pytest.raises(ValidationError):
            compute_error_metric(small_model, u, starts, window, 900.0, offsets=[0, 3])

    def test_empty_window_rejected(self, small_model):
        u = build_projection(Clustering.singletons(small_model.n_states))
        with pytest.raises(ValidationError):
            compute_error_metric(small_model, u, np.full(small_model.n_states, -5.0), [], 900.0)


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


class TestNoiseConfig:
    def test_reduced_covs_match_dense_projection(self):
        rng = np.random.default_rng(9)
        raw = rng.integers(0, 4, 10)
        ids = {}
        assignment = np.array([ids.setdefault(int(v), len(ids)) for v in raw])
        u = build_projection(Clustering(assignment, len(ids)))
        noise = NoiseConfig(q_diag=2.0, q_offdiag=0.5, p0_diag=1.0, p0_offdiag=5e-5)
        ud = u.toarray()
        assert np.abs(noise.reduced_process_cov(u) - ud.T @ noise.dense_process_cov(10) @ ud).max() < 1e-12
        assert np.abs(noise.reduced_initial_cov(u) - ud.T @ noise.dense_initial_cov(10) @ ud).max() < 1e-12

    def test_invalid_settings_rejected(self):
        with pytest.raises(ValidationError):
            NoiseConfig(r_diag=0.0)
        with pytest.raises(ValidationError):
            NoiseConfig(q_diag=1.0, q_offdiag=2.0)
