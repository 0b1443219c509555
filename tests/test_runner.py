"""Truth twin, scheme orchestration, %MAE, and export tests."""

import time

import numpy as np
import pytest

from pivotflow import (
    DegenerateReference,
    DimensionMismatch,
    EstimationTrace,
    FullModel,
    NonFiniteState,
    PivotflowError,
    SingularInnovation,
    SurfaceInput,
    UnstableStep,
    export_artifacts,
    export_comparison,
    percent_mae,
    run_scheme,
    run_truth,
)
import pivotflow.ekf as ekf
from pivotflow.ekf import run_adaptive_estimation
from pivotflow.scenario import config_from_dict
from pivotflow.grid import CylindricalGrid

TINY = {
    "grid": {"n_r": 4, "n_theta": 4, "n_z": 3, "radius": 2.0, "depth": 0.3},
    "soil": {"zones": [{"alpha": 3.6, "n_vg": 1.56, "theta_r": 0.078, "theta_s": 0.43, "k_s": 2.9e-6}]},
    "initial_truth": [-9.0, -10.0, -8.5, -9.5],
    "initial_guess": [-8.0, -9.0, -9.5, -10.0],
    "sensors": [2, 14, 26, 38],
    "steps": 8,
    "n_fd": 3,
    "th_e": 5.0,
    "th_c": 0.5,
    "seed": 7,
    "substeps": 6,
    "irrigation": {"rate": 5e-8},
    "forcing": {"et": 0.0, "k_c": 0.0, "rain": 1e-8},
}


@pytest.fixture(scope="module")
def tiny_cfg():
    return config_from_dict(TINY)


@pytest.fixture(scope="module")
def tiny_truth(tiny_cfg):
    return run_truth(tiny_cfg)


class TestPercentMae:
    def test_perfect_estimate(self):
        x = np.array([-3.0, -4.0])
        assert percent_mae(x, x) == 0.0

    def test_scaling_algebra(self):
        x = np.array([-2.0, -4.0, -8.0])
        assert percent_mae(1.1 * x, x) == pytest.approx(10.0, rel=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(1)
        x_hat, x = rng.normal(size=(2, 100))
        naive = 100.0 * sum(abs(a - b) for a, b in zip(x_hat, x)) / sum(abs(v) for v in x)
        assert percent_mae(x_hat, x) == pytest.approx(naive, rel=1e-12)

    def test_degenerate_reference(self):
        with pytest.raises(DegenerateReference):
            percent_mae(np.ones(3), np.zeros(3))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            percent_mae(np.ones(3), np.ones(4))


class TestRunTruth:
    def test_zero_noise_measurements_equal_state(self):
        cfg = config_from_dict(dict(TINY, noise={"process_var": 0.0, "measurement_var": 0.0}))
        truth = run_truth(cfg)
        sensors = np.asarray(cfg.sensors)
        for k in range(cfg.steps):
            assert np.array_equal(truth.measurements[k], truth.states[k][sensors])

    def test_same_seed_reproduces_streams(self, tiny_cfg, tiny_truth):
        again = run_truth(tiny_cfg)
        assert np.array_equal(again.states, tiny_truth.states)
        assert np.array_equal(again.measurements, tiny_truth.measurements)

    def test_different_seed_differs(self, tiny_cfg, tiny_truth):
        from dataclasses import replace

        other = run_truth(replace(tiny_cfg, seed=8))
        assert not np.array_equal(other.measurements, tiny_truth.measurements)

    def test_default_noise_variances_are_paper_values(self):
        cfg = config_from_dict({k: v for k, v in TINY.items()})
        assert cfg.process_noise_var == 1e-7
        assert cfg.measurement_noise_var == 0.8

    def test_shapes(self, tiny_cfg, tiny_truth):
        assert tiny_truth.states.shape == (tiny_cfg.steps + 1, tiny_cfg.n_x)
        assert tiny_truth.measurements.shape == (tiny_cfg.steps, tiny_cfg.n_y)


class TestWarnings:
    def test_saturated_truth_warns(self):
        # huge seeded process noise pushes some heads positive in one step
        import warnings

        cfg = config_from_dict(dict(
            TINY,
            steps=1,
            noise={"process_var": 25.0, "measurement_var": 0.0},
        ))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            truth = run_truth(cfg)
        assert truth.states.max() > 0.0
        assert any("unsaturated" in str(w.message) for w in caught)


class TestSchemes:
    def test_static_scheme_identifies_once(self, tiny_cfg, tiny_truth):
        art = run_scheme(tiny_cfg, tiny_truth, scheme="static")
        assert len(art.model_changes) == 1
        assert art.model_changes[0][0] == 0
        assert np.all(art.model_index == 1)

    def test_time_triggered_counts(self, tiny_truth):
        cfg = config_from_dict(dict(TINY, steps=9, n_fd=3, scheme="time-triggered"))
        truth = run_truth(cfg)
        art = run_scheme(cfg, truth)
        # triggers at k = 0, 3, 6 for period n_fd = 3
        assert len(art.model_changes) == 3
        assert [c[0] for c in art.model_changes] == [0, 3, 6]

    def test_infinite_threshold_reproduces_static_behavior(self, tiny_truth):
        cfg = config_from_dict(dict(TINY, th_e=float("inf"), scheme="performance"))
        art = run_scheme(cfg, tiny_truth)
        assert len(art.model_changes) == 1
        assert art.model_changes[0][0] == 0

    def test_performance_scheme_trigger_soundness(self, tiny_cfg, tiny_truth):
        art = run_scheme(tiny_cfg, tiny_truth, scheme="performance")
        for step, _, _ in art.model_changes[1:]:
            assert art.e_l[step - 1] > tiny_cfg.th_e

    def test_trace_axes_share_step_count(self, tiny_cfg, tiny_truth):
        art = run_scheme(tiny_cfg, tiny_truth)
        n = tiny_cfg.steps
        for series in (art.percent_mae, art.e_l, art.edot_l, art.orders,
                       art.model_index, art.trigger, art.iter_seconds):
            assert len(series) == n

    def test_snapshots_kept_only_at_snapshot_steps(self, tiny_truth):
        cfg = config_from_dict(dict(TINY, snapshot_steps=[0, 3, 7]))
        art = run_scheme(cfg, tiny_truth)
        assert sorted(art.snapshots) == [0, 3, 7]
        for step, (h_true, h_est) in art.snapshots.items():
            assert np.array_equal(h_true, tiny_truth.states[step])
            assert percent_mae(h_est, h_true) == art.percent_mae[step]
        # no per-step array of full-grid estimates is kept
        assert not any(np.shape(v) == (cfg.steps, cfg.n_x) for v in vars(art).values())
        trace = run_adaptive_estimation(cfg, tiny_truth.measurements)
        assert sorted(trace.snapshots) == [0, 3, 7]
        assert all(h_true is None for h_true, _ in trace.snapshots.values())

    def test_stride_holds_e_l_between_evaluations(self):
        # With stride 3, e_L is evaluated at multiples of 3 and at re-identifications
        # and recorded again unchanged in between, so a held step adds no rise to
        # the differences edot_L averages.
        cfg = config_from_dict(dict(TINY, steps=12, stride=3, scheme="performance"))
        art = run_scheme(cfg, run_truth(cfg))
        held = [s for s in range(1, cfg.steps) if s % 3 and not art.trigger[s]]
        assert len(held) == 8
        for s in held:
            assert art.e_l[s] == art.e_l[s - 1], s
        assert all(art.e_l[s] != art.e_l[s - 1] for s in (3, 6, 9))

    def test_covariance_stays_psd(self, tiny_cfg, tiny_truth, monkeypatch):
        # every update is checked, look-ahead ones that a trigger discards too
        update = ekf.ekf_update
        worst = []

        def checked(state, y, r_cov):
            state = update(state, y, r_cov)
            worst.append((np.abs(state.cov - state.cov.T).max(), np.linalg.eigvalsh(state.cov).min()))
            return state

        monkeypatch.setattr(ekf, "ekf_update", checked)
        run_adaptive_estimation(tiny_cfg, tiny_truth.measurements)
        assert len(worst) >= tiny_cfg.steps
        sym = max(w[0] for w in worst)
        eig = min(w[1] for w in worst)
        assert sym < 1e-9
        assert eig > -1e-9


class TestExport:
    def _artifacts(self, n=3):
        grid = CylindricalGrid(2, 2, 2, radius=1.0, depth=0.2)
        return EstimationTrace(
            scheme="static",
            grid=grid,
            delta_s=1800.0,
            percent_mae=np.linspace(10, 8, n),
            e_l=np.linspace(0.1, 0.3, n),
            edot_l=np.zeros(n),
            orders=np.full(n, 4, dtype=int),
            model_index=np.ones(n, dtype=int),
            trigger=np.array([True] + [False] * (n - 1)),
            iter_seconds=np.full(n, 0.5),
            model_changes=[(0, 1, 4)],
            snapshots={0: (np.full(8, -2.0), np.full(8, -2.5))},
        )

    def test_metrics_columns_and_rows(self, tmp_path):
        files = export_artifacts(self._artifacts(), tmp_path)
        metrics = (tmp_path / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "step,time_s,percent_mae,e_L,edot_L,r_m,model_index,trigger,iter_seconds"
        assert len(metrics) == 4
        assert metrics[1].split(",")[0] == "0"
        assert (tmp_path / "metrics.csv") in files

    def test_empty_run_writes_headers_only(self, tmp_path):
        art = self._artifacts(n=0)
        art.snapshots = {}
        art.model_changes = []
        export_artifacts(art, tmp_path)
        assert (tmp_path / "metrics.csv").read_text().splitlines() == [
            "step,time_s,percent_mae,e_L,edot_L,r_m,model_index,trigger,iter_seconds"
        ]
        assert (tmp_path / "model_changes.csv").read_text().splitlines() == ["step,model_index,r_m"]

    def test_snapshot_without_truth_leaves_truth_cells_blank(self, tmp_path):
        art = self._artifacts()
        art.snapshots = {0: (None, np.full(8, -2.5))}
        export_artifacts(art, tmp_path)
        row = (tmp_path / "state_snapshot_0.csv").read_text().splitlines()[1].split(",")
        assert row[4:] == ["", "-2.5", ""]

    def test_snapshot_has_one_row_per_node(self, tmp_path):
        export_artifacts(self._artifacts(), tmp_path)
        snap = (tmp_path / "state_snapshot_0.csv").read_text().splitlines()
        assert snap[0] == "node,r,theta,z,h_true,h_est,abs_err"
        assert len(snap) == 1 + 8

    def test_deterministic_timings_column_blank_by_default(self, tmp_path):
        export_artifacts(self._artifacts(), tmp_path)
        row = (tmp_path / "metrics.csv").read_text().splitlines()[1]
        assert row.endswith(",")  # iter_seconds withheld from metrics.csv
        timings = (tmp_path / "timings.csv").read_text().splitlines()
        assert timings[0] == "step,iter_seconds"
        assert timings[1] == "0,0.5"

    def test_rerun_same_artifacts_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        export_artifacts(self._artifacts(), a)
        export_artifacts(self._artifacts(), b)
        for name in ("metrics.csv", "model_changes.csv", "state_snapshot_0.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_comparison_table(self, tmp_path):
        runs = {"performance": self._artifacts(), "static": self._artifacts()}
        path = export_comparison(runs, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "step,time_s,percent_mae_performance,e_L_performance,r_m_performance,"
            "percent_mae_static,e_L_static,r_m_static"
        )
        assert len(lines) == 4


class TestEndToEndDeterminism:
    def test_full_pipeline_byte_identical(self, tiny_cfg, tmp_path):
        for sub in ("x", "y"):
            truth = run_truth(tiny_cfg)
            art = run_scheme(tiny_cfg, truth)
            export_artifacts(art, tmp_path / sub)
        for name in ("metrics.csv", "model_changes.csv", "state_snapshot_0.csv"):
            assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()


class TestLookahead:
    """Blocks of look-ahead steps must reproduce a one-step-at-a-time run."""

    ARRAYS = ("e_l", "edot_l", "orders", "model_index", "trigger", "percent_mae")

    @classmethod
    def _assert_same(cls, run, reference):
        for name in cls.ARRAYS:
            assert getattr(run, name).tobytes() == getattr(reference, name).tobytes(), name
        # the estimate of every step (snapshot_steps covers them all)
        assert sorted(run.snapshots) == sorted(reference.snapshots) == list(range(len(run.e_l)))
        for step, (h_true, h_est) in reference.snapshots.items():
            assert run.snapshots[step][1].tobytes() == h_est.tobytes(), step
            assert run.snapshots[step][0].tobytes() == h_true.tobytes(), step
        assert run.model_changes == reference.model_changes

    @staticmethod
    def _estimate(monkeypatch, lookahead, cfg, measurements, **kwargs):
        monkeypatch.setattr(ekf, "_LOOKAHEAD", lookahead)
        return run_adaptive_estimation(cfg, measurements, **kwargs)

    @pytest.mark.parametrize("over", [
        dict(scheme="performance"),
        dict(scheme="static"),
        dict(scheme="time-triggered"),
        dict(scheme="time-triggered", trigger_period=5),
        dict(scheme="performance", stride=2, th_e=0.1, slope_limit=0.02),
        dict(scheme="static", stride=3),
        dict(scheme="performance", th_e=0.14, slope_limit=0.02),
        dict(scheme="performance", th_e=0.1, slope_limit=0.02),
    ])
    def test_blocks_equal_single_steps(self, over, monkeypatch):
        cfg = config_from_dict(dict(TINY, steps=24, snapshot_steps=list(range(24)), **over))
        truth = run_truth(cfg)
        rows = []
        step = FullModel.step

        def counted(model, x, *args, **kwargs):
            rows[-1] += 1 if np.ndim(x) == 1 else len(x)
            return step(model, x, *args, **kwargs)

        monkeypatch.setattr(FullModel, "step", counted)
        runs = []
        # the counting legs run in one process, so the patch sees every row; the last leg splits e_L
        for lookahead, cpus in ((1, 1), (ekf._LOOKAHEAD, 1), (ekf._LOOKAHEAD, 2)):
            monkeypatch.setattr(ekf, "_cpus", lambda: cpus)
            rows.append(0)
            runs.append(self._estimate(monkeypatch, lookahead, cfg, truth.measurements, truth=truth.states))
        self._assert_same(runs[1], runs[0])
        self._assert_same(runs[2], runs[0])
        if "slope_limit" in over:
            # a performance re-identification fires inside a block, so the walk must cut it
            assert any(k % ekf._LOOKAHEAD for k, _, _ in runs[0].model_changes[1:])
            assert rows[1] > rows[0]
        else:
            assert rows[1] == rows[0]  # scheduled triggers end a block, so nothing is discarded

    @pytest.mark.parametrize("stride, failing", [(1, 5), (2, 5)])
    def test_error_names_the_same_step(self, stride, failing, monkeypatch):
        # The update rejects the NaN measurement of step 5 whatever the e_L
        # stride, and every look-ahead step after it fails too.
        cfg = config_from_dict(dict(TINY, steps=16, stride=stride))
        measurements = run_truth(cfg).measurements.copy()
        measurements[5, 1] = np.nan
        errors = []
        for lookahead in (1, ekf._LOOKAHEAD):
            with pytest.raises(PivotflowError) as caught:
                self._estimate(monkeypatch, lookahead, cfg, measurements)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        assert errors[0] == (NonFiniteState, f"step {failing}: measurement contains non-finite entries")

    @pytest.mark.parametrize("stride, failing", [(1, 8), (3, 9)])
    def test_error_metric_failure_names_the_same_step(self, stride, failing, monkeypatch):
        # The full model raises when any row takes tick 10's inputs. The first
        # step to reach that tick is the e_L window of step `failing` (n_fd 3);
        # the filter reaches it only at step 11, where a look-ahead block meets
        # it first.
        rates = [5e-8] * 10 + [6e-8, 5e-8]
        cfg = config_from_dict(dict(TINY, steps=16, stride=stride, irrigation={"rate": rates}))
        measurements = run_truth(cfg).measurements
        step = FullModel.step

        def raises_on_tick_10(model, x, surface, forcing, dt):
            rows = [surface] if isinstance(surface, SurfaceInput) else surface
            if any(s.u[0] == 6e-8 for s in rows):
                raise UnstableStep("state diverged on tick 10")
            return step(model, x, surface, forcing, dt)

        monkeypatch.setattr(FullModel, "step", raises_on_tick_10)
        errors = []
        for lookahead in (1, ekf._LOOKAHEAD):
            with pytest.raises(PivotflowError) as caught:
                self._estimate(monkeypatch, lookahead, cfg, measurements)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        assert errors[0] == (UnstableStep, f"step {failing}: state diverged on tick 10")

    def test_discarded_look_ahead_failure_does_not_stop_the_run(self, monkeypatch):
        # Step 12 re-identifies. The update of step 14 fails under model 1,
        # which only a look-ahead block reaches; a one-step-at-a-time run
        # filters step 14 under model 2.
        readings = []

        def clock():
            readings.append(time.perf_counter())
            return readings[-1]

        cfg = config_from_dict(dict(TINY, steps=24, th_e=0.14, slope_limit=0.02, snapshot_steps=list(range(24))))
        truth = run_truth(cfg)
        update = ekf.ekf_update
        raised = []

        def fails_on_model_1_at_step_14(state, y, r_cov):
            if state.model_index == 1 and np.array_equal(y, truth.measurements[14]):
                raised[-1] += 1
                raise SingularInnovation("innovation covariance is not positive definite")
            return update(state, y, r_cov)

        monkeypatch.setattr(ekf, "ekf_update", fails_on_model_1_at_step_14)
        monkeypatch.setattr(ekf, "perf_counter", clock)
        runs = []
        for lookahead in (1, ekf._LOOKAHEAD):
            readings.clear()
            raised.append(0)
            runs.append(self._estimate(monkeypatch, lookahead, cfg, truth.measurements, truth=truth.states))
            assert [c[0] for c in runs[-1].model_changes] == [0, 12]
            assert np.all(runs[-1].iter_seconds >= 0)
            assert runs[-1].iter_seconds.sum() == pytest.approx(readings[-1] - readings[0], rel=1e-9)
        assert raised == [0, 1]
        self._assert_same(runs[1], runs[0])

    def test_iter_seconds_add_up_to_loop_wall_time(self, monkeypatch):
        readings = []

        def clock():
            readings.append(time.perf_counter())
            return readings[-1]

        monkeypatch.setattr(ekf, "perf_counter", clock)
        cfg = config_from_dict(dict(TINY, steps=24, th_e=0.14, slope_limit=0.02))
        trace = run_adaptive_estimation(cfg, run_truth(cfg).measurements)
        assert [c[0] for c in trace.model_changes] == [0, 12]  # look-ahead past step 12 is discarded
        assert np.all(trace.iter_seconds >= 0)
        assert trace.iter_seconds.sum() == pytest.approx(readings[-1] - readings[0], rel=1e-9)
