"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The shift-scenario runs (criteria 5 and 6) are shared through a
session fixture and take most of the suite's time: on a 2-core machine
with one BLAS thread, criterion 5 took 21 s of its 600 s, criterion 6
55-62 s of its 1200 s, and the whole tier-1 suite 87 s (these vary with
the shared host's load).
"""

import time
from pathlib import Path

import numpy as np
import pytest

from pivotflow import (
    Clustering,
    CylindricalGrid,
    FullModel,
    NoiseConfig,
    RootUptake,
    SnapshotMatrix,
    StepForcing,
    SurfaceInput,
    VanGenuchtenParams,
    WaterBudget,
    build_projection,
    cluster_trajectories,
    ekf_predict,
    ekf_update,
    initialize_filter,
    load_config,
    percent_mae,
    reconstruct,
    run_scheme,
    run_truth,
    water_content,
)
from pivotflow.cli import main as cli_main
from pivotflow.reduction import ReducedModel

from conftest import dense_cov

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
LOAM = VanGenuchtenParams(alpha=3.6, n_vg=1.56, theta_r=0.078, theta_s=0.43, k_s=2.9e-6)


def report(criterion, ok, detail):
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


# -- criterion 1: singleton reduced EKF == independent full-order EKF ----------

def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    grid = CylindricalGrid(5, 4, 6, radius=3.0, depth=0.4)  # 120 nodes
    model = FullModel(grid, LOAM, substeps=4)
    n = grid.n_nodes
    sensors = np.arange(0, n, 7)
    noise = NoiseConfig(q_diag=1e-4, r_diag=0.05, p0_diag=0.5, p0_offdiag=1e-5)

    # twin: noisy truth and one shared measurement stream
    x_true = np.full(n, -8.0) + rng.normal(0, 0.3, n)
    inputs = [
        (SurfaceInput(np.full(grid.n_r, 2e-7), k % grid.n_theta), StepForcing(rain=5e-8))
        for k in range(100)
    ]
    measurements = []
    for k in range(100):
        measurements.append(x_true[sensors] + rng.normal(0, 0.1, sensors.size))
        x_true = model.step(x_true, *inputs[k], 900.0) + rng.normal(0, 1e-4, n)

    # filter under test: reduced EKF on the identity (singleton) projection
    reduced = ReducedModel(model, Clustering.singletons(n))
    guess = np.full(n, -7.0)
    state = initialize_filter(reduced, guess, noise, sensors)
    r_cov = noise.measurement_cov(sensors.size)

    # oracle: textbook full-order EKF written against the same stepper
    c_mat = np.zeros((sensors.size, n))
    c_mat[np.arange(sensors.size), sensors] = 1.0
    x_ref = guess.copy()
    p_ref = dense_cov(noise.p0_diag, noise.p0_offdiag, n)
    q_ref = dense_cov(noise.q_diag, noise.q_offdiag, n)

    worst = 0.0
    for k in range(100):
        if k > 0:
            state = ekf_predict(state, *inputs[k - 1], 900.0)
            base = model.step(x_ref, *inputs[k - 1], 900.0)
            jac = np.empty((n, n))
            for i in range(n):
                delta = max(1e-6, 1e-6 * abs(x_ref[i]))
                bumped = x_ref.copy()
                bumped[i] += delta
                jac[:, i] = (model.step(bumped, *inputs[k - 1], 900.0) - base) / delta
            x_ref = base
            p_prop = jac @ p_ref @ jac.T + q_ref
            p_ref = 0.5 * (p_prop + p_prop.T)
        state = ekf_update(state, measurements[k], r_cov)
        innov_cov = r_cov + c_mat @ p_ref @ c_mat.T
        gain = np.linalg.solve(innov_cov, c_mat @ p_ref).T
        x_ref = x_ref + gain @ (measurements[k] - c_mat @ x_ref)
        p_ref = 0.5 * ((np.eye(n) - gain @ c_mat) @ p_ref + ((np.eye(n) - gain @ c_mat) @ p_ref).T)
        worst = max(worst, float(np.abs(reconstruct(state) - x_ref).max()))

    elapsed = time.perf_counter() - started
    report(1, worst < 1e-8 and elapsed < 60.0,
           f"max component gap {worst:.2e} over 100 steps on {n} nodes, {elapsed:.0f}s")


# -- criterion 2: projection algebra over random partitions --------------------

def test_criterion_2_projection_algebra():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_orth = 0.0
    worst_mean = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 501))
        raw = rng.integers(0, rng.integers(1, n + 1), size=n)
        ids = {}
        assignment = np.array([ids.setdefault(int(v), len(ids)) for v in raw])
        u = build_projection(Clustering(assignment, len(ids)))
        gram = (u.T @ u).toarray()
        worst_orth = max(worst_orth, float(np.abs(gram - np.eye(len(ids))).max()))
        x = rng.normal(size=n)
        averaged = u @ (u.T @ x)
        means = np.empty(n)
        for cid in range(len(ids)):  # loop oracle for the cluster means
            members = assignment == cid
            means[members] = x[members].mean()
        worst_mean = max(worst_mean, float(np.abs(averaged - means).max()))
    elapsed = time.perf_counter() - started
    report(2, worst_orth < 1e-12 and worst_mean < 1e-12 and elapsed < 10.0,
           f"1000 partitions, orthonormality {worst_orth:.1e}, mean-averaging {worst_mean:.1e}, {elapsed:.1f}s")


# -- criterion 3: clustering vs exhaustive reference ----------------------------

def brute_force_average_linkage(data, th_c):
    n = data.shape[1]
    base = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            base[i, j] = np.linalg.norm(data[:, i] - data[:, j])
    clusters = [[i] for i in range(n)]
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = np.mean([base[a, b] for a in clusters[i] for b in clusters[j]])
                if best is None or d < best[0]:
                    best = (d, i, j)
        if not best[0] < th_c:
            break
        _, i, j = best
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
    assignment = np.empty(n, dtype=int)
    for cid, members in enumerate(clusters):
        assignment[members] = cid
    return assignment, len(clusters)


def test_criterion_3_clustering_matches_reference():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    checked = 0
    for fixture in range(30):
        data = rng.normal(0, 2.0, size=(8, 12))
        snaps = SnapshotMatrix(data)
        for th_c in (0.1, 1.0, 10.0):
            ours = cluster_trajectories(snaps, th_c)
            ref_assignment, ref_n = brute_force_average_linkage(data, th_c)
            assert ours.n_clusters == ref_n, f"fixture {fixture}, th_c={th_c}"
            assert np.array_equal(ours.assignment, ref_assignment), f"fixture {fixture}, th_c={th_c}"
            checked += 1
    elapsed = time.perf_counter() - started
    report(3, checked == 90 and elapsed < 30.0,
           f"{checked} fixture/threshold combinations match the O(N^3) reference, {elapsed:.1f}s")


# -- criterion 4: physics validity at desk scale --------------------------------

def test_criterion_4_physics_validity():
    started = time.perf_counter()
    grid = CylindricalGrid(10, 12, 6, radius=5.0, depth=0.4)
    assert grid.n_nodes == 720

    # hydrostatic equilibrium (free drainage residual is dry-soil drainage only)
    z = grid.node_coordinates()[2]
    hydro = -20.0 + grid.dz / 2 - z
    model = FullModel(grid, LOAM, substeps=24)
    residual = float(np.abs(model.rhs(hydro, SurfaceInput.idle(grid.n_r), StepForcing())).max())

    # water budget over one simulated day with irrigation, rain, and uptake
    roots = RootUptake(root_depth=0.3, h_wilting=-16.0)
    model_b = FullModel(grid, LOAM, roots=roots, substeps=24)
    soil = VanGenuchtenParams.from_zones(np.zeros(grid.n_nodes, int), [LOAM])
    volumes = grid.flatten(grid.cell_volumes())
    h = np.full(grid.n_nodes, -8.0)
    budget = WaterBudget()
    storage0 = float((water_content(h, soil) * volumes).sum())
    for k in range(48):
        surface = SurfaceInput(np.full(grid.n_r, 5e-7), k % grid.n_theta)
        h = model_b.step(h, surface, StepForcing(et=4e-8, k_c=0.8, rain=1e-7), 1800.0, budget=budget)
    storage1 = float((water_content(h, soil) * volumes).sum())
    closure = abs((storage1 - storage0) - (budget.inflow - budget.drainage - budget.extraction))
    closure_frac = closure / budget.inflow

    # axisymmetry preserved over a day of axisymmetric forcing
    radial = np.linspace(-12.0, -8.0, grid.n_r)
    h3 = np.tile(radial[:, None, None], (1, grid.n_theta, grid.n_z)) + np.linspace(-0.5, 0.0, grid.n_z)
    h_ax = grid.flatten(h3)
    for _ in range(48):
        h_ax = model_b.step(h_ax, SurfaceInput.idle(grid.n_r), StepForcing(et=3e-8, k_c=0.7, rain=1e-7), 1800.0)
    h_ax3 = grid.reshape(h_ax)
    symmetric = all(np.array_equal(h_ax3[:, 0, :], h_ax3[:, j, :]) for j in range(grid.n_theta))

    elapsed = time.perf_counter() - started
    report(4, residual < 1e-8 and closure_frac <= 0.01 and symmetric and elapsed < 120.0,
           f"hydrostatic residual {residual:.1e}, budget closure {closure_frac:.2%} of inflow, "
           f"axisymmetry {'bitwise' if symmetric else 'BROKEN'}, {elapsed:.0f}s")


# -- criteria 5 and 6: shift scenario, shared runs -------------------------------

@pytest.fixture(scope="session")
def shift_runs():
    cfg = load_config(CONFIGS / "desk_shift.yaml")
    truth = run_truth(cfg)
    runs = {"cfg": cfg, "truth": truth}
    started = time.perf_counter()
    runs["performance"] = run_scheme(cfg, truth, scheme="performance")
    runs["performance_seconds"] = time.perf_counter() - started
    return runs


def test_criterion_5_trigger_behavior(shift_runs):
    started = time.perf_counter()
    cfg = shift_runs["cfg"]
    art = shift_runs["performance"]
    shift_step = cfg.shift_step

    post_shift = [c for c in art.model_changes if c[0] > shift_step]
    reidentifications = [c for c in art.model_changes if c[0] > 0]
    sound = all(art.e_l[step - 1] > cfg.th_e for step, _, _ in reidentifications)
    recovered = all(
        np.any(art.e_l[step:step + cfg.n_fd + 1] <= cfg.th_e) for step, _, _ in reidentifications
    )
    elapsed = shift_runs["performance_seconds"] + time.perf_counter() - started
    report(
        5,
        len(post_shift) >= 1 and sound and recovered and elapsed < 600.0,
        f"{len(post_shift)} re-identification(s) after the shift at step {shift_step}, "
        f"trigger soundness {'ok' if sound else 'VIOLATED'}, "
        f"e_L back under th_e within N_fd steps {'ok' if recovered else 'VIOLATED'}, {elapsed:.0f}s",
    )


def test_criterion_6_scheme_comparison(shift_runs):
    started = time.perf_counter()
    cfg = shift_runs["cfg"]
    truth = shift_runs["truth"]
    perf = shift_runs["performance"]
    static = run_scheme(cfg, truth, scheme="static")
    timed = run_scheme(cfg, truth, scheme="time-triggered")

    final_better = perf.percent_mae[-1] < static.percent_mae[-1]
    fewer_changes = len(perf.model_changes) <= len(timed.model_changes)
    halved = perf.percent_mae[-1] <= 0.5 * perf.percent_mae[0]
    elapsed = shift_runs["performance_seconds"] + time.perf_counter() - started
    report(
        6,
        final_better and fewer_changes and halved and elapsed < 1200.0,
        f"final %MAE performance {perf.percent_mae[-1]:.2f} vs static {static.percent_mae[-1]:.2f}; "
        f"changes {len(perf.model_changes)} vs time-triggered {len(timed.model_changes)}; "
        f"%MAE {perf.percent_mae[0]:.2f} -> {perf.percent_mae[-1]:.2f}, {elapsed:.0f}s",
    )


# -- shipped-scenario invariant: the estimator converges on desk.yaml ------------

def test_shipped_desk_scenario_converges():
    cfg = load_config(CONFIGS / "desk.yaml")
    truth = run_truth(cfg)
    art = run_scheme(cfg, truth)
    assert art.percent_mae[-1] < art.percent_mae[0]


# -- criterion 7: reduced scheme beats a full-order EKF per iteration ------------

def test_criterion_7_relative_cost():
    grid = CylindricalGrid(10, 12, 6, radius=5.0, depth=0.4)  # 720 nodes
    from pivotflow.scenario import config_from_dict, default_sensor_layers, sensor_lattice

    sensors = [int(s) for s in sensor_lattice(grid, 3, 6, default_sensor_layers(grid, 0.3))]
    cfg = config_from_dict({
        "grid": {"n_r": 10, "n_theta": 12, "n_z": 6, "radius": 5.0, "depth": 0.4},
        "soil": {"zones": [{"alpha": 3.6, "n_vg": 1.56, "theta_r": 0.078, "theta_s": 0.43, "k_s": 2.9e-6}]},
        "initial_truth": [-12.0, -13.0, -11.0, -10.0],
        "initial_guess": [-10.0, -11.0, -12.0, -11.5],
        "sensors": sensors,
        "steps": 12, "n_fd": 8, "th_e": 2.0, "th_c": 0.3,
        "seed": 5, "substeps": 6, "estimate_ceiling": -1.0,
        "noise": {"process_var": 1e-7, "measurement_var": 0.2},
        "roots": {"root_depth": 0.3, "h_wilting": -16.0},
        "irrigation": {"rate": 1e-7},
        "forcing": {"et": 2e-8, "k_c": 0.5, "rain": 0.0},
    })
    truth = run_truth(cfg)
    reduced_art = run_scheme(cfg, truth)
    reduced_mean = float(reduced_art.iter_seconds.mean())

    # full-order EKF on the same fixture: identity projection, same stepper
    model = cfg.estimator_model()
    reduced = ReducedModel(model, Clustering.singletons(grid.n_nodes))
    state = initialize_filter(reduced, cfg.guess_state0(), cfg.ekf, sensors)
    r_cov = cfg.ekf.measurement_cov(len(sensors))
    times = []
    for k in range(4):
        tic = time.perf_counter()
        if k > 0:
            state = ekf_predict(state, *cfg.estimator_inputs(k - 1), cfg.delta_s)
        state = ekf_update(state, truth.measurements[k], r_cov)
        times.append(time.perf_counter() - tic)
    full_mean = float(np.mean(times[1:]))  # first iteration has no prediction

    report(7, reduced_mean < full_mean,
           f"mean iteration: reduced performance {reduced_mean * 1e3:.0f} ms "
           f"< full-order EKF {full_mean * 1e3:.0f} ms on 720 nodes")


# -- criterion 8: byte-identical compare reruns ----------------------------------

def test_criterion_8_compare_determinism(tmp_path):
    import yaml

    scenario = {
        "grid": {"n_r": 4, "n_theta": 4, "n_z": 3, "radius": 2.0, "depth": 0.3},
        "soil": {"zones": [{"alpha": 3.6, "n_vg": 1.56, "theta_r": 0.078, "theta_s": 0.43, "k_s": 2.9e-6}]},
        "initial_truth": [-9.0, -10.0, -8.5, -9.5],
        "initial_guess": [-8.0, -9.0, -9.5, -10.0],
        "sensors": [2, 14, 26, 38],
        "steps": 6, "n_fd": 3, "th_e": 5.0, "th_c": 0.5, "seed": 7, "substeps": 6,
        "irrigation": {"rate": 5e-8},
        "forcing": {"et": 0.0, "k_c": 0.0, "rain": 1e-8},
    }
    cfg_path = tmp_path / "scenario.yaml"
    cfg_path.write_text(yaml.safe_dump(scenario))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["compare", str(cfg_path), "--outdir", str(out_a)]) == 0
    assert cli_main(["compare", str(cfg_path), "--outdir", str(out_b)]) == 0
    identical = True
    compared = 0
    for scheme in ("performance", "static", "time-triggered"):
        for name in ("metrics.csv", "model_changes.csv"):
            identical &= (out_a / scheme / name).read_bytes() == (out_b / scheme / name).read_bytes()
            compared += 1
    identical &= (out_a / "comparison.csv").read_bytes() == (out_b / "comparison.csv").read_bytes()
    report(8, identical, f"{compared + 1} artifact files byte-identical across same-seed compare reruns")
