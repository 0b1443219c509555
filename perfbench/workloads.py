"""Benchmark workloads, defined in code so the benchmark does not depend on `configs/`.

Each workload is a scenario mapping in the `config_from_dict` schema, built
from the workload seed (which becomes the scenario's truth-noise seed).
`estimates` says whether a run estimates the state or only simulates the
truth twin. pivotflow is imported inside the builders so that the parent
benchmark process can list workloads without importing the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# Soil, forcing and filter settings of the shipped 720-node desk field.
DESK_ZONES = [
    {"alpha": 3.6, "n_vg": 1.56, "theta_r": 0.078, "theta_s": 0.43, "k_s": 2.9e-06},
    {"alpha": 2.0, "n_vg": 1.41, "theta_r": 0.095, "theta_s": 0.41, "k_s": 1.2e-06},
    {"alpha": 4.5, "n_vg": 1.68, "theta_r": 0.065, "theta_s": 0.45, "k_s": 5.0e-06},
    {"alpha": 3.0, "n_vg": 1.48, "theta_r": 0.085, "theta_s": 0.42, "k_s": 2.0e-06},
]
ROOTS = {"root_depth": 0.3, "h_anaerobic": -0.05, "h_field_capacity": -3.3, "h_wilting": -16.0}
DESK_FIELD = {
    "grid": {"n_r": 10, "n_theta": 12, "n_z": 6, "radius": 5.0, "depth": 0.4},
    "soil": {"zones": DESK_ZONES},
    "initial_truth": [-13.5, -14.0, -12.7, -11.5],
    "initial_guess": [-10.0, -12.0, -9.0, -14.0],
    "delta_s": 1800.0,
    "n_fd": 32,
    "th_e": 1.0,
    "th_c": 0.3,
    "slope_limit": 0.01,
    "scheme": "performance",
    "stride": 1,
    "substeps": 24,
    "estimate_ceiling": -1.0,
    "noise": {"process_var": 1.0e-07, "measurement_var": 0.2},
    "ekf": {"q_diag": 0.05, "r_diag": 0.2, "p0_diag": 1.0, "p0_offdiag": 5.0e-05},
    "roots": ROOTS,
    "irrigation": {"rate": 1.0e-07, "start_sector": 0},
    "forcing": {"et": 2.0e-08, "k_c": 0.5, "rain": 0.0},
}

DESK_SHIFT_STEPS = 96


def _config(data: dict, sensor_lattice: tuple[int, int]):
    """Validate a scenario mapping; sensors sit on an (r, theta) lattice at the default layers."""
    from pivotflow.grid import CylindricalGrid
    from pivotflow.scenario import config_from_dict, default_sensor_layers, sensor_lattice as lattice

    grid = CylindricalGrid(**data["grid"])
    layers = default_sensor_layers(grid, data["roots"]["root_depth"])
    sensors = lattice(grid, *sensor_lattice, layers)
    return config_from_dict({**data, "sensors": sensors})


def desk_shift(seed: int):
    # The paper's headline loop: the performance-triggered filter on the desk
    # field with the README's desk_shift knobs (th_e 1.2, slope_limit 0.02) and
    # a truth shift one third of the way in. Each quadrant takes the soil of
    # the opposite quadrant, so k_s changes by a factor of 1.7-4 everywhere
    # while the field keeps the same four soils. At 720 nodes the stepper's
    # per-call overhead dominates: e_L (2 n_fd full steps) and the FD Jacobian
    # (r_m + 1 full steps) take nearly all of each iteration.
    # The post-shift re-identification fires at step 85-91 on seeds 1-5 and 11-15
    # (e_L crosses th_e there), so 96 steps keep it inside every run.
    steps = DESK_SHIFT_STEPS
    z = DESK_ZONES
    return _config({
        **DESK_FIELD,
        "steps": steps,
        "seed": seed,
        "th_e": 1.2,
        "slope_limit": 0.02,
        "truth_shift": {"step": steps // 3, "zones": [z[2], z[3], z[0], z[1]]},
        "snapshot_steps": [0, steps - 1],
    }, (4, 8))


def reid_mid(seed: int):
    # Re-identification dominates: the time-triggered scheme identifies a new
    # model every 8 steps on a 2304-node grid, and e_L runs only on those
    # steps, so the O(n^3) clustering takes most of the estimation time and
    # sets the peak memory. A stepper change barely shows here; a clustering
    # change shows here and not on desk-shift.
    steps = 40
    return _config({
        **DESK_FIELD,
        "grid": {"n_r": 12, "n_theta": 24, "n_z": 8, "radius": 6.0, "depth": 0.4},
        "steps": steps,
        "seed": seed,
        "scheme": "time-triggered",
        "trigger_period": 8,
        "n_fd": 8,
        "stride": 8,
        "th_c": 0.3,
        "snapshot_steps": [0, steps - 1],
    }, (5, 6))


def field_twin(seed: int):
    # The truth twin alone on the 20400-node paper grid: long sequential steps
    # over large arrays, where per-call overhead is negligible and the soil
    # closures and the sink dominate. No estimator runs, because clustering
    # holds two dense n x n arrays and cannot run at this size. A batching or
    # overhead change to the stepper must show no regression here.
    return _config({
        **DESK_FIELD,
        "grid": {"n_r": 25, "n_theta": 68, "n_z": 12, "radius": 290.0, "depth": 0.4},
        "noise": {"process_var": 1.0e-07, "measurement_var": 0.8},
        "steps": 100,
        "seed": seed,
        "snapshot_steps": [0, 99],
    }, (5, 6))


def smoke(seed: int):
    # A tiny scenario for the benchmark's own test: every layer runs
    # (shift, time-triggered re-identification with transfer, e_L each step)
    # in well under a second.
    steps = 12
    z = DESK_ZONES
    return _config({
        **DESK_FIELD,
        "grid": {"n_r": 4, "n_theta": 8, "n_z": 3, "radius": 2.0, "depth": 0.4},
        "steps": steps,
        "seed": seed,
        "scheme": "time-triggered",
        "trigger_period": 4,
        "n_fd": 4,
        "truth_shift": {"step": 4, "zones": [z[2], z[3], z[0], z[1]]},
        "snapshot_steps": [0, steps - 1],
    }, (2, 4))


@dataclass(frozen=True)
class Workload:
    build: Callable
    estimates: bool


WORKLOADS = {
    "desk-shift": Workload(desk_shift, estimates=True),
    "reid-mid": Workload(reid_mid, estimates=True),
    "field-twin": Workload(field_twin, estimates=False),
    "smoke": Workload(smoke, estimates=True),
}
