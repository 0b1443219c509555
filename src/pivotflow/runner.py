"""Scenario orchestration: truth twin, scheme runs, and CSV artifacts.

The truth twin simulates the (possibly parameter-shifted) field with
seeded Gaussian process and measurement noise; schemes consume only the
measurement stream. All artifact files are plain CSV with a fixed column
order. Wall-clock timings are kept out of metrics.csv so that same-seed
reruns are byte-identical; they are written to the timings.csv sidecar.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ekf import SCHEMES, EstimationTrace, run_adaptive_estimation
from .richards import observe
from .scenario import ScenarioConfig, with_overrides

METRICS_COLUMNS = (
    "step", "time_s", "percent_mae", "e_L", "edot_L", "r_m", "model_index", "trigger", "iter_seconds",
)


@dataclass(frozen=True)
class TruthRun:
    """Seeded twin trajectory and the sensor stream the estimator sees."""

    states: np.ndarray        # (steps + 1, n_x)
    measurements: np.ndarray  # (steps, n_y)


def run_truth(cfg: ScenarioConfig) -> TruthRun:
    """Simulate the truth twin and draw the measurement stream from the seed."""
    rng = np.random.default_rng(cfg.seed)
    pre, post = cfg.truth_models()
    n = cfg.steps
    sensors = np.asarray(cfg.sensors, dtype=int)
    states = np.empty((n + 1, cfg.n_x))
    measurements = np.empty((n, sensors.size))
    states[0] = cfg.truth_state0()
    meas_std = float(np.sqrt(cfg.measurement_noise_var))
    proc_std = float(np.sqrt(cfg.process_noise_var))
    for k in range(n):
        measurements[k] = observe(states[k], sensors, rng.normal(0.0, meas_std, sensors.size))
        model = pre if (cfg.shift_step is None or k < cfg.shift_step) else post
        surface, forcing = cfg.truth_inputs(k)
        states[k + 1] = model.step(states[k], surface, forcing, cfg.delta_s)
        states[k + 1] += rng.normal(0.0, proc_std, cfg.n_x)
    if states.max() > 0.0:
        warnings.warn("truth state left the unsaturated regime (h > 0 somewhere)", stacklevel=2)
    return TruthRun(states, measurements)


def run_scheme(cfg: ScenarioConfig, truth: TruthRun, scheme: str | None = None) -> EstimationTrace:
    """Run one estimation scheme against a prepared truth twin."""
    run_cfg = with_overrides(cfg, scheme=scheme)
    return run_adaptive_estimation(run_cfg, truth.measurements, truth=truth.states)


def run_compare(cfg: ScenarioConfig) -> dict[str, EstimationTrace]:
    """Run all three schemes against one shared truth realization."""
    truth = run_truth(cfg)
    return {s: run_scheme(cfg, truth, scheme=s) for s in SCHEMES}


# -- CSV export ---------------------------------------------------------------

def _fmt(value) -> str:
    return repr(float(value))


def _write_csv(path: Path, header, rows) -> Path:
    """Write ``header`` and then each of ``rows`` to the CSV file at ``path``."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def export_artifacts(artifacts: EstimationTrace, outdir) -> list[Path]:
    """Write metrics.csv, model_changes.csv, timings.csv, and state snapshots.

    The iter_seconds column of metrics.csv is left empty so that same-seed
    reruns are byte-identical; the measured values land in timings.csv.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n = artifacts.e_l.size
    metrics = (
        [
            k,
            _fmt(k * artifacts.delta_s),
            _fmt(artifacts.percent_mae[k]) if artifacts.percent_mae is not None else "",
            _fmt(artifacts.e_l[k]),
            _fmt(artifacts.edot_l[k]),
            int(artifacts.orders[k]),
            int(artifacts.model_index[k]),
            int(artifacts.trigger[k]),
            "",
        ]
        for k in range(n)
    )
    written = [
        _write_csv(outdir / "metrics.csv", METRICS_COLUMNS, metrics),
        _write_csv(outdir / "model_changes.csv", ("step", "model_index", "r_m"), artifacts.model_changes),
        _write_csv(outdir / "timings.csv", ("step", "iter_seconds"),
                   ((k, _fmt(artifacts.iter_seconds[k])) for k in range(n))),
    ]

    r, theta, z = artifacts.grid.node_coordinates()
    for step, (h_true, h_est) in sorted(artifacts.snapshots.items()):
        known = h_true is not None  # a run without truth leaves h_true and abs_err blank
        rows = (
            (
                i, _fmt(r[i]), _fmt(theta[i]), _fmt(z[i]), _fmt(h_true[i]) if known else "",
                _fmt(h_est[i]), _fmt(abs(h_est[i] - h_true[i])) if known else "",
            )
            for i in range(artifacts.grid.n_nodes)
        )
        written.append(_write_csv(outdir / f"state_snapshot_{step}.csv",
                                  ("node", "r", "theta", "z", "h_true", "h_est", "abs_err"), rows))
    return written


def export_comparison(runs: dict[str, EstimationTrace], outdir) -> Path:
    """Joined per-step table of the headline metrics across schemes."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    schemes = list(runs)
    n = min(r.e_l.size for r in runs.values())
    header = ["step", "time_s"]
    for s in schemes:
        tag = s.replace("-", "_")
        header += [f"percent_mae_{tag}", f"e_L_{tag}", f"r_m_{tag}"]
    delta_s = next(iter(runs.values())).delta_s
    rows = []
    for k in range(n):
        row = [k, _fmt(k * delta_s)]
        for s in schemes:
            art = runs[s]
            row += [
                _fmt(art.percent_mae[k]) if art.percent_mae is not None else "",
                _fmt(art.e_l[k]),
                int(art.orders[k]),
            ]
        rows.append(row)
    return _write_csv(outdir / "comparison.csv", header, rows)
