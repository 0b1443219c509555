"""Digest of the model outputs, one ``name sha256`` line per case, for byte-identity checks.

    python tools/digest.py > digest.txt

Run it at two commits and diff the outputs: a change that keeps every
number prints the same lines. Cases:

- the public soil closures (``suction_logs``, ``water_content``,
  ``capillary_capacity``, ``hydraulic_conductivity``) at h = 2.5, 0, -3 and
  -1e6 m, for one soil and for four per-node soils, with the text of every
  warning they raise: a closure that stops entering its own errstate
  changes its line;
- ``FullModel.step`` of one state and of a batch of 4 with per-row inputs,
  ``FullModel.rhs`` of the same batch, and a 3-step ``WaterBudget``;
- ``ReducedModel.step`` of the batch on a seeded random partition and on
  singletons, and the message of a diverging full and reduced step;
- each on seven grids (n_r, n_theta and n_z of 1 included, one and four
  soils), both bottom conditions, with and without roots;
- every CSV except ``timings.csv`` that ``pivotflow compare configs/desk.yaml``
  writes;
- ``metrics.csv`` and ``model_changes.csv`` of a time-triggered run on the
  desk field, 40 steps re-identified every 8 with e_L every 8 steps: its
  period is shorter than the estimator's look-ahead, so scheduled
  re-identifications fall inside a look-ahead block.

Runs from the root of a checkout and imports pivotflow from its ``src/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pivotflow import UnstableStep  # noqa: E402
from pivotflow.cli import main  # noqa: E402
from pivotflow.grid import CylindricalGrid  # noqa: E402
from pivotflow.reduction import Clustering, ReducedModel, reduce_state  # noqa: E402
from pivotflow.richards import FullModel, RootUptake, StepForcing, SurfaceInput, WaterBudget  # noqa: E402
from pivotflow.runner import export_artifacts, run_scheme, run_truth  # noqa: E402
from pivotflow.scenario import config_from_dict  # noqa: E402
from pivotflow.soil import (VanGenuchtenParams, capillary_capacity, hydraulic_conductivity,  # noqa: E402
                            suction_logs, water_content)

ZONES = [
    VanGenuchtenParams(alpha=3.6, n_vg=1.56, theta_r=0.078, theta_s=0.43, k_s=2.9e-6),
    VanGenuchtenParams(alpha=2.0, n_vg=1.41, theta_r=0.095, theta_s=0.41, k_s=1.2e-6),
    VanGenuchtenParams(alpha=4.5, n_vg=1.68, theta_r=0.065, theta_s=0.45, k_s=5.0e-6),
    VanGenuchtenParams(alpha=3.0, n_vg=1.48, theta_r=0.085, theta_s=0.42, k_s=2.0e-6),
]
# (n_r, n_theta, n_z, radius, depth), four quadrant soils or one
GRIDS = {
    "desk": ((10, 12, 6, 5.0, 0.4), True),
    "desk-one-soil": ((10, 12, 6, 5.0, 0.4), False),
    "reid-mid": ((12, 24, 8, 6.0, 0.4), True),
    "n_r=1": ((1, 6, 4, 2.0, 0.4), True),
    "n_theta=1": ((4, 1, 4, 2.0, 0.4), True),
    "n_theta=2": ((4, 2, 4, 2.0, 0.4), True),
    "n_z=1": ((4, 6, 1, 2.0, 0.1), True),
}
DT = 1800.0


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    elif not isinstance(data, bytes):
        data = np.ascontiguousarray(data, dtype=float).tobytes()
    return hashlib.sha256(data).hexdigest()


def inputs(grid: CylindricalGrid, rows: int):
    """One (surface, forcing) pair per row: irrigation in sector t, ET, and rain on odd rows."""
    return ([SurfaceInput(np.full(grid.n_r, 1e-7 * (1 + t)), t) for t in range(rows)],
            [StepForcing(et=2e-8, k_c=0.5, rain=1e-8 * (t % 2)) for t in range(rows)])


def partition(n: int, n_clusters: int, rng) -> Clustering:
    raw = rng.integers(0, n_clusters, size=n)
    ids = {}
    return Clustering(np.array([ids.setdefault(int(a), len(ids)) for a in raw]), len(ids))


def unstable(step, *args) -> str:
    try:
        step(*args)
    except UnstableStep as exc:
        return f"UnstableStep: {exc}"
    return "no error"


def closure_cases():
    h = np.array([2.5, 0.0, -3.0, -1e6])
    for name, soil in (("one-soil", ZONES[0]), ("per-node", VanGenuchtenParams.from_zones(np.arange(4), ZONES))):
        for closure in (suction_logs, water_content, capillary_capacity, hydraulic_conductivity):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                value = closure(h, soil)
            raised = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught).encode()
            yield f"closures/{name}/{closure.__name__}", np.ascontiguousarray(value, dtype=float).tobytes() + raised


def model_cases():
    for name, (dims, zoned) in GRIDS.items():
        grid = CylindricalGrid(*dims)
        soil = VanGenuchtenParams.from_zones(grid.quadrant_of_node(), ZONES) if zoned else ZONES[0]
        for bottom_bc in ("free_drainage", "no_flux"):
            for with_roots in (True, False):
                roots = RootUptake(root_depth=min(0.3, grid.depth), h_wilting=-16.0) if with_roots else None
                model = FullModel(grid, soil, roots=roots, substeps=24, bottom_bc=bottom_bc)
                rng = np.random.default_rng(len(name))
                x = rng.uniform(-14.0, -3.0, (4, model.n_states))
                surfaces, forcings = inputs(grid, 4)
                tag = f"{name}/{bottom_bc}/{'roots' if with_roots else 'no-roots'}"
                yield f"{tag}/full-step-B1", model.step(x[0], surfaces[1], forcings[1], DT)
                yield f"{tag}/full-step-B4", model.step(x, surfaces, forcings, DT)
                yield f"{tag}/rhs-B4", model.rhs(x, surfaces, forcings)
                budget, h = WaterBudget(), x[0]
                for t in range(3):
                    h = model.step(h, surfaces[t], forcings[t], DT, budget=budget)
                yield f"{tag}/budget-3", np.array([budget.inflow, budget.drainage, budget.extraction, *h])
                for kind, clustering in (("random", partition(model.n_states, 9, rng)),
                                         ("singletons", Clustering.singletons(model.n_states))):
                    reduced = ReducedModel(model, clustering)
                    xi = reduce_state(clustering, x)
                    yield f"{tag}/reduced-{kind}-B4", reduced.step(xi, surfaces, forcings, DT)
        # two sub-steps of 900 s are too few where wet nodes border dry ones
        coarse = FullModel(grid, soil, substeps=2)
        wet = np.where(np.arange(grid.n_nodes) % 7 < 3, -0.01, -20.0)
        idle = (SurfaceInput.idle(grid.n_r), StepForcing(), DT)
        reduced = ReducedModel(coarse, Clustering(np.arange(grid.n_nodes) % 7, 7))
        yield f"{name}/unstable-full", unstable(coarse.step, wet, *idle)
        yield f"{name}/unstable-reduced", unstable(reduced.step, reduce_state(reduced.clustering, wet), *idle)


def compare_cases():
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        if main(["compare", str(ROOT / "configs" / "desk.yaml"), "--outdir", out]) != 0:
            raise SystemExit("pivotflow compare failed")
        files = sorted(p for p in Path(out).rglob("*.csv") if p.name != "timings.csv")
        return [(f"compare-desk/{p.relative_to(out)}", p.read_bytes()) for p in files]


def scheduled_cases():
    data = yaml.safe_load((ROOT / "configs" / "desk.yaml").read_text())
    data.update(steps=40, scheme="time-triggered", trigger_period=8, stride=8, snapshot_steps=[0, 39])
    cfg = config_from_dict(data)
    with tempfile.TemporaryDirectory() as out:
        export_artifacts(run_scheme(cfg, run_truth(cfg)), out)
        return [(f"desk-period-8/{name}", (Path(out) / name).read_bytes())
                for name in ("metrics.csv", "model_changes.csv")]


if __name__ == "__main__":
    for case, data in [*closure_cases(), *model_cases(), *compare_cases(), *scheduled_cases()]:
        print(case, sha(data))
