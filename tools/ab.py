"""In-process A/B timing of two checkouts of pivotflow, case by case.

    python tools/ab.py PARENT_TREE CHANGE_TREE --out BENCH_<label>.json [--rounds 15] [--only TEXT]

Copies each tree's ``src/pivotflow`` into a temporary directory as the
packages ``ab_parent`` and ``ab_change`` and imports both into this one
process, so that both sides share the interpreter, the allocator and the
host's noise. For each case it

1. runs the case once on each side and checks that the two results are equal
   bytes (else it exits with an error, before any timing);
2. times it for ``--rounds`` rounds, alternating which side runs first; in a
   round each side runs a step case ``CALLS`` times and the episode
   ``EPISODE_CALLS`` times, and keeps the median.

The output holds, per case, each side's per-round medians, the per-round
change/parent ratios and their median, and the rounds each side won (a tie
counts for neither).

Cases, on the benchmark's desk settings (``configs/desk_shift.yaml``: four
quadrant soils, roots, 24 sub-steps), for the desk grid (720 nodes) and a
12 x 24 x 8 grid (2304 nodes, n_fd 8):

- ``FullModel.step`` at B = 1 and 16: rows near the initial guess, one
  scheduled input per row;
- ``ReducedModel.step`` at B = 1 and r + 1 (the FD Jacobian's batch), on the
  model identified from the grid's guess: snapshots over n_fd steps,
  clustered at th_c;
- one ``run_scheme`` episode of ``configs/desk_shift.yaml`` trimmed to 96
  steps with the truth shift at step 32, seed 1 (its truth run is untimed).
  It runs with ``reduction._cpus`` patched to 1 on both sides, so e_L runs
  in the timing process and no forked helper shares the cores with it. On a
  shared 2-core VM its per-round ratios still spread over about ±15 %, so
  only the median over rounds says anything, and only about a larger change.

Run it from the root of a checkout with ``OMP_NUM_THREADS=1`` on a quiet host;
it takes a few minutes at the defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# changes to configs/desk_shift.yaml per grid of the step cases
GRIDS = {"desk": {}, "2304": {"grid": {"n_r": 12, "n_theta": 24, "n_z": 8, "radius": 6.0, "depth": 0.4}, "n_fd": 8}}
CALLS = 15  # calls per side and round of a step case
EPISODE_CALLS = 3  # calls per side and round of the episode


def load_side(tree: Path, name: str, into: Path):
    """Import ``tree``'s ``src/pivotflow`` under the package name ``name``, copied into ``into``."""
    shutil.copytree(tree / "src" / "pivotflow", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)  # its __init__ imports every module


def as_bytes(value) -> bytes:
    """The bytes two equal results share; an estimation trace's wall times are left out."""
    if isinstance(value, np.ndarray):
        return repr((value.shape, value.dtype.str)).encode() + np.ascontiguousarray(value).tobytes()
    if dataclasses.is_dataclass(value):
        return b"".join(as_bytes(getattr(value, f.name)) for f in dataclasses.fields(value) if f.name != "iter_seconds")
    if isinstance(value, dict):
        return b"".join(as_bytes(k) + as_bytes(v) for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return b"".join(map(as_bytes, value))
    return repr(value).encode()


def desk_shift() -> dict:
    return yaml.safe_load((ROOT / "configs" / "desk_shift.yaml").read_text())


def step_cases(pf, label: str):
    """Name -> zero-argument call of the full and reduced step cases on one grid, and the reduced order."""
    cfg = pf.scenario.config_from_dict(dict(desk_shift(), **GRIDS[label]))
    model = cfg.estimator_model()
    window = cfg.estimator_inputs_window(0, cfg.n_fd)
    snapshots = pf.reduction.generate_snapshots(model, cfg.guess_state0(), window, cfg.delta_s)
    reduced = pf.reduction.ReducedModel(model, pf.reduction.cluster_trajectories(snapshots, cfg.th_c))
    rows = max(16, reduced.order + 1)
    x = cfg.guess_state0() + np.random.default_rng(0).uniform(-0.5, 0.5, (rows, model.n_states))
    surfaces, forcings = zip(*cfg.estimator_inputs_window(0, rows))
    xi = pf.reduction.reduce_state(reduced.clustering, x)
    dt = cfg.delta_s
    cases = {}
    for b in (1, 16):
        args = (x[0], surfaces[0], forcings[0]) if b == 1 else (x[:b], surfaces[:b], forcings[:b])
        cases[f"full-step/{label}/B={b}"] = lambda args=args: model.step(*args, dt)
    for b, tag in ((1, "1"), (reduced.order + 1, "r+1")):
        args = (xi[0], surfaces[0], forcings[0]) if b == 1 else (xi[:b], surfaces[:b], forcings[:b])
        cases[f"reduced-step/{label}/B={tag}"] = lambda args=args: reduced.step(*args, dt)
    return cases, reduced.order


def episode(pf):
    """A zero-argument call of the desk-shift episode on one core; its truth run is made here, untimed."""
    pf.reduction._cpus = lambda: 1  # e_L runs in this process, without a forked helper
    data = dict(desk_shift(), steps=96, seed=1, snapshot_steps=[0, 95])
    data["truth_shift"]["step"] = 32
    cfg = pf.scenario.config_from_dict(data)
    truth = pf.runner.run_truth(cfg)
    return lambda: pf.runner.run_scheme(cfg, truth)


def timed(fn, calls: int) -> float:
    """Median seconds of ``calls`` calls of ``fn``."""
    gc.collect()
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def compare(name: str, fns: dict, rounds: int, calls: int) -> dict:
    first = {side: as_bytes(fns[side]()) for side in SIDES}
    if first["parent"] != first["change"]:
        raise SystemExit(f"{name}: the two sides return different bytes")
    medians = {side: [] for side in SIDES}
    for r in range(rounds):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            medians[side].append(timed(fns[side], calls))
    ratios = [c / p for p, c in zip(medians["parent"], medians["change"])]
    return {
        "calls_per_round": calls,
        "parent_ms": [1e3 * t for t in medians["parent"]],
        "change_ms": [1e3 * t for t in medians["change"]],
        "parent_median_ms": 1e3 * statistics.median(medians["parent"]),
        "change_median_ms": 1e3 * statistics.median(medians["change"]),
        "ratios": ratios,
        "ratio_median": statistics.median(ratios),
        "change_won": sum(c < p for p, c in zip(medians["parent"], medians["change"])),
        "parent_won": sum(p < c for p, c in zip(medians["parent"], medians["change"])),
        "equal_bytes": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--only", default="", help="time only the cases whose name contains this text")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        packages = {side: load_side(getattr(args, side).resolve(), f"ab_{side}", Path(tmp)) for side in SIDES}
        cases, orders = {}, {}
        for label in GRIDS:
            built = {side: step_cases(packages[side], label) for side in SIDES}
            orders[label] = built["change"][1]
            for name in built["change"][0]:
                cases[name] = {side: built[side][0][name] for side in SIDES}
        cases["run_scheme/desk_shift-96"] = {side: episode(packages[side]) for side in SIDES}
        results = {}
        for name, fns in ((name, fns) for name, fns in cases.items() if args.only in name):
            calls = EPISODE_CALLS if name.startswith("run_scheme") else CALLS
            results[name] = compare(name, fns, args.rounds, calls)
            print(f"{name}: {results[name]['ratio_median']:.3f} change/parent, "
                  f"change won {results[name]['change_won']}/{args.rounds}", flush=True)
    report = {
        "tool": "python tools/ab.py PARENT_TREE CHANGE_TREE --out FILE"
                f" --rounds {args.rounds}" + (f" --only {args.only}" if args.only else ""),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
                 "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")},
        "rounds": args.rounds,
        "reduced_orders": orders,
        "cases": results,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
