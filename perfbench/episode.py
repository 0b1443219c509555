"""One benchmark process: time the set-up, or run a workload's episodes.

    python3 perfbench/episode.py setup <workload> <seed>
    python3 perfbench/episode.py run <workload> <seed> <seconds> <trace 0|1> <outdir>

`run.py` starts this in a fresh process per measurement, so the import in
`setup` is cold and `peak_rss_mb` belongs to the workload alone. An episode
is one truth twin, one estimation run and one artifact export; a twin-only
workload runs its twin TRUTH_REPEATS times and reports the fastest. Another
episode starts only while one more of the same length still fits in
`seconds`; at least one runs. The result is one JSON object on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402  (imports no pivotflow code)

TRUTH_REPEATS = 5


def _import_program():
    import pivotflow

    if Path(pivotflow.__file__).resolve().parent != ROOT / "src" / "pivotflow":
        raise SystemExit(f"pivotflow was imported from {pivotflow.__file__}, not from this checkout")


def setup(workload: str, seed: int) -> dict:
    """Import, scenario build and validation, model construction."""
    started = time.perf_counter()
    _import_program()
    cfg = WORKLOADS[workload].build(seed)
    cfg.estimator_model()
    cfg.truth_models()
    return {"setup_s": time.perf_counter() - started}


def _checks(truth, art) -> dict:
    """Correctness checks of one episode; each entry is True when it passes."""
    import numpy as np

    checks = {}
    if art is None:
        states = truth.states
        checks["twin_finite"] = bool(np.all(np.isfinite(states)))
        checks["twin_unsaturated"] = bool(checks["twin_finite"] and states.max() < 0.0)
        return checks
    # %MAE is finite exactly when every estimate is (the truth is finite).
    checks["estimates_finite"] = bool(np.all(np.isfinite(art.percent_mae)))
    checks["final_mae_below_initial"] = bool(art.percent_mae[-1] < art.percent_mae[0])
    return checks


def _episode(workload: str, cfg, outdir: Path, rec) -> dict:
    from contextlib import nullcontext

    import numpy as np
    from pivotflow import PivotflowError, export_artifacts, run_scheme, run_truth

    span = rec.span if rec is not None else (lambda name: nullcontext())
    estimates = WORKLOADS[workload].estimates
    # truth_s is reported only where the twin is the whole run (field-twin).
    repeats = TRUTH_REPEATS if rec is None and not estimates else 1
    truth_times = []
    result = {"error": None}
    try:
        for _ in range(repeats):
            if rec is not None:
                rec.iteration = -1
            t0 = time.perf_counter()
            with span("runner.run_truth"):
                truth = run_truth(cfg)
            truth_times.append(time.perf_counter() - t0)
        result["truth_s"] = min(truth_times)
        result["truth_checksum"] = float(truth.states[-1].sum())
        art = None
        if estimates:
            if rec is not None:
                rec.iteration = 0
            t0 = time.perf_counter()
            with span("runner.run_scheme"):
                art = run_scheme(cfg, truth)
            result["estimate_s"] = time.perf_counter() - t0
            if rec is not None:
                rec.iteration = -1
            t0 = time.perf_counter()
            with span("runner.export_artifacts"):
                written = export_artifacts(art, outdir)
            result["export_s"] = time.perf_counter() - t0
            if rec is not None:
                rec.counts["runner.export_bytes"] += sum(p.stat().st_size for p in written)
            result["iter_s"] = art.iter_seconds.tolist()
            result["initial_pct_mae"] = float(art.percent_mae[0])
            result["final_pct_mae"] = float(art.percent_mae[-1])
            result["mean_pct_mae"] = float(np.mean(art.percent_mae))
            result["model_changes"] = [list(map(int, c)) for c in art.model_changes]
            if cfg.shift_step is not None:
                after = [c[0] for c in art.model_changes if c[0] > cfg.shift_step]
                result["post_shift_reid_step"] = after[0] if after else None
        result["checks"] = _checks(truth, art)
    except PivotflowError as exc:
        result["error"] = f"{type(exc).__name__}: {exc}"
    return result


def run(workload: str, seed: int, seconds: float, trace: bool, outdir: Path) -> dict:
    _import_program()
    import numpy
    import scipy

    cfg = WORKLOADS[workload].build(seed)
    outdir.mkdir(parents=True, exist_ok=True)
    recorders = []
    started = time.perf_counter()
    episodes = []
    while True:
        begun = time.perf_counter()
        if trace:
            from tracing import SpanRecorder, instrument

            rec = SpanRecorder()
            with instrument(rec):
                episodes.append(_episode(workload, cfg, outdir / "artifacts", rec))
            recorders.append(rec)
        else:
            episodes.append(_episode(workload, cfg, outdir / "artifacts", None))
        now = time.perf_counter()
        if now - started + (now - begun) > seconds:
            break
    result = {
        "episodes": episodes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if trace:
        from tracing import layer_metrics, span_cost_ns, write_spans

        cost = span_cost_ns()
        result["span_cost_ns"] = cost
        result["layers"] = [layer_metrics(rec, cost) for rec in recorders]
        write_spans(recorders[-1], outdir / "spans.csv")
    return result


def main(argv: list[str]) -> None:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        out = setup(workload, seed)
    else:
        seconds, trace, outdir = float(argv[3]), argv[4] == "1", Path(argv[5])
        out = run(workload, seed, seconds, trace, outdir)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
