"""pivotflow benchmark: one workload per call, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload desk-shift --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports pivotflow from its `src/`.
Set-up is timed in SETUP_REPEATS fresh processes (cold import each time);
the workload then runs in one more fresh process, so its peak RSS is its own.
With `--trace 0` the result holds the end-to-end metrics, with `--trace 1`
the per-layer metrics of a traced run (see tracing.py). Every metric is
printed with its unit and sample count; the last line of stdout is the
JSON result. Results, artifacts and spans go to perfbench/out/.

Correctness: no estimation step may raise a PivotflowError (a raised one is
counted in `failed`), every estimate is finite, the final %MAE is below the
step-0 %MAE, the twin-only workload stays finite and unsaturated, and a
repeat with the same seed and code reproduces the model changes (steps and
r_m, exactly), final %MAE and the final truth state to REPEAT_RTOL.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (imports no pivotflow code)

SETUP_REPEATS = 7
REPEAT_RTOL = 1e-9
RUN_LIMIT_S = 170.0

# name -> unit; BENCHMARK.json lists the same names with their bounds.
END_TO_END = {
    "setup_s": "s",
    "estimate_s": "s",
    "run_s": "s",
    "iter_p50_ms": "ms",
    "iter_p75_ms": "ms",
    "peak_rss_mb": "MB",
    "final_pct_mae": "%",
    "mean_pct_mae": "%",
    "model_changes": "count",
}
# The twin-only workload (not in BENCHMARK.json) has no estimator metrics.
TWIN_ONLY = {"setup_s": "s", "truth_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "soil.conductivity_s": "s",
    "soil.capacity_s": "s",
    "soil.closure_calls": "count",
    "richards.step_calls": "count",
    "richards.states_stepped": "count",
    "richards.node_substeps": "count",
    "richards.step_s": "s",
    "richards.step_self_s": "s",
    "richards.sink_s": "s",
    "richards.ns_per_node_substep": "ns",
    "reduction.cluster_calls": "count",
    "reduction.cluster_nodes": "count",
    "reduction.cluster_s": "s",
    "reduction.r_m_mean": "count",
    "reduction.snapshot_calls": "count",
    "reduction.snapshot_states": "count",
    "reduction.snapshot_s": "s",
    "reduction.reduced_step_calls": "count",
    "reduction.reduced_step_self_s": "s",
    "ekf.error_metric_calls": "count",
    "ekf.error_metric_s": "s",
    "ekf.error_metric_share": "ratio",
    "ekf.predict_s": "s",
    "ekf.jacobian_columns": "count",
    "ekf.update_s": "s",
    "ekf.transfer_s": "s",
    "ekf.clamp_s": "s",
    "ekf.trigger_hit_ratio": "ratio",
    "scenario.inputs_calls": "count",
    "scenario.inputs_s": "s",
    "runner.export_s": "s",
    "runner.export_bytes": "B",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(args: list[str], env: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "episode.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args[:2])} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:2])} exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pivotflow").glob("*.py")) + [HERE / "workloads.py"]:
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REPEAT_RTOL * max(abs(a), abs(b))


def _fingerprint(ep: dict) -> dict:
    keys = ("model_changes", "final_pct_mae", "truth_checksum")
    return {k: ep[k] for k in keys if k in ep}


def _same(a: dict, b: dict) -> bool:
    if a.get("model_changes") != b.get("model_changes"):
        return False
    return all(_close(a[k], b[k]) for k in ("final_pct_mae", "truth_checksum") if k in a)


def _check_repeats(workload: str, seed: int, good: list[dict], outdir: Path) -> list[str]:
    """Same-seed repeats, within this run and against earlier runs of the same code."""
    problems = []
    prints = [_fingerprint(ep) for ep in good]
    if any(not _same(prints[0], p) for p in prints[1:]):
        problems.append("episodes of this run disagree")
    store = outdir / "fingerprints.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload}|{seed}|{_code_digest()}"
    if key in known and not _same(known[key], prints[0]):
        problems.append(f"differs from an earlier run with seed {seed}")
    known.setdefault(key, prints[0])
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return problems


def _end_to_end(workload: str, setups: list[float], good: list[dict], rss: float):
    """(metrics, sample counts) of the end-to-end metrics."""
    med = statistics.median
    m = {"setup_s": med(setups), "truth_s": med(ep["truth_s"] for ep in good)}
    n = {"setup_s": (len(setups), "set-ups"), "truth_s": (len(good), "episodes")}
    m["run_s"] = med(ep["truth_s"] + ep.get("estimate_s", 0.0) + ep.get("export_s", 0.0)
                     for ep in good)
    m["peak_rss_mb"] = rss
    n["run_s"] = (len(good), "episodes")
    n["peak_rss_mb"] = (1, "process")
    if WORKLOADS[workload].estimates:
        iters = [1e3 * t for ep in good for t in ep["iter_s"]]
        m["estimate_s"] = med(ep["estimate_s"] for ep in good)
        m["iter_p50_ms"] = med(iters)
        m["iter_p75_ms"] = _percentile(iters, 75)
        m["final_pct_mae"] = med(ep["final_pct_mae"] for ep in good)
        m["mean_pct_mae"] = med(ep["mean_pct_mae"] for ep in good)
        m["model_changes"] = med(len(ep["model_changes"]) for ep in good)
        for name in ("estimate_s", "final_pct_mae", "mean_pct_mae", "model_changes"):
            n[name] = (len(good), "episodes")
        beyond = sum(t > m["iter_p75_ms"] for t in iters)
        n["iter_p50_ms"] = (len(iters), "iterations")
        n["iter_p75_ms"] = (len(iters), f"iterations, {beyond} beyond it")
        if beyond < 10:
            print(f"warning: only {beyond} iterations lie beyond iter_p75_ms", file=sys.stderr)
    names = END_TO_END if WORKLOADS[workload].estimates else TWIN_ONLY
    return {k: m[k] for k in names}, n


def _per_layer(layers: list[dict]):
    m = {k: statistics.median(layer[k] for layer in layers) for k in PER_LAYER}
    return m, {k: (len(layers), "episodes") for k in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # Turn SIGTERM into an exception so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "pivotflow" / "__init__.py").is_file():
        print(f"error: no pivotflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    environment = {
        "nproc": nproc,
        "python": platform.python_version(),
        "blas_threads": nproc,
        "git_sha": _git_sha(),
        "loadavg": os.getloadavg(),
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir = HERE / "out"
    seed = str(args.seed)
    try:
        setups = [] if args.trace else [
            _child(["setup", args.workload, seed], env, 60.0)["setup_s"]
            for _ in range(SETUP_REPEATS)
        ]
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        res = _child(["run", args.workload, seed, str(args.seconds), str(args.trace),
                      str(outdir / tag)], env, remaining)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    environment.update(res["versions"])

    episodes = res["episodes"]
    good = [ep for ep in episodes if ep["error"] is None]
    problems = [f"episode {i}: {ep['error']}" for i, ep in enumerate(episodes) if ep["error"]]
    problems += [f"check failed: {name}" for ep in good for name, ok in ep["checks"].items()
                 if not ok]
    if good:
        problems += _check_repeats(args.workload, args.seed, good, outdir)
        if args.trace:
            metrics, counts = _per_layer(res["layers"])
        else:
            metrics, counts = _end_to_end(args.workload, setups, good, res["peak_rss_mb"])
    else:
        metrics, counts = {}, {}
    if args.trace:
        units = PER_LAYER
    else:
        units = END_TO_END if WORKLOADS[args.workload].estimates else TWIN_ONLY

    for key, value in environment.items():
        print(f"env {key} = {value}")
    for ep in good:
        if "post_shift_reid_step" in ep:
            print(f"post-shift re-identification at step {ep['post_shift_reid_step']}")
    for name, value in metrics.items():
        count, what = counts[name]
        print(f"{args.workload} {name} = {value:.6g} {units[name]}  (n={count} {what})")
    failed = len(episodes) - len(good)
    print(f"{args.workload} fail_frac = {failed / len(episodes):.6g}  "
          f"({failed} of {len(episodes)} episodes raised a PivotflowError)")
    for problem in problems:
        print(f"INCORRECT {problem}")

    result = {
        "correct": not problems,
        "attempted": len(episodes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (outdir / f"{tag}.json").write_text(json.dumps(
        {**result, "environment": environment, "samples": counts, "episodes": episodes},
        indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
