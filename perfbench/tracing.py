"""Span recorder that times pivotflow's layers from outside the program.

`instrument(recorder)` wraps public functions of each layer where they are
called: names that `richards.py` and `ekf.py` import are patched in the
importing module, methods are patched on their class. Every call records a
span (name, start, end, parent, iteration); spans stay in memory until
`write_spans` writes them out. `layer_metrics` derives the per-layer
metrics, self times included, from the spans and the recorded counts.
"""

from __future__ import annotations

import csv
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

import pivotflow.ekf as ekf
import pivotflow.richards as richards
import pivotflow.runner as runner
from pivotflow.ekf import TriggerState
from pivotflow.reduction import ReducedModel
from pivotflow.richards import FullModel
from pivotflow.scenario import ScenarioConfig


class SpanRecorder:
    """In-memory spans and counters; `iteration` is the id spans share."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.iterations: list[int] = []
        self.counts: Counter = Counter()
        self.iteration = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.iterations.append(self.iteration)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count=None):
        """Wrap `fn` so each call is a span; `count(args, result)` returns counter increments."""
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.counts.update(count(args, result))
            return result
        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> np.ndarray:
        """Span duration minus the time its direct children cover, in ns."""
        dur = np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        return dur - child


def _rows(x) -> int:
    return 1 if np.ndim(x) == 1 else int(np.shape(x)[0])


def _full_step_counts(args, _result):
    model, x = args[0], args[1]
    rows = _rows(x)
    return {"richards.states_stepped": rows,
            "richards.node_substeps": rows * model.n_states * model.substeps}


@contextmanager
def instrument(recorder: SpanRecorder):
    """Patch the layer entry points for the duration of the block."""
    rec = recorder

    def next_iteration(fn):
        # TriggerState.record closes an estimator iteration.
        def marked(*args, **kwargs):
            result = fn(*args, **kwargs)
            rec.iteration += 1
            return result
        return marked

    def truth_step(fn):
        # runner.observe opens a truth-twin step.
        def marked(*args, **kwargs):
            rec.iteration += 1
            return fn(*args, **kwargs)
        return marked

    patches = [
        (richards, "hydraulic_conductivity", lambda f: rec.wrap("soil.conductivity", f)),
        (richards, "capillary_capacity", lambda f: rec.wrap("soil.capacity", f)),
        (richards, "sink_term", lambda f: rec.wrap("richards.sink", f)),
        (FullModel, "step", lambda f: rec.wrap("richards.step", f, _full_step_counts)),
        (ReducedModel, "step", lambda f: rec.wrap("reduction.reduced_step", f)),
        (ekf, "generate_snapshots", lambda f: rec.wrap(
            "reduction.snapshot", f,
            lambda a, r: {"reduction.snapshot_states": r.data.shape[0] - 1})),
        (ekf, "cluster_trajectories", lambda f: rec.wrap(
            "reduction.cluster", f,
            lambda a, r: {"reduction.cluster_nodes": a[0].n_nodes,
                          "reduction.cluster_r_m": r.n_clusters})),
        (ekf, "compute_error_metric", lambda f: rec.wrap("ekf.error_metric", f)),
        (ekf, "ekf_predict", lambda f: rec.wrap(
            "ekf.predict", f, lambda a, r: {"ekf.jacobian_columns": a[0].order})),
        (ekf, "ekf_update", lambda f: rec.wrap("ekf.update", f)),
        (ekf, "transfer_model", lambda f: rec.wrap("ekf.transfer", f)),
        (ekf, "clamp_estimate", lambda f: rec.wrap("ekf.clamp", f)),
        (ScenarioConfig, "estimator_inputs_window", lambda f: rec.wrap("scenario.inputs", f)),
        (TriggerState, "record", next_iteration),
        (runner, "observe", truth_step),
    ]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for (owner, name, make), (_, _, fn) in zip(patches, originals):
            setattr(owner, name, make(fn))
        yield rec
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)


def span_cost_ns(repeats: int = 5, calls: int = 100_000) -> float:
    """Median cost the recorder adds to one call, measured on a no-op function."""
    def noop():
        return None

    costs = []
    for _ in range(repeats):
        rec = SpanRecorder()
        traced = rec.wrap("noop", noop)
        t0 = perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = perf_counter_ns()
        for _ in range(calls):
            traced()
        t2 = perf_counter_ns()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return float(np.median(costs))


def layer_metrics(rec: SpanRecorder, cost_ns: float) -> dict[str, float]:
    """Per-layer metrics of one episode (seconds, counts and ratios)."""
    names = np.asarray(rec.names)
    dur = np.asarray(rec.ends, dtype=np.int64) - np.asarray(rec.starts, dtype=np.int64)
    self_ns = rec.self_times()

    def total(name, values=dur):
        return float(values[names == name].sum()) * 1e-9

    def calls(name):
        return int((names == name).sum())

    c = rec.counts
    estimate_s = total("runner.run_scheme")
    step_s = total("richards.step")
    error_metric_s = total("ekf.error_metric")
    cluster_calls = calls("reduction.cluster")
    error_metric_calls = calls("ekf.error_metric")
    # The recorder's own cost over the spans nested in run_scheme is what
    # tracing adds to estimate_s.
    starts = np.asarray(rec.starts, dtype=np.int64)
    in_estimate = sum(
        int(np.count_nonzero((starts > rec.starts[i]) & (starts < rec.ends[i])))
        for i in np.flatnonzero(names == "runner.run_scheme")
    )
    added_s = in_estimate * cost_ns * 1e-9
    return {
        "soil.conductivity_s": total("soil.conductivity"),
        "soil.capacity_s": total("soil.capacity"),
        "soil.closure_calls": calls("soil.conductivity") + calls("soil.capacity"),
        "richards.step_calls": calls("richards.step"),
        "richards.states_stepped": c["richards.states_stepped"],
        "richards.node_substeps": c["richards.node_substeps"],
        "richards.step_s": step_s,
        "richards.step_self_s": total("richards.step", self_ns),
        "richards.sink_s": total("richards.sink"),
        "richards.ns_per_node_substep": step_s * 1e9 / max(c["richards.node_substeps"], 1),
        "reduction.cluster_calls": cluster_calls,
        "reduction.cluster_nodes": c["reduction.cluster_nodes"],
        "reduction.cluster_s": total("reduction.cluster"),
        "reduction.r_m_mean": c["reduction.cluster_r_m"] / max(cluster_calls, 1),
        "reduction.snapshot_calls": calls("reduction.snapshot"),
        "reduction.snapshot_states": c["reduction.snapshot_states"],
        "reduction.snapshot_s": total("reduction.snapshot"),
        "reduction.reduced_step_calls": calls("reduction.reduced_step"),
        "reduction.reduced_step_self_s": total("reduction.reduced_step", self_ns),
        "ekf.error_metric_calls": error_metric_calls,
        "ekf.error_metric_s": error_metric_s,
        "ekf.error_metric_share": error_metric_s / estimate_s if estimate_s else 0.0,
        "ekf.predict_s": total("ekf.predict"),
        "ekf.jacobian_columns": c["ekf.jacobian_columns"],
        "ekf.update_s": total("ekf.update"),
        "ekf.transfer_s": total("ekf.transfer"),
        "ekf.clamp_s": total("ekf.clamp"),
        "ekf.trigger_hit_ratio": cluster_calls / error_metric_calls if error_metric_calls else 0.0,
        "scenario.inputs_calls": calls("scenario.inputs"),
        "scenario.inputs_s": total("scenario.inputs"),
        "runner.export_s": total("runner.export_artifacts"),
        "runner.export_bytes": c["runner.export_bytes"],
        "trace.overhead_frac": added_s / (estimate_s - added_s) if estimate_s else 0.0,
    }


def write_spans(rec: SpanRecorder, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("id", "name", "start_ns", "end_ns", "parent", "iteration"))
        writer.writerows(zip(range(len(rec.names)), rec.names, rec.starts, rec.ends,
                             rec.parents, rec.iterations))
