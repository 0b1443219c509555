"""The README's library entry points stay importable from the package root."""

from pathlib import Path

import pytest

import pivotflow

README = Path(__file__).resolve().parent.parent / "README.md"

ENTRY_POINTS = (
    "load_config",
    "run_truth",
    "run_scheme",
    "export_artifacts",
    "FullModel",
    "generate_snapshots",
    "rollout",
    "cluster_trajectories",
    "reduce_state",
    "lift_state",
    "ReducedModel",
    "ekf_predict",
    "ekf_update",
    "transfer_model",
    "compute_error_metric",
    "run_adaptive_estimation",
)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_imports_from_package_root(name):
    assert callable(getattr(pivotflow, name, None))


def test_readme_documents_every_entry_point():
    text = README.read_text()
    section = text.split("## Library entry points", 1)[1].split("\n## ", 1)[0]
    assert [name for name in ENTRY_POINTS if name not in section] == []
