"""Command-line interface tests."""

import json
import re
from pathlib import Path

import pytest
import yaml

from pivotflow.cli import main

TINY = {
    "grid": {"n_r": 3, "n_theta": 4, "n_z": 3, "radius": 1.5, "depth": 0.3},
    "soil": {"zones": [{"alpha": 3.6, "n_vg": 1.56, "theta_r": 0.078, "theta_s": 0.43, "k_s": 2.9e-6}]},
    "initial_truth": [-9.0],
    "initial_guess": [-8.0],
    "sensors": [1, 13, 25],
    "steps": 4,
    "n_fd": 2,
    "th_e": 5.0,
    "th_c": 0.5,
    "seed": 3,
    "substeps": 4,
    "forcing": {"rain": 1e-8, "et": 0.0, "k_c": 0.0},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(TINY))
    return path


def test_validate_ok(config_path, capsys):
    assert main(["validate", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "scheme=performance" in out


def test_validate_bad_config_names_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(dict(TINY, th_e=-2.0)))
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "ValidationError" in err and "th_e" in err


DESK = Path(__file__).resolve().parent.parent / "configs" / "desk.yaml"


@pytest.mark.parametrize("key, edit", [
    ("th_e", lambda d: d.update(th_e="abc")),
    ("steps", lambda d: d.update(steps=[1])),
    ("grid.n_r", lambda d: d["grid"].update(n_r="x")),
    ("sensors", lambda d: d["sensors"].__setitem__(3, 7.5)),
    ("seed", lambda d: d.update(seed=-1)),
])
def test_validate_bad_value_prints_one_line_naming_the_key(tmp_path, capsys, key, edit):
    data = yaml.safe_load(DESK.read_text())
    edit(data)
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(data))
    assert main(["validate", str(bad)]) == 1  # an escaping exception would fail here
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    # a bad cast reads "<key>: <reason>", a range check from validate() "<key> must ..."
    assert re.match(rf"ValidationError: {re.escape(key)}(: | must )", captured.err)


def test_missing_file_is_parse_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.yaml")]) == 1
    assert "ParseError" in capsys.readouterr().err


def test_run_writes_artifacts(config_path, tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(["run", str(config_path), "--outdir", str(outdir), "--scheme", "static"]) == 0
    assert (outdir / "metrics.csv").exists()
    assert (outdir / "model_changes.csv").exists()
    assert (outdir / "timings.csv").exists()
    assert (outdir / "state_snapshot_0.csv").exists()
    assert "scheme=static" in capsys.readouterr().out


def test_run_seed_and_stride_overrides(config_path, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["run", str(config_path), "--outdir", str(out1), "--seed", "42", "--stride", "2"]) == 0
    assert main(["run", str(config_path), "--outdir", str(out2), "--seed", "42", "--stride", "2"]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_compare_runs_all_schemes(config_path, tmp_path):
    outdir = tmp_path / "cmp"
    assert main(["compare", str(config_path), "--outdir", str(outdir)]) == 0
    for scheme in ("performance", "static", "time-triggered"):
        assert (outdir / scheme / "metrics.csv").exists()
    header = (outdir / "comparison.csv").read_text().splitlines()[0]
    assert "percent_mae_performance" in header
    assert "percent_mae_time_triggered" in header


def test_compare_byte_identical_reruns(config_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for outdir in (a, b):
        assert main(["compare", str(config_path), "--outdir", str(outdir)]) == 0
    for scheme in ("performance", "static", "time-triggered"):
        assert (a / scheme / "metrics.csv").read_bytes() == (b / scheme / "metrics.csv").read_bytes()
    assert (a / "comparison.csv").read_bytes() == (b / "comparison.csv").read_bytes()


def test_json_config_accepted(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    assert main(["validate", str(path)]) == 0
