"""Scenario schema, validation, and schedule tests."""

import re
from dataclasses import replace

import numpy as np
import pytest
import yaml

from pivotflow import ParseError, ValidationError, load_config
from pivotflow.scenario import _KEYS, config_from_dict, default_sensor_layers, sensor_lattice
from pivotflow.grid import CylindricalGrid
from pivotflow.runner import run_scheme, run_truth

MINIMAL = {
    "grid": {"n_r": 4, "n_theta": 4, "n_z": 3, "radius": 2.0, "depth": 0.3},
    "soil": {"zones": [{"alpha": 3.6, "n_vg": 1.56, "theta_r": 0.078, "theta_s": 0.43, "k_s": 2.9e-6}]},
    "initial_truth": [-12.0],
    "initial_guess": [-9.0],
    "sensors": [0, 5, 17],
    "steps": 10,
}
MINIMAL_ZONES = config_from_dict(MINIMAL).soil_zones


def test_minimal_config_gets_defaults():
    cfg = config_from_dict(MINIMAL)
    assert cfg.scheme == "performance"
    assert cfg.delta_s == 1800.0
    assert cfg.slope_limit == 0.05
    assert cfg.th_e == 40.0
    assert cfg.th_c == 1.0
    assert cfg.process_noise_var == 1e-7
    assert cfg.measurement_noise_var == 0.8
    assert cfg.ekf.r_diag == 0.08
    assert cfg.ekf.q_diag == 1.0
    assert cfg.ekf.p0_diag == 1.0
    assert cfg.ekf.p0_offdiag == 5e-5
    assert cfg.stride == 1
    assert cfg.period == cfg.n_fd


def test_negative_threshold_names_key():
    bad = dict(MINIMAL, th_c=-1.0)
    with pytest.raises(ValidationError, match="th_c"):
        config_from_dict(bad)


def test_unknown_key_rejected():
    bad = dict(MINIMAL, thc=1.0)
    with pytest.raises(ValidationError, match="thc"):
        config_from_dict(bad)


def test_sensor_bounds_checked():
    bad = dict(MINIMAL, sensors=[0, 999])
    with pytest.raises(ValidationError, match="sensors"):
        config_from_dict(bad)
    bad = dict(MINIMAL, sensors=[])
    with pytest.raises(ValidationError, match="sensors"):
        config_from_dict(bad)
    bad = dict(MINIMAL, sensors=[1, 1])
    with pytest.raises(ValidationError, match="sensors"):
        config_from_dict(bad)


@pytest.mark.parametrize("key, change", [
    ("sensors", {"sensors": (0, 1.5, 17)}), ("sensors", {"sensors": (0, np.nan, 17)}),
    ("snapshot_steps", {"snapshot_steps": (0.5,)}),
    ("trigger_period", {"trigger_period": 2.5}), ("stride", {"stride": 1.5}),
    ("truth_shift.step", {"shift_step": 4.5, "shift_zones": MINIMAL_ZONES}),
    ("n_fd", {"n_fd": 2.5}), ("steps", {"steps": 6.5}), ("substeps", {"substeps": 2.5}), ("seed", {"seed": 1.5}),
    ("irrigation.start_sector", {"irrigation_start_sector": 1.5}), ("n_fd", {"n_fd": np.nan}),
    ("seed", {"seed": "1"}), ("steps", {"steps": (12, 13)}), ("seed", {"seed": [1]}),
    ("sensors", {"sensors": ((1, 2), (5, 7))}), ("snapshot_steps", {"snapshot_steps": ((0,),)}),
    ("sensors", {"sensors": ((1, 2), (5,))}), ("snapshot_steps", {"snapshot_steps": ((0,), (1, 2))}),
], ids=["fractional-sensor", "nan-sensor", "fractional-snapshot", "fractional-trigger-period", "fractional-stride",
        "fractional-shift-step", "fractional-n-fd", "fractional-steps", "fractional-substeps", "fractional-seed",
        "fractional-start-sector", "nan-n-fd", "string-seed", "sequence-steps", "sequence-seed", "nested-sensors",
        "nested-snapshot", "ragged-sensors", "ragged-snapshot"])
def test_validate_rejects_a_fractional_index_naming_the_key(key, change):
    # A config built in code skips the loader's integer cast: validate once
    # truncated 1.5 to sensor node 1, raised a bare ValueError on NaN, and
    # let snapshot step 0.5 through, which was then never written. A
    # fractional trigger period, stride or shift step ran on a period or a
    # step of its own; n_fd, steps, substeps and seed raised a bare TypeError
    # once run, and the start sector a bare IndexError. A sequence passed the
    # integer test and raised a bare TypeError in validate itself. Nested
    # sensors passed validate and raised a bare ValueError once run, and
    # nested snapshot steps a bare TypeError in validate. Ragged ones raised
    # numpy's bare ValueError in validate.
    cfg = config_from_dict(MINIMAL)
    with pytest.raises(ValidationError, match=f"^{re.escape(key)} must be (an )?integer"):
        replace(cfg, **change).validate()


# MINIMAL with every optional section, so that every leaf key's field holds a value
FULL = config_from_dict(dict(MINIMAL, roots={"root_depth": 0.2},
                             truth_shift={"step": 5, "zones": MINIMAL["soil"]["zones"]}))
# leaf keys whose None means an absent section or a disabled feature
NONE_MEANS_ABSENT = {"estimate_ceiling", "truth_shift.step"}


def _numeric_leaves():
    """(key, section field or None, field, value) of every leaf key whose field holds a number or a list of them."""
    for key, (target, *_) in _KEYS.items():
        section = key.rpartition(".")[0]
        if any(k.startswith(key + ".") for k in _KEYS):
            continue  # a section
        owner = _KEYS[section][0] if section and _KEYS[section][1] is not None else None
        value = getattr(getattr(FULL, owner) if owner else FULL, target)
        if np.asarray(value).dtype.kind in "iuf":
            yield key, owner, target, value


@pytest.mark.parametrize("key, owner, name, bad", [
    pytest.param(key, owner, name, bad, id=f"{key}-{bad}")
    for key, owner, name, value in _numeric_leaves()
    for bad in ("x", True, None, [value]) if (bad is not None or key not in NONE_MEANS_ABSENT)
    and (not isinstance(bad, list) or np.ndim(value) == 0)
])
def test_every_numeric_key_refuses_a_non_number_naming_the_key(key, owner, name, bad):
    # A config built in code skips the loader's casts. A string or None in a
    # number's place raised a bare TypeError from a range comparison (from
    # FullModel for storativity), or from a section's constructor, and True
    # passed as 1. A one-element list in a scalar's place raised a bare
    # TypeError too, or built a grid whose radius was an array. Walks _KEYS,
    # so a key added later is covered too.
    with pytest.raises(ValidationError, match=rf"^{re.escape(key)} " if owner is None else rf"\b{name}\b"):
        if owner is None:
            replace(FULL, **{name: bad}).validate()
        else:
            replace(FULL, **{owner: replace(getattr(FULL, owner), **{name: bad})}).validate()


def test_validate_stores_integral_floats_as_int_and_runs():
    # integral floats such as 4.0 once passed validate and raised a bare TypeError once run
    counts = dict(steps=4.0, n_fd=2.0, trigger_period=2.0, stride=1.0, seed=3.0, substeps=4.0,
                  irrigation_start_sector=1.0, shift_step=2.0, shift_zones=MINIMAL_ZONES)
    cfg = replace(config_from_dict(MINIMAL), **counts, sensors=(0.0, 5.0, 17.0), snapshot_steps=(0.0, 3.0)).validate()
    assert all(type(getattr(cfg, name)) is int for name in counts if name != "shift_zones")
    want = replace(config_from_dict(MINIMAL), **{k: v if k == "shift_zones" else int(v) for k, v in counts.items()},
                   sensors=(0, 5, 17), snapshot_steps=(0, 3)).validate()
    got = run_scheme(cfg, run_truth(cfg))
    assert np.array_equal(got.percent_mae, run_scheme(want, run_truth(want)).percent_mae)


@pytest.mark.parametrize("key, heads, message", [
    ("initial_truth", ((-5.0, -6.0),), "must be finite heads"),
    ("initial_guess", ((-5.0, -6.0),), "must be finite heads"),
    ("initial_truth", ((-5.0,), (-6.0, -7.0)), "must be finite heads"),
    ("initial_truth", -5.0, "must have length 1 or 4"),
    ("initial_guess", -5.0, "must have length 1 or 4"),
], ids=["initial_truth", "initial_guess", "ragged-initial_truth", "scalar-initial_truth", "scalar-initial_guess"])
def test_validate_rejects_nested_heads_naming_the_key(key, heads, message):
    # in a config built in code, nested initial heads passed validate; once
    # run, initial_truth raised a bare ValueError and initial_guess failed as
    # "step 0: offsets must be integral...". Ragged heads raised numpy's bare
    # ValueError in validate, and a scalar a bare TypeError from len.
    with pytest.raises(ValidationError, match=f"^{key} {message}"):
        replace(config_from_dict(MINIMAL), **{key: heads}).validate()


ZONE = MINIMAL["soil"]["zones"][0]


@pytest.mark.parametrize("key, change", [
    ("th_e", {"th_e": "abc"}),
    ("th_e", {"th_e": None}),
    ("steps", {"steps": [1]}),
    ("steps", {"steps": 2.5}),
    ("grid.n_r", {"grid": dict(MINIMAL["grid"], n_r="x")}),
    ("sensors", {"sensors": [0, 2.5]}),
    ("sensors", {"sensors": [0, "a"]}),
    ("initial_guess", {"initial_guess": ["abc"]}),
    ("forcing.et", {"forcing": {"et": "abc"}}),
    ("ekf.r_diag", {"ekf": {"r_diag": "abc"}}),
    ("soil.zones", {"soil": {"zones": []}}),
    ("soil.zones", {"soil": {"zones": [dict(ZONE, alpha="x")]}}),
    ("soil.zones", {"soil": {"zones": [dict(ZONE, alpha=-1.0)]}}),
    ("soil.zones", {"soil": {"zones": [dict(ZONE, beta=1.0)]}}),
    ("truth_shift.step", {"truth_shift": {"step": "x", "zones": [ZONE]}}),
    ("soil.zones", {"soil": {"zones": [dict(ZONE, alpha=np.inf)]}}),
    ("soil.zones", {"soil": {"zones": [dict(ZONE, n_vg=np.inf)]}}),
    ("soil.zones", {"soil": {"zones": [dict(ZONE, k_s=np.inf)]}}),
])
def test_bad_value_raises_validation_error_naming_the_key(key, change):
    with pytest.raises(ValidationError, match=f"^{re.escape(key)}: "):
        config_from_dict(dict(MINIMAL, **change))


@pytest.mark.parametrize("key, value", [
    ("estimate_ceiling", np.nan),
    ("estimate_ceiling", -np.inf),
    ("delta_s", np.inf),
    ("storativity", np.nan),
    ("storativity", np.inf),
    ("storativity", 0.0),
    ("storativity", -1.0),
    ("noise.process_var", np.nan),
    ("noise.process_var", np.inf),
    ("noise.measurement_var", np.nan),
    ("ekf.q_diag", np.nan),
    ("ekf.q_offdiag", np.nan),
    ("ekf.r_diag", np.inf),
    ("ekf.p0_diag", np.inf),
    ("ekf.p0_offdiag", np.nan),
    ("seed", -1),
    ("initial_truth", np.nan),
    ("initial_truth", [-12.0, -np.inf, -11.0, -10.0]),
    ("initial_guess", np.inf),
    ("initial_guess", [-9.0, -9.0, np.nan, -9.0]),
    # finite, but beyond the steppers' divergence bound |h| <= MAX_HEAD
    ("initial_truth", -2e6),
    ("initial_truth", [-12.0, 5e6, -11.0, -10.0]),
    ("initial_truth", 1e300),
    ("initial_guess", 1e300),
])
def test_non_finite_or_out_of_range_value_names_the_key(key, value):
    # each check reads "not <valid range>", so NaN fails it as well as values outside the range
    section, _, name = key.rpartition(".")
    change = {section: {name: value}} if section else {name: value}
    with pytest.raises(ValidationError, match=re.escape(name)):
        config_from_dict(dict(MINIMAL, **change))


def test_sections_follow_the_key_table():
    with pytest.raises(ValidationError, match="^unknown key\\(s\\) in noise: proces_var$"):
        config_from_dict(dict(MINIMAL, noise={"proces_var": 1.0}))
    with pytest.raises(ValidationError, match="^noise must be a mapping$"):
        config_from_dict(dict(MINIMAL, noise=1.0))
    with pytest.raises(ValidationError, match="^missing required key: grid$"):
        config_from_dict(dict(MINIMAL, grid=None))
    with pytest.raises(ValidationError, match="^missing required key: grid.depth$"):
        config_from_dict(dict(MINIMAL, grid={k: v for k, v in MINIMAL["grid"].items() if k != "depth"}))
    with pytest.raises(ValidationError, match="^missing required key: roots.root_depth$"):
        config_from_dict(dict(MINIMAL, roots={"h_wilting": -16.0}))
    # a null section counts as absent; a null estimate_ceiling disables the cap
    cfg = config_from_dict(dict(MINIMAL, roots=None, truth_shift=None, estimate_ceiling=None))
    assert cfg.roots is None and cfg.shift_step is None and cfg.estimate_ceiling is None
    cfg = config_from_dict(dict(MINIMAL, roots={"root_depth": 0.2}, ekf={"r_diag": 0.5}, steps=4.0))
    assert cfg.roots.root_depth == 0.2 and cfg.roots.h_wilting == -150.0
    assert cfg.ekf.r_diag == 0.5 and cfg.ekf.q_diag == 1.0
    assert cfg.steps == 4 and isinstance(cfg.steps, int)


README = __import__("pathlib").Path(__file__).resolve().parent.parent / "README.md"


def test_readme_schema_lists_every_loader_key():
    section = README.read_text().split("## Scenario schema", 1)[1].split("\n## ", 1)[0]
    schema = yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])
    sections = {name: value for name, value in schema.items() if isinstance(value, dict)}
    documented = set(schema) | {f"{name}.{key}" for name, value in sections.items() for key in value}
    assert documented == set(_KEYS)


def test_scheme_and_shift_validation():
    with pytest.raises(ValidationError, match="scheme"):
        config_from_dict(dict(MINIMAL, scheme="adaptive"))
    with pytest.raises(ValidationError, match="truth_shift"):
        config_from_dict(dict(MINIMAL, truth_shift={"step": 5}))


def test_quadrant_fields_expand():
    cfg = config_from_dict(dict(
        MINIMAL,
        initial_truth=[-1.0, -2.0, -3.0, -4.0],
        initial_guess=[-1.5, -2.5, -3.5, -4.5],
    ))
    x0 = cfg.truth_state0()
    quad = cfg.grid.quadrant_of_node()
    for q, expected in enumerate([-1.0, -2.0, -3.0, -4.0]):
        assert np.all(x0[quad == q] == expected)
    assert cfg.guess_state0().min() == -4.5


def test_forcing_series_hold_last_value():
    cfg = config_from_dict(dict(MINIMAL, forcing={"et": [1e-8, 2e-8], "k_c": 0.5, "rain": [0.0, 1e-8, 3e-8]}))
    assert cfg.truth_inputs(0)[1].et == 1e-8
    assert cfg.truth_inputs(1)[1].et == 2e-8
    assert cfg.truth_inputs(99)[1].et == 2e-8
    assert cfg.truth_inputs(5)[1].rain == 3e-8
    assert cfg.truth_inputs(5)[1].k_c == 0.5
    assert cfg.estimator_inputs(5)[1] == cfg.truth_inputs(5)[1]


def test_pivot_sector_rotates():
    cfg = config_from_dict(dict(MINIMAL, irrigation={"rate": 1e-7, "start_sector": 2}))
    n_t = cfg.grid.n_theta
    assert cfg.truth_inputs(0)[0].active_sector == 2
    assert cfg.truth_inputs(1)[0].active_sector == 3
    assert cfg.truth_inputs(n_t)[0].active_sector == 2
    assert np.all(cfg.truth_inputs(0)[0].u == 1e-7)


def test_forecast_error_only_affects_estimator():
    cfg = config_from_dict(dict(
        MINIMAL,
        irrigation={"rate": 1e-7},
        forcing={"rain": 2e-8, "et": 0.0, "k_c": 0.0},
        forecast={"irrigation_error": 5e-8, "rain_error": -2e-8},
    ))
    truth_surface, truth_forcing = cfg.truth_inputs(0)
    est_surface, est_forcing = cfg.estimator_inputs(0)
    assert truth_surface.u[0] == 1e-7
    assert est_surface.u[0] == pytest.approx(1.5e-7)
    assert truth_forcing.rain == 2e-8
    assert est_forcing.rain == 0.0  # clipped at zero


def test_negative_rates_rejected():
    with pytest.raises(ValidationError, match="irrigation.rate"):
        config_from_dict(dict(MINIMAL, irrigation={"rate": -1.0}))
    with pytest.raises(ValidationError, match="rain"):
        config_from_dict(dict(MINIMAL, forcing={"rain": -1e-9}))
    # NaN and infinity fail like a negative rate, in each series
    for section, key in (("irrigation", "rate"), ("forcing", "et"), ("forcing", "k_c"), ("forcing", "rain")):
        for bad in (-1e-8, np.nan, np.inf):
            with pytest.raises(ValidationError, match=f"{section}.{key} must be"):
                config_from_dict(dict(MINIMAL, **{section: {key: [0.0, bad]}}))
    # forecast errors may be negative but not non-finite
    config_from_dict(dict(MINIMAL, forecast={"irrigation_error": -1e-8, "rain_error": -1e-8}))
    for key in ("irrigation_error", "rain_error"):
        for bad in (np.nan, np.inf, []):
            with pytest.raises(ValidationError, match=f"forecast.{key} must be"):
                config_from_dict(dict(MINIMAL, forecast={key: bad}))
    # a config built in code is checked by validate(), not only at load
    cfg = config_from_dict(MINIMAL)
    for name, key in (("et", "forcing.et"), ("irrigation_rate", "irrigation.rate")):
        with pytest.raises(ValidationError, match=f"{key} must be nonnegative"):
            replace(cfg, **{name: np.array([-1e-8])}).validate()


def test_load_config_yaml_and_json(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(MINIMAL))
    cfg = load_config(path)
    assert cfg.steps == 10
    import json

    jpath = tmp_path / "scenario.json"
    jpath.write_text(json.dumps(MINIMAL))
    assert load_config(jpath).steps == 10


def test_load_config_errors(tmp_path):
    with pytest.raises(ParseError):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("{unclosed: [")
    with pytest.raises(ParseError):
        load_config(bad)


CONFIGS = __import__("pathlib").Path(__file__).resolve().parent.parent / "configs"


def test_paper_scale_config_loads():
    cfg = load_config(CONFIGS / "paper.yaml")
    assert cfg.n_x == 20400
    assert cfg.n_y == 90
    assert cfg.delta_s == 1800.0
    assert cfg.n_fd == 250
    assert cfg.steps == 1440  # 30 days at 30-minute sampling
    assert cfg.th_e == 40.0
    assert cfg.th_c == 1.0
    assert cfg.slope_limit == 0.05
    assert tuple(cfg.initial_truth) == (-13.5, -14.0, -12.7, -11.5)
    assert tuple(cfg.initial_guess) == (-10.0, -12.0, -9.0, -14.0)


def test_desk_configs_load():
    for name in ("desk.yaml", "desk_shift.yaml"):
        cfg = load_config(CONFIGS / name)
        assert cfg.grid.n_nodes == 720
        assert cfg.n_fd >= 1


def test_desk_shift_config_matches_readme():
    cfg = load_config(CONFIGS / "desk_shift.yaml")
    desk = load_config(CONFIGS / "desk.yaml")
    assert cfg.steps == 480  # 10 days at 30-minute sampling
    assert cfg.shift_step == 240
    assert cfg.n_fd == 32
    assert cfg.th_e == 1.2
    assert cfg.th_c == 0.3
    assert cfg.slope_limit == 0.02
    assert tuple(cfg.snapshot_steps) == (0, 479)
    # same field as desk.yaml; after the shift each quadrant takes the soil
    # of the opposite quadrant
    assert cfg.grid == desk.grid
    assert cfg.soil_zones == desk.soil_zones
    assert tuple(cfg.sensors) == tuple(desk.sensors)
    z = desk.soil_zones
    assert cfg.shift_zones == (z[2], z[3], z[0], z[1])


def test_sensor_lattice_counts():
    grid = CylindricalGrid(25, 68, 12, radius=290.0, depth=0.4)
    layers = default_sensor_layers(grid, 0.3)
    assert len(set(layers)) == 3
    assert layers[-1] == grid.n_z - 1
    sensors = sensor_lattice(grid, 5, 6, layers)
    assert len(sensors) == 90
    assert len(set(sensors)) == 90
