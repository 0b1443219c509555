"""Scenario configuration: schema, validation, and input schedules.

Scenarios are YAML or JSON mappings whose keys mirror the
``ScenarioConfig`` fields (see README for the documented schema).
Forcing entries accept a scalar (constant) or a per-step list; indexing
past the end of a list holds its last value, so prediction windows near
the end of a run stay defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from .ekf import SCHEMES, NoiseConfig
from .errors import ParseError, ValidationError
from .grid import CylindricalGrid
from .richards import (
    FullModel,
    RootUptake,
    StepForcing,
    SurfaceInput,
)
from .soil import VanGenuchtenParams


def _series(value) -> np.ndarray:
    return np.atleast_1d(np.asarray(value, dtype=float))


def _at(series: np.ndarray, k: int) -> float:
    return float(series[min(k, series.size - 1)])


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one twin-experiment run."""

    grid: CylindricalGrid
    soil_zones: tuple
    initial_truth: tuple
    initial_guess: tuple
    sensors: tuple
    steps: int
    delta_s: float = 1800.0
    n_fd: int = 24
    th_e: float = 40.0
    th_c: float = 1.0
    slope_limit: float = 0.05
    scheme: str = "performance"
    trigger_period: int = 0  # 0 -> defaults to n_fd
    stride: int = 1
    seed: int = 0
    substeps: int = 12
    storativity: float = 1e-4
    bottom_bc: str = "free_drainage"
    estimate_ceiling: float | None = -0.01
    roots: RootUptake | None = None
    process_noise_var: float = 1e-7
    measurement_noise_var: float = 0.8
    ekf: NoiseConfig = field(default_factory=NoiseConfig)
    irrigation_rate: np.ndarray = field(default_factory=lambda: np.zeros(1))
    irrigation_start_sector: int = 0
    et: np.ndarray = field(default_factory=lambda: np.zeros(1))
    k_c: np.ndarray = field(default_factory=lambda: np.zeros(1))
    rain: np.ndarray = field(default_factory=lambda: np.zeros(1))
    forecast_irrigation_error: np.ndarray = field(default_factory=lambda: np.zeros(1))
    forecast_rain_error: np.ndarray = field(default_factory=lambda: np.zeros(1))
    shift_step: int | None = None
    shift_zones: tuple | None = None
    snapshot_steps: tuple = (0,)

    # -- validation ---------------------------------------------------------

    def validate(self) -> "ScenarioConfig":
        if self.steps < 1:
            raise ValidationError("steps must be >= 1")
        if not 0 < self.delta_s < np.inf:
            raise ValidationError("delta_s must be finite and > 0")
        if self.n_fd < 1:
            raise ValidationError("n_fd must be >= 1")
        for name in ("th_e", "th_c", "slope_limit"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be > 0")
        if self.scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {SCHEMES}")
        if self.trigger_period < 0:
            raise ValidationError("trigger_period must be >= 0")
        if self.stride < 1:
            raise ValidationError("stride must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.estimate_ceiling is not None and not -np.inf < self.estimate_ceiling <= 0:
            raise ValidationError("estimate_ceiling must be finite and <= 0 (or null to disable)")
        for kind in ("process", "measurement"):
            if not 0 <= getattr(self, f"{kind}_noise_var") < np.inf:
                raise ValidationError(f"noise.{kind}_var must be finite and >= 0")
        if len(self.soil_zones) not in (1, 4):
            raise ValidationError("soil.zones must hold 1 (uniform) or 4 (per-quadrant) entries")
        for vals, name in ((self.initial_truth, "initial_truth"), (self.initial_guess, "initial_guess")):
            if len(vals) not in (1, 4):
                raise ValidationError(f"{name} must have length 1 or 4 (per quadrant)")
            if not np.all(np.isfinite(vals)):
                raise ValidationError(f"{name} must be finite")
        sensors = np.asarray(self.sensors, dtype=int)
        if sensors.size == 0:
            raise ValidationError("sensors must be a nonempty node list")
        if sensors.min() < 0 or sensors.max() >= self.grid.n_nodes:
            raise ValidationError(f"sensors must lie within [0, {self.grid.n_nodes})")
        if np.unique(sensors).size != sensors.size:
            raise ValidationError("sensors must not contain duplicates")
        if (self.shift_step is None) != (self.shift_zones is None):
            raise ValidationError("truth_shift needs both step and zones")
        if self.shift_zones is not None:
            if len(self.shift_zones) != len(self.soil_zones):
                raise ValidationError("truth_shift.zones must match soil.zones in length")
            if not 0 <= self.shift_step <= self.steps:
                raise ValidationError("truth_shift.step must lie within the run")
        self.truth_models()  # the models check substeps, storativity, bottom_bc and roots.root_depth
        for s in self.snapshot_steps:
            if not 0 <= s < self.steps:
                raise ValidationError("snapshot_steps must lie within [0, steps)")
        for key, (name, cast, *_) in _KEYS.items():
            if cast is not _series:
                continue
            series = getattr(self, name)
            if np.ndim(series) != 1 or np.size(series) == 0 or not np.all(np.isfinite(series)):
                raise ValidationError(f"{key} must be a finite scalar or a nonempty list of finite values")
            if not key.startswith("forecast.") and np.min(series) < 0:  # forecast errors may be negative
                raise ValidationError(f"{key} must be nonnegative")
        return self

    # -- derived pieces -----------------------------------------------------

    @property
    def n_x(self) -> int:
        return self.grid.n_nodes

    @property
    def n_y(self) -> int:
        return len(self.sensors)

    @property
    def period(self) -> int:
        return self.trigger_period if self.trigger_period > 0 else self.n_fd

    def _per_node(self, values: np.ndarray) -> np.ndarray:
        """Each node's entry of ``values``: 1 entry covers every node, 4 are per azimuthal quadrant."""
        if len(values) == 1:
            return values[np.zeros(self.grid.n_nodes, dtype=int)]
        return values[self.grid.quadrant_of_node()]

    def _model(self, zones=None) -> FullModel:
        zones = list(zones or self.soil_zones)
        return FullModel(
            grid=self.grid,
            soil=VanGenuchtenParams.from_zones(self._per_node(np.arange(len(zones))), zones),
            roots=self.roots,
            substeps=self.substeps,
            storativity=self.storativity,
            bottom_bc=self.bottom_bc,
        )

    def estimator_model(self) -> FullModel:
        """Nominal physics used for snapshots, predictions, and the error metric."""
        return self._model()

    def truth_models(self) -> tuple[FullModel, FullModel]:
        """(pre-shift, post-shift) twin models; identical when no shift is configured."""
        pre = self._model()
        post = self._model(self.shift_zones) if self.shift_zones is not None else pre
        return pre, post

    def truth_state0(self) -> np.ndarray:
        return self._per_node(np.asarray(self.initial_truth, dtype=float))

    def guess_state0(self) -> np.ndarray:
        return self._per_node(np.asarray(self.initial_guess, dtype=float))

    def active_sector(self, k: int) -> int:
        return (self.irrigation_start_sector + k) % self.grid.n_theta

    def truth_inputs(self, k: int) -> tuple[SurfaceInput, StepForcing]:
        surface = SurfaceInput(
            np.full(self.grid.n_r, _at(self.irrigation_rate, k)), self.active_sector(k)
        )
        return surface, StepForcing(et=_at(self.et, k), k_c=_at(self.k_c, k), rain=_at(self.rain, k))

    def estimator_inputs(self, k: int) -> tuple[SurfaceInput, StepForcing]:
        """Scheduled inputs as the estimator sees them (forecast error applied)."""
        rate = max(0.0, _at(self.irrigation_rate, k) + _at(self.forecast_irrigation_error, k))
        surface = SurfaceInput(np.full(self.grid.n_r, rate), self.active_sector(k))
        rain = max(0.0, _at(self.rain, k) + _at(self.forecast_rain_error, k))
        return surface, StepForcing(et=_at(self.et, k), k_c=_at(self.k_c, k), rain=rain)

    def estimator_inputs_window(self, start: int, count: int) -> list:
        return [self.estimator_inputs(start + j) for j in range(count)]


# -- sensor placement --------------------------------------------------------

def sensor_lattice(grid: CylindricalGrid, n_radial: int, n_azimuthal: int, layers) -> list[int]:
    """Evenly spread sensors over an (r, theta) lattice at the given layers."""
    i_rs = np.unique(np.round(np.linspace(0, grid.n_r - 1, n_radial)).astype(int))
    i_ts = np.unique((np.arange(n_azimuthal) * grid.n_theta) // n_azimuthal)
    return sorted(grid.flat_index(i, j, k) for i in i_rs for j in i_ts for k in layers)


def default_sensor_layers(grid: CylindricalGrid, root_depth: float) -> tuple[int, int, int]:
    """Surface, mid-depth, and root-zone-bottom layer indices (bottom-up)."""
    surface = grid.n_z - 1
    mid = int(np.clip(round((grid.depth / 2.0) / grid.dz - 0.5), 0, grid.n_z - 1))
    root_bottom = int(np.clip(round((grid.depth - root_depth) / grid.dz - 0.5), 0, grid.n_z - 1))
    return root_bottom, mid, surface


# -- file loading -------------------------------------------------------------

def _int(value) -> int:
    """int(value), except that a float with a fractional part is an error, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _ints(values) -> tuple:
    return tuple(_int(v) for v in values)


def _floats(values) -> tuple:
    return tuple(float(v) for v in np.atleast_1d(values))


def _zones(entries) -> tuple:
    if not isinstance(entries, list) or not entries or not all(isinstance(e, dict) for e in entries):
        raise ValueError("must be a nonempty list of parameter mappings")
    zones = []
    for i, entry in enumerate(entries):
        try:
            zones.append(VanGenuchtenParams(**{k: float(v) for k, v in entry.items()}))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"entry {i}: {exc}") from exc
    return tuple(zones)


# Every scenario key, as "key" or "section.key", with the ScenarioConfig field
# it loads into and the cast that reads it; a third item True marks a required
# key. A section's own row either builds one field from its keys (grid, roots
# and ekf, whose keys name the constructor's arguments) or, with no cast, lets
# each key load into its own field. A null section counts as absent.
_KEYS = {
    "grid": ("grid", CylindricalGrid, True),
    "grid.n_r": ("n_r", _int, True),
    "grid.n_theta": ("n_theta", _int, True),
    "grid.n_z": ("n_z", _int, True),
    "grid.radius": ("radius", float, True),
    "grid.depth": ("depth", float, True),
    "soil": (None, None, True),
    "soil.zones": ("soil_zones", _zones, True),
    "truth_shift": (None, None),
    "truth_shift.step": ("shift_step", _int, True),
    "truth_shift.zones": ("shift_zones", _zones, True),
    "initial_truth": ("initial_truth", _floats, True),
    "initial_guess": ("initial_guess", _floats, True),
    "sensors": ("sensors", _ints, True),
    "steps": ("steps", _int, True),
    "delta_s": ("delta_s", float),
    "n_fd": ("n_fd", _int),
    "th_e": ("th_e", float),
    "th_c": ("th_c", float),
    "slope_limit": ("slope_limit", float),
    "scheme": ("scheme", str),
    "trigger_period": ("trigger_period", _int),
    "stride": ("stride", _int),
    "seed": ("seed", _int),
    "substeps": ("substeps", _int),
    "storativity": ("storativity", float),
    "bottom_bc": ("bottom_bc", str),
    "estimate_ceiling": ("estimate_ceiling", lambda v: None if v is None else float(v)),
    "roots": ("roots", RootUptake),
    "roots.root_depth": ("root_depth", float, True),
    "roots.h_anaerobic": ("h_anaerobic", float),
    "roots.h_field_capacity": ("h_field_capacity", float),
    "roots.h_wilting": ("h_wilting", float),
    "noise": (None, None),
    "noise.process_var": ("process_noise_var", float),
    "noise.measurement_var": ("measurement_noise_var", float),
    "ekf": ("ekf", NoiseConfig),
    "ekf.q_diag": ("q_diag", float),
    "ekf.q_offdiag": ("q_offdiag", float),
    "ekf.r_diag": ("r_diag", float),
    "ekf.p0_diag": ("p0_diag", float),
    "ekf.p0_offdiag": ("p0_offdiag", float),
    "irrigation": (None, None),
    "irrigation.rate": ("irrigation_rate", _series),
    "irrigation.start_sector": ("irrigation_start_sector", _int),
    "forcing": (None, None),
    "forcing.et": ("et", _series),
    "forcing.k_c": ("k_c", _series),
    "forcing.rain": ("rain", _series),
    "forecast": (None, None),
    "forecast.irrigation_error": ("forecast_irrigation_error", _series),
    "forecast.rain_error": ("forecast_rain_error", _series),
    "snapshot_steps": ("snapshot_steps", _ints),
}


def _load(data, prefix: str = "") -> dict:
    """ScenarioConfig arguments read from the scenario (prefix "") or one section ("grid.")."""
    where = prefix[:-1] or "scenario"
    if not isinstance(data, dict):
        raise ValidationError(f"{where} must be a mapping")
    rows = {key[len(prefix):]: row for key, row in _KEYS.items()
            if key.startswith(prefix) and "." not in key[len(prefix):]}
    unknown = set(data) - set(rows)
    if unknown:
        raise ValidationError(f"unknown key(s) in {where}: {', '.join(sorted(map(str, unknown)))}")
    args = {}
    for key, (target, cast, *required) in rows.items():
        name = prefix + key
        section = any(k.startswith(name + ".") for k in _KEYS)
        if key not in data or (section and data[key] is None):
            if required:
                raise ValidationError(f"missing required key: {name}")
        elif not section:
            try:
                args[target] = cast(data[key])
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{name}: {exc}") from exc
        elif cast is None:
            args.update(_load(data[key], name + "."))
        else:
            args[target] = cast(**_load(data[key], name + "."))
    return args


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a parsed mapping."""
    return ScenarioConfig(**_load(data)).validate()


def load_config(path) -> ScenarioConfig:
    """Parse and validate a scenario file (YAML or JSON)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"cannot parse {path}: {exc}") from exc
    return config_from_dict(data)


def with_overrides(cfg: ScenarioConfig, scheme: str | None = None, seed: int | None = None,
                   stride: int | None = None) -> ScenarioConfig:
    """Replace the CLI-overridable fields that are given and re-validate."""
    changes = dict(scheme=scheme, seed=seed, stride=stride)
    return replace(cfg, **{k: v for k, v in changes.items() if v is not None}).validate()
