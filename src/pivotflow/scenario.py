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
    BOTTOM_CONDITIONS,
    FullModel,
    RootUptake,
    StepForcing,
    SurfaceInput,
)
from .soil import SoilField, VanGenuchtenParams


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
        if not self.delta_s > 0:
            raise ValidationError("delta_s must be > 0")
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
        if self.substeps < 1:
            raise ValidationError("substeps must be >= 1")
        if self.bottom_bc not in BOTTOM_CONDITIONS:
            raise ValidationError(f"bottom_bc must be one of {BOTTOM_CONDITIONS}")
        if self.estimate_ceiling is not None and self.estimate_ceiling > 0:
            raise ValidationError("estimate_ceiling must be <= 0 (or null to disable)")
        if self.process_noise_var < 0 or self.measurement_noise_var < 0:
            raise ValidationError("noise variances (process_var, measurement_var) must be >= 0")
        if len(self.soil_zones) not in (1, 4):
            raise ValidationError("soil.zones must hold 1 (uniform) or 4 (per-quadrant) entries")
        for vals, name in ((self.initial_truth, "initial_truth"), (self.initial_guess, "initial_guess")):
            if len(vals) not in (1, 4):
                raise ValidationError(f"{name} must have length 1 or 4 (per quadrant)")
        sensors = np.asarray(self.sensors, dtype=int)
        if sensors.size == 0:
            raise ValidationError("sensors must be a nonempty node list")
        if sensors.min() < 0 or sensors.max() >= self.grid.n_nodes:
            raise ValidationError(f"sensors must lie within [0, {self.grid.n_nodes})")
        if np.unique(sensors).size != sensors.size:
            raise ValidationError("sensors must not contain duplicates")
        if self.roots is not None and self.roots.root_depth > self.grid.depth:
            raise ValidationError("roots.root_depth must not exceed grid depth")
        if (self.shift_step is None) != (self.shift_zones is None):
            raise ValidationError("truth_shift needs both step and zones")
        if self.shift_zones is not None:
            if len(self.shift_zones) != len(self.soil_zones):
                raise ValidationError("truth_shift.zones must match soil.zones in length")
            if not 0 <= self.shift_step <= self.steps:
                raise ValidationError("truth_shift.step must lie within the run")
        for s in self.snapshot_steps:
            if not 0 <= s < self.steps:
                raise ValidationError("snapshot_steps must lie within [0, steps)")
        for name, key, signed in (
            ("irrigation_rate", "irrigation.rate", False),
            ("et", "forcing.et", False),
            ("k_c", "forcing.k_c", False),
            ("rain", "forcing.rain", False),
            ("forecast_irrigation_error", "forecast.irrigation_error", True),
            ("forecast_rain_error", "forecast.rain_error", True),
        ):
            series = getattr(self, name)
            if np.ndim(series) != 1 or np.size(series) == 0 or not np.all(np.isfinite(series)):
                raise ValidationError(f"{key} must be a finite scalar or a nonempty list of finite values")
            if not signed and np.min(series) < 0:
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

    def _zone_of_node(self) -> np.ndarray:
        if len(self.soil_zones) == 1:
            return np.zeros(self.grid.n_nodes, dtype=int)
        return self.grid.quadrant_of_node()

    def soil_field(self, zones=None) -> SoilField:
        return SoilField.from_zones(self._zone_of_node(), list(zones or self.soil_zones))

    def _model(self, zones=None) -> FullModel:
        return FullModel(
            grid=self.grid,
            soil=self.soil_field(zones),
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

    def _expand_quadrants(self, values) -> np.ndarray:
        vals = np.asarray(values, dtype=float)
        if vals.size == 1:
            return np.full(self.grid.n_nodes, vals[0])
        return vals[self.grid.quadrant_of_node()]

    def truth_state0(self) -> np.ndarray:
        return self._expand_quadrants(self.initial_truth)

    def guess_state0(self) -> np.ndarray:
        return self._expand_quadrants(self.initial_guess)

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

def _require(data: dict, key: str, context: str = ""):
    if key not in data:
        name = f"{context}.{key}" if context else key
        raise ValidationError(f"missing required key: {name}")
    return data[key]


def _check_keys(data: dict, allowed, context: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown key(s) in {context}: {', '.join(sorted(unknown))}")


def _zones(entries, context: str) -> tuple:
    if not isinstance(entries, list) or not entries:
        raise ValidationError(f"{context} must be a nonempty list of parameter mappings")
    zones = []
    for i, entry in enumerate(entries):
        _check_keys(entry, ("alpha", "n_vg", "theta_r", "theta_s", "k_s"), f"{context}[{i}]")
        try:
            zones.append(VanGenuchtenParams(**{k: float(v) for k, v in entry.items()}))
        except (TypeError, ValidationError) as exc:
            raise ValidationError(f"{context}[{i}]: {exc}") from exc
    return tuple(zones)


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a parsed mapping."""
    if not isinstance(data, dict):
        raise ValidationError("scenario must be a mapping")
    _check_keys(
        data,
        (
            "grid", "soil", "truth_shift", "initial_truth", "initial_guess", "sensors",
            "steps", "delta_s", "n_fd", "th_e", "th_c", "slope_limit", "scheme",
            "trigger_period", "stride", "seed", "substeps", "storativity", "bottom_bc",
            "estimate_ceiling", "roots", "noise", "ekf", "irrigation", "forcing", "forecast",
            "snapshot_steps",
        ),
        "scenario",
    )
    grid_data = _require(data, "grid")
    _check_keys(grid_data, ("n_r", "n_theta", "n_z", "radius", "depth"), "grid")
    grid = CylindricalGrid(
        n_r=int(_require(grid_data, "n_r", "grid")),
        n_theta=int(_require(grid_data, "n_theta", "grid")),
        n_z=int(_require(grid_data, "n_z", "grid")),
        radius=float(_require(grid_data, "radius", "grid")),
        depth=float(_require(grid_data, "depth", "grid")),
    )
    soil_data = _require(data, "soil")
    _check_keys(soil_data, ("zones",), "soil")
    kwargs = dict(
        grid=grid,
        soil_zones=_zones(_require(soil_data, "zones", "soil"), "soil.zones"),
        initial_truth=tuple(float(v) for v in np.atleast_1d(_require(data, "initial_truth"))),
        initial_guess=tuple(float(v) for v in np.atleast_1d(_require(data, "initial_guess"))),
        sensors=tuple(int(v) for v in _require(data, "sensors")),
        steps=int(_require(data, "steps")),
    )
    for key, cast in (
        ("delta_s", float), ("n_fd", int), ("th_e", float), ("th_c", float),
        ("slope_limit", float), ("scheme", str), ("trigger_period", int), ("stride", int),
        ("seed", int), ("substeps", int), ("storativity", float), ("bottom_bc", str),
    ):
        if key in data:
            kwargs[key] = cast(data[key])
    if "estimate_ceiling" in data:
        value = data["estimate_ceiling"]
        kwargs["estimate_ceiling"] = None if value is None else float(value)
    if "roots" in data and data["roots"] is not None:
        roots_data = data["roots"]
        _check_keys(roots_data, ("root_depth", "h_anaerobic", "h_field_capacity", "h_wilting"), "roots")
        kwargs["roots"] = RootUptake(**{k: float(v) for k, v in roots_data.items()})
    if "noise" in data:
        noise_data = data["noise"]
        _check_keys(noise_data, ("process_var", "measurement_var"), "noise")
        if "process_var" in noise_data:
            kwargs["process_noise_var"] = float(noise_data["process_var"])
        if "measurement_var" in noise_data:
            kwargs["measurement_noise_var"] = float(noise_data["measurement_var"])
    if "ekf" in data:
        ekf_data = data["ekf"]
        _check_keys(ekf_data, ("q_diag", "q_offdiag", "r_diag", "p0_diag", "p0_offdiag"), "ekf")
        kwargs["ekf"] = NoiseConfig(**{k: float(v) for k, v in ekf_data.items()})
    if "irrigation" in data:
        irr = data["irrigation"]
        _check_keys(irr, ("rate", "start_sector"), "irrigation")
        if "rate" in irr:
            kwargs["irrigation_rate"] = _series(irr["rate"])
        if "start_sector" in irr:
            kwargs["irrigation_start_sector"] = int(irr["start_sector"])
    if "forcing" in data:
        forcing = data["forcing"]
        _check_keys(forcing, ("et", "k_c", "rain"), "forcing")
        for key in ("et", "k_c", "rain"):
            if key in forcing:
                kwargs[key] = _series(forcing[key])
    if "forecast" in data:
        fc = data["forecast"]
        _check_keys(fc, ("irrigation_error", "rain_error"), "forecast")
        if "irrigation_error" in fc:
            kwargs["forecast_irrigation_error"] = _series(fc["irrigation_error"])
        if "rain_error" in fc:
            kwargs["forecast_rain_error"] = _series(fc["rain_error"])
    if "truth_shift" in data and data["truth_shift"] is not None:
        shift = data["truth_shift"]
        _check_keys(shift, ("step", "zones"), "truth_shift")
        kwargs["shift_step"] = int(_require(shift, "step", "truth_shift"))
        kwargs["shift_zones"] = _zones(_require(shift, "zones", "truth_shift"), "truth_shift.zones")
    if "snapshot_steps" in data:
        kwargs["snapshot_steps"] = tuple(int(v) for v in data["snapshot_steps"])
    return ScenarioConfig(**kwargs).validate()


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
    """Replace the CLI-overridable fields and re-validate."""
    changes = {}
    if scheme is not None:
        changes["scheme"] = scheme
    if seed is not None:
        changes["seed"] = seed
    if stride is not None:
        changes["stride"] = stride
    return replace(cfg, **changes).validate() if changes else cfg
