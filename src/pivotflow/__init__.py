"""Soil-moisture estimation for center-pivot fields.

Cylindrical Richards-equation twin simulation, trajectory-clustered
Galerkin model reduction, and a performance-triggered
reduced-order extended Kalman filter, plus a config-driven scenario
runner with CSV artifacts.
"""

from .ekf import (
    EstimationTrace,
    NoiseConfig,
    ReducedEkfState,
    TriggerState,
    clamp_estimate,
    ekf_predict,
    ekf_update,
    initialize_filter,
    percent_mae,
    reconstruct,
    run_adaptive_estimation,
    slope_estimate,
    transfer_model,
)
from .errors import (
    BadSensorIndex,
    DegenerateReference,
    DimensionMismatch,
    JacobianFailure,
    NonFiniteState,
    ParseError,
    PivotflowError,
    SingularInnovation,
    UnstableStep,
    ValidationError,
)
from .grid import CylindricalGrid
from .reduction import (
    Clustering,
    ReducedModel,
    SnapshotMatrix,
    cluster_trajectories,
    compute_error_metric,
    generate_snapshots,
    lift_state,
    reduce_state,
    rollout,
)
from .richards import (
    FullModel,
    RootUptake,
    StepForcing,
    SurfaceInput,
    WaterBudget,
    observe,
    sink_scale,
    sink_term,
)
from .runner import (
    TruthRun,
    export_artifacts,
    export_comparison,
    run_compare,
    run_scheme,
    run_truth,
)
from .scenario import ScenarioConfig, config_from_dict, load_config, sensor_lattice
from .soil import (
    VanGenuchtenParams,
    capillary_capacity,
    hydraulic_conductivity,
    water_content,
)

__version__ = "0.1.0"
