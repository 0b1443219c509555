"""Dynamics, boundary-condition, and water-balance tests."""

from dataclasses import replace

import numpy as np
import pytest

from pivotflow import (
    BadSensorIndex,
    CylindricalGrid,
    DimensionMismatch,
    FullModel,
    NonFiniteState,
    RootUptake,
    StepForcing,
    SurfaceInput,
    UnstableStep,
    ValidationError,
    VanGenuchtenParams,
    WaterBudget,
    hydraulic_conductivity,
    observe,
    sink_scale,
    sink_term,
    water_content,
)
from pivotflow.scenario import config_from_dict, default_sensor_layers, sensor_lattice

from conftest import hydrostatic_state, row_inputs

IDLE = StepForcing()


def idle_input(grid):
    return SurfaceInput.idle(grid.n_r)


# -- sink term ----------------------------------------------------------------

class TestSink:
    def test_zero_demand_gives_zero_sink(self, desk_grid):
        roots = RootUptake(root_depth=0.3)
        h = np.full(desk_grid.n_nodes, -5.0)
        s = sink_term(h, roots, sink_scale(desk_grid, StepForcing(et=0.0, k_c=1.0), roots))
        assert np.all(s == 0.0)

    def test_extraction_integrates_to_crop_demand(self, desk_grid):
        # beta == 1 exactly at the field-capacity head
        roots = RootUptake(root_depth=0.3, h_field_capacity=-3.3)
        h = np.full(desk_grid.n_nodes, roots.h_field_capacity)
        forcing = StepForcing(et=4e-8, k_c=0.9)
        s = sink_term(h, roots, sink_scale(desk_grid, forcing, roots))
        total = (s * desk_grid.flatten(desk_grid.cell_volumes())).sum()
        expected = -forcing.k_c * forcing.et * np.pi * desk_grid.radius**2
        assert total == pytest.approx(expected, rel=1e-10)
        assert np.all(s <= 0.0)

    def test_fractional_root_layer_still_integrates_exactly(self, desk_grid):
        # root_depth not a layer multiple: overlap weights keep the integral exact
        roots = RootUptake(root_depth=0.25)
        h = np.full(desk_grid.n_nodes, roots.h_field_capacity)
        forcing = StepForcing(et=3e-8, k_c=1.2)
        s = sink_term(h, roots, sink_scale(desk_grid, forcing, roots))
        total = (s * desk_grid.flatten(desk_grid.cell_volumes())).sum()
        assert total == pytest.approx(-forcing.k_c * forcing.et * np.pi * desk_grid.radius**2, rel=1e-10)

    def test_no_uptake_below_wilting(self, desk_grid):
        roots = RootUptake(root_depth=0.3, h_wilting=-150.0)
        h = np.full(desk_grid.n_nodes, -200.0)
        s = sink_term(h, roots, sink_scale(desk_grid, StepForcing(et=4e-8, k_c=1.0), roots))
        assert np.all(s == 0.0)

    def test_root_parameters_checked(self, desk_grid, loam):
        for bad in ({"root_depth": np.inf}, {"root_depth": 0.0}, {"root_depth": 0.3, "h_wilting": -np.inf},
                    {"root_depth": 0.3, "h_anaerobic": 0.1}):
            with pytest.raises(ValidationError):
                RootUptake(**bad)
        # roots deeper than the grid fail when the model is built, not at the first step with crop demand
        with pytest.raises(ValidationError, match="^roots.root_depth must not exceed grid depth$"):
            FullModel(desk_grid, loam, roots=RootUptake(root_depth=desk_grid.depth + 0.1))
        FullModel(desk_grid, loam, roots=RootUptake(root_depth=desk_grid.depth))

    def test_no_extraction_below_root_zone(self, desk_grid):
        roots = RootUptake(root_depth=0.1)
        h = np.full(desk_grid.n_nodes, roots.h_field_capacity)
        s = desk_grid.reshape(sink_term(h, roots, sink_scale(desk_grid, StepForcing(et=4e-8, k_c=1.0), roots)))
        below = desk_grid.z_centers + desk_grid.dz / 2 <= desk_grid.depth - roots.root_depth
        assert np.all(s[:, :, below] == 0.0)
        assert np.any(s[:, :, ~below] < 0.0)


# -- rhs ------------------------------------------------------------------------

class TestRhs:
    def test_hydrostatic_profile_is_stationary_no_flux(self, desk_grid, loam):
        model = FullModel(desk_grid, loam, bottom_bc="no_flux")
        h = hydrostatic_state(desk_grid, -20.0)
        dxdt = model.rhs(h, idle_input(desk_grid), IDLE)
        assert np.abs(dxdt).max() < 1e-15  # ulp-level face-gradient roundoff only

    def test_hydrostatic_profile_near_stationary_free_drainage(self, desk_grid, loam):
        # residual is the unit-gradient drainage K(h_bottom), tiny for dry soil
        model = FullModel(desk_grid, loam, bottom_bc="free_drainage")
        h = hydrostatic_state(desk_grid, -20.0)
        dxdt = model.rhs(h, idle_input(desk_grid), IDLE)
        assert np.abs(dxdt).max() < 1e-8

    def test_axisymmetric_inputs_give_theta_invariant_rates(self, desk_grid, loam):
        model = FullModel(desk_grid, loam, roots=RootUptake(root_depth=0.3))
        radial = np.linspace(-12.0, -8.0, desk_grid.n_r)
        vertical = np.linspace(-1.0, 0.0, desk_grid.n_z)
        h3 = np.tile(radial[:, None, None], (1, desk_grid.n_theta, desk_grid.n_z)) + vertical
        dxdt = desk_grid.reshape(
            model.rhs(desk_grid.flatten(h3), idle_input(desk_grid),
                      StepForcing(et=4e-8, k_c=0.8, rain=1e-7))
        )
        for j in range(1, desk_grid.n_theta):
            assert np.array_equal(dxdt[:, 0, :], dxdt[:, j, :])

    def test_perturbation_diffuses_toward_neighbors(self, desk_grid, loam):
        # theta-neighbor of a wetted node: its only flux is the azimuthal one,
        # so rhs there must equal the two-node face flux exactly
        model = FullModel(desk_grid, loam, bottom_bc="no_flux")
        h3 = desk_grid.reshape(hydrostatic_state(desk_grid, -10.0)).copy()
        i_r, i_t, i_z = 5, 3, 2
        h3[i_r, i_t, i_z] += 1.0
        dxdt = desk_grid.reshape(model.rhs(desk_grid.flatten(h3), idle_input(desk_grid), IDLE))
        assert dxdt[i_r, i_t, i_z] < 0.0  # perturbed node relaxes
        h_a = h3[i_r, i_t, i_z]
        h_b = h3[i_r, i_t + 1, i_z]
        k_face = 0.5 * (hydraulic_conductivity(h_a, loam) + hydraulic_conductivity(h_b, loam))
        from pivotflow import capillary_capacity

        c_b = max(capillary_capacity(h_b, loam), model.storativity)
        expected = k_face * (h_a - h_b) / (desk_grid.r_centers[i_r] * desk_grid.dtheta) ** 2 / c_b
        assert dxdt[i_r, i_t + 1, i_z] == pytest.approx(expected, rel=1e-12)
        assert dxdt[i_r, i_t - 1, i_z] == pytest.approx(expected, rel=1e-12)

    def test_irrigation_wets_only_active_sector_surface(self, desk_grid, loam):
        model = FullModel(desk_grid, loam, bottom_bc="no_flux")
        h = hydrostatic_state(desk_grid, -10.0)
        surface = SurfaceInput(np.full(desk_grid.n_r, 1e-6), active_sector=4)
        dxdt = desk_grid.reshape(model.rhs(h, surface, IDLE))
        assert np.all(dxdt[:, 4, -1] > 0.0)
        mask = np.ones(desk_grid.n_theta, dtype=bool)
        mask[4] = False
        assert np.abs(dxdt[:, mask, :]).max() < 1e-15

    def test_non_finite_state_rejected(self, desk_grid, loam):
        model = FullModel(desk_grid, loam)
        h = np.full(desk_grid.n_nodes, -5.0)
        h[3] = np.nan
        with pytest.raises(NonFiniteState):
            model.rhs(h, idle_input(desk_grid), IDLE)

    def test_dimension_mismatch_rejected(self, desk_grid, loam):
        model = FullModel(desk_grid, loam)
        with pytest.raises(DimensionMismatch):
            model.rhs(np.zeros(7), idle_input(desk_grid), IDLE)
        # a soil array must hold one value per node
        other = CylindricalGrid(4, 6, 3, radius=2.0, depth=0.3)
        with pytest.raises(DimensionMismatch, match="soil arrays"):
            FullModel(desk_grid, VanGenuchtenParams.from_zones(other.quadrant_of_node(), [loam] * 4))


# -- step -----------------------------------------------------------------------

class TestStep:
    def test_equilibrium_is_a_fixed_point(self, desk_grid, loam):
        model = FullModel(desk_grid, loam, substeps=12, bottom_bc="no_flux")
        h = hydrostatic_state(desk_grid, -15.0)
        out = model.step(h, idle_input(desk_grid), IDLE, 1800.0)
        assert np.abs(out - h).max() < 1e-10

    def test_deterministic_bitwise(self, desk_grid, loam):
        model = FullModel(desk_grid, loam, roots=RootUptake(root_depth=0.3), substeps=8)
        rng = np.random.default_rng(5)
        h = np.full(desk_grid.n_nodes, -9.0) + rng.normal(0, 0.5, desk_grid.n_nodes)
        surface = SurfaceInput(np.full(desk_grid.n_r, 3e-7), 2)
        forcing = StepForcing(et=3e-8, k_c=0.7, rain=1e-7)
        a = model.step(h, surface, forcing, 1800.0)
        b = model.step(h, surface, forcing, 1800.0)
        assert np.array_equal(a, b)
        # water accounting reads the sub-step's parts; it takes no other path
        budget = WaterBudget()
        assert model.step(h, surface, forcing, 1800.0, budget=budget).tobytes() == a.tobytes()
        assert budget.inflow > 0 and budget.drainage > 0 and budget.extraction > 0

    def test_grid_caches_do_not_mix_grids(self, loam):
        # The stepper caches stencil coefficients per grid and the root
        # weights per (grid, root depth), and each model holds its own soil
        # products. Interleaved steps on grids of different shapes, on one
        # shape with different extents, on one grid with two root depths and
        # on one grid with two soils must each match a step taken with empty
        # caches on a freshly built model.
        from pivotflow import richards

        sand = VanGenuchtenParams(alpha=4.5, n_vg=1.68, theta_r=0.065, theta_s=0.45, k_s=5.0e-6)
        desk = CylindricalGrid(10, 12, 6, radius=5.0, depth=0.4)
        cases = [
            (desk, 0.3, loam),
            (CylindricalGrid(4, 6, 4, radius=2.0, depth=0.4), 0.25, loam),
            (CylindricalGrid(4, 6, 4, radius=3.0, depth=0.3), 0.1, loam),
            (desk, 0.15, loam),
            (desk, 0.3, sand),
            (desk, 0.3, VanGenuchtenParams.from_zones(desk.quadrant_of_node(), [loam, sand] * 2)),
        ]
        rng = np.random.default_rng(9)
        forcing = StepForcing(et=3e-8, k_c=0.7, rain=1e-8)

        def build(grid, root_depth, soil):
            return FullModel(grid, soil, roots=RootUptake(root_depth=root_depth), substeps=6)

        states, expected = [], []
        for grid, root_depth, soil in cases:
            h = rng.uniform(-12.0, -4.0, grid.n_nodes)
            richards._stencil.cache_clear()
            richards.root_weight.cache_clear()
            expected.append(build(grid, root_depth, soil).step(
                h, SurfaceInput(np.full(grid.n_r, 2e-7), 1), forcing, 1800.0))
            states.append(h)
        models = [build(*case) for case in cases]
        for _ in range(2):
            for model, h, want in zip(models, states, expected):
                got = model.step(h, SurfaceInput(np.full(model.grid.n_r, 2e-7), 1), forcing, 1800.0)
                assert np.array_equal(got, want)

    def test_richardson_halving_consistency(self, small_grid, loam):
        # Euler local error: (full step) vs (two half steps) shrinks ~4x when dt halves
        model = FullModel(small_grid, loam, substeps=1)
        h = hydrostatic_state(small_grid, -8.0)
        h3 = small_grid.reshape(h).copy()
        h3[:, :, -1] += 0.5  # wet surface transient so dynamics are active
        h = small_grid.flatten(h3)
        surface = idle_input(small_grid)

        def gap(dt):
            one = model.step(h, surface, IDLE, dt)
            half = model.step(model.step(h, surface, IDLE, dt / 2), surface, IDLE, dt / 2)
            return np.abs(one - half).max()

        g1, g2 = gap(400.0), gap(200.0)
        assert g1 < 0.05  # first-order error bound at the step scale
        assert g2 < g1
        assert g1 / g2 == pytest.approx(4.0, rel=0.5)

    @pytest.mark.parametrize("bottom_bc", ["free_drainage", "no_flux"])
    def test_batch_rows_equal_single_steps(self, loam, bottom_bc):
        # Rows of one batched step (and of one batched rhs) must be
        # bit-identical to stepping each state alone with the same inputs.
        grid = CylindricalGrid(4, 6, 3, radius=2.0, depth=0.3)
        soil = VanGenuchtenParams.from_zones(grid.quadrant_of_node(), [
            loam, VanGenuchtenParams(alpha=2.0, n_vg=1.41, theta_r=0.095, theta_s=0.41, k_s=1.2e-6),
        ] * 2)
        model = FullModel(grid, soil, roots=RootUptake(root_depth=0.2, h_wilting=-16.0),
                          substeps=6, bottom_bc=bottom_bc)
        rng = np.random.default_rng(4)
        states = rng.uniform(-14.0, -1.0, (5, grid.n_nodes))
        surface = SurfaceInput(np.full(grid.n_r, 1e-7), 3)
        forcing = StepForcing(et=2e-8, k_c=0.5, rain=1e-8)
        batch = model.step(states, surface, forcing, 1800.0)
        rates = model.rhs(states, surface, forcing)
        sinks = sink_term(states, model.roots, sink_scale(grid, forcing, model.roots))
        for b in range(5):
            assert batch[b].tobytes() == model.step(states[b], surface, forcing, 1800.0).tobytes()
            assert rates[b].tobytes() == model.rhs(states[b], surface, forcing).tobytes()
            single = sink_term(states[b], model.roots, sink_scale(grid, forcing, model.roots))
            assert sinks[b].tobytes() == single.tobytes()

    def test_per_row_inputs_equal_single_steps(self, desk_grid, loam):
        # Each row of one call takes its own inputs and must get the bits of
        # a single-state call with them; row 2 has no crop demand, so its sink
        # is the +0.0 of a call without demand, never -0.0.
        soil = VanGenuchtenParams.from_zones(desk_grid.quadrant_of_node(), [
            loam, VanGenuchtenParams(alpha=2.0, n_vg=1.41, theta_r=0.095, theta_s=0.41, k_s=1.2e-6),
        ] * 2)
        model = FullModel(desk_grid, soil, roots=RootUptake(root_depth=0.3, h_wilting=-16.0), substeps=24)
        states = np.random.default_rng(6).uniform(-14.0, -1.0, (4, desk_grid.n_nodes))
        surfaces, forcings = row_inputs(desk_grid)
        batch = model.step(states, surfaces, forcings, 1800.0)
        rates = model.rhs(states, surfaces, forcings)
        sinks = sink_term(states, model.roots, sink_scale(desk_grid, forcings, model.roots))
        mixed = model.step(states, surfaces[1], forcings, 1800.0)  # one surface shared by every row
        for b, (surface, forcing) in enumerate(zip(surfaces, forcings)):
            assert batch[b].tobytes() == model.step(states[b], surface, forcing, 1800.0).tobytes()
            assert rates[b].tobytes() == model.rhs(states[b], surface, forcing).tobytes()
            single = sink_term(states[b], model.roots, sink_scale(desk_grid, forcing, model.roots))
            assert sinks[b].tobytes() == single.tobytes()
            assert mixed[b].tobytes() == model.step(states[b], surfaces[1], forcing, 1800.0).tobytes()
        assert not np.signbit(sinks[2]).any()
        assert np.all(sinks[[0, 1, 3]] <= 0.0) and np.any(sinks[[0, 1, 3]] < 0.0)

    def test_per_row_input_count_is_checked(self, small_model, small_grid):
        states = np.full((3, small_grid.n_nodes), -6.0)
        two = [idle_input(small_grid)] * 2
        for surface, forcing in ((two, IDLE), (idle_input(small_grid), [IDLE] * 4), (two, [IDLE] * 2)):
            with pytest.raises(DimensionMismatch, match=r"expected one per state row \(3\)"):
                small_model.step(states, surface, forcing, 900.0)
            with pytest.raises(DimensionMismatch, match=r"expected one per state row \(3\)"):
                small_model.rhs(states, surface, forcing)
        with pytest.raises(DimensionMismatch, match=r"expected one per state row \(1\)"):
            small_model.step(states[0], two, IDLE, 900.0)

    def test_integer_rates_are_accepted(self, small_model, small_grid):
        # StepForcing(rain=0) once made the surface flux an integer array, and
        # adding the pivot's float rates to it raised a casting error.
        h = np.full(small_grid.n_nodes, -6.0)
        surface = SurfaceInput(np.full(small_grid.n_r, 1e-7), 0)
        got = small_model.step(h, surface, StepForcing(et=0, k_c=0, rain=0), 900.0)
        assert np.array_equal(got, small_model.step(h, surface, StepForcing(), 900.0))

    def test_batch_state_shape_is_checked(self, small_model, small_grid):
        for shape in [(2, 3), (2, 1, small_grid.n_nodes)]:
            with pytest.raises(DimensionMismatch):
                small_model.step(np.full(shape, -6.0), idle_input(small_grid), IDLE, 900.0)

    def test_surface_rate_count_is_checked(self, small_model, small_grid):
        # step used to fail with a bare numpy broadcasting error here
        h = np.full(small_grid.n_nodes, -6.0)
        with pytest.raises(DimensionMismatch, match="rates, expected"):
            small_model.step(h, SurfaceInput(np.full(small_grid.n_r + 1, 1e-7), 0), IDLE, 900.0)

    def test_water_budget_closes_over_ten_steps(self, desk_grid, loam):
        roots = RootUptake(root_depth=0.3, h_wilting=-18.0)
        model = FullModel(desk_grid, loam, roots=roots, substeps=24)
        soil = VanGenuchtenParams.from_zones(np.zeros(desk_grid.n_nodes, int), [loam])
        volumes = desk_grid.flatten(desk_grid.cell_volumes())
        h = np.full(desk_grid.n_nodes, -8.0)
        budget = WaterBudget()
        storage0 = (water_content(h, soil) * volumes).sum()
        for k in range(10):
            surface = SurfaceInput(np.full(desk_grid.n_r, 5e-7), k % desk_grid.n_theta)
            h = model.step(h, surface, StepForcing(et=4e-8, k_c=0.8, rain=1e-7), 1800.0, budget=budget)
        storage1 = (water_content(h, soil) * volumes).sum()
        residual = (storage1 - storage0) - (budget.inflow - budget.drainage - budget.extraction)
        assert abs(residual) <= 0.01 * budget.inflow

    def test_unstable_step_raises(self, small_grid, loam):
        model = FullModel(small_grid, loam, substeps=16)
        h3 = np.full((small_grid.n_r, small_grid.n_theta, small_grid.n_z), -0.3)
        h3[:, ::2, :] = -80.0  # sharp wet/dry contrast far outside the stability domain
        with pytest.raises(UnstableStep):
            model.step(small_grid.flatten(h3), idle_input(small_grid), IDLE, 7200.0)


class TestEnvironmentForcing:
    """The scenario's et, k_c and rain series become each step's StepForcing."""

    CONFIG = {
        "grid": {"n_r": 4, "n_theta": 4, "n_z": 3, "radius": 2.0, "depth": 0.3},
        "soil": {"zones": [{"alpha": 3.6, "n_vg": 1.56, "theta_r": 0.078, "theta_s": 0.43, "k_s": 2.9e-6}]},
        "initial_truth": [-12.0],
        "initial_guess": [-9.0],
        "sensors": [0, 5, 17],
        "steps": 10,
    }

    def test_series_hold_last(self):
        cfg = config_from_dict(dict(self.CONFIG, forcing={"et": [1e-8, 2e-8], "k_c": 0.5, "rain": [0.0, 1e-8, 3e-8]}))
        assert cfg.truth_inputs(0)[1].et == 1e-8
        assert cfg.truth_inputs(5)[1].et == 2e-8
        assert cfg.truth_inputs(5)[1].rain == 3e-8
        assert cfg.truth_inputs(5)[1].k_c == 0.5

    def test_negative_series_rejected(self):
        # NaN and infinity fail like a negative rate, each in any of the series,
        # also in a config built in code rather than loaded
        cfg = config_from_dict(self.CONFIG)
        for name in ("et", "k_c", "rain"):
            for bad in (-1e-8, np.nan, np.inf):
                with pytest.raises(ValidationError, match=f"forcing.{name} must be"):
                    replace(cfg, **{name: np.array([0.0, bad])}).validate()


@pytest.mark.parametrize("bad", [-1e-8, np.nan, np.inf])
class TestInputValidation:
    """A NaN or infinite rate fails at construction instead of blowing up a later step."""

    def test_surface_rates(self, bad):
        with pytest.raises(ValidationError, match="u must be"):
            SurfaceInput([bad, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("name", ["et", "k_c", "rain"])
    def test_step_forcing(self, name, bad):
        with pytest.raises(ValidationError, match=f"{name} must be"):
            StepForcing(**{name: bad})


# -- observation ------------------------------------------------------------------

class TestObserve:
    def test_selects_sensor_rows(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(observe(x, [0]), [1.0])
        assert np.array_equal(observe(x, [2, 0]), [3.0, 1.0])

    def test_rows_are_selection_rows(self):
        ones = np.ones(50)
        y = observe(ones, [4, 9, 33])
        assert np.array_equal(y, np.ones(3))

    def test_noise_added(self):
        x = np.zeros(5)
        y = observe(x, [1, 3], v=np.array([0.5, -0.5]))
        assert np.array_equal(y, [0.5, -0.5])

    def test_bad_sensor_index(self):
        with pytest.raises(BadSensorIndex):
            observe(np.zeros(10), [10])
        with pytest.raises(BadSensorIndex):
            observe(np.zeros(10), [-1])

    def test_paper_scale_layout_has_90_sensors(self):
        grid = CylindricalGrid(n_r=25, n_theta=68, n_z=12, radius=290.0, depth=0.4)
        assert grid.n_nodes == 20400
        sensors = sensor_lattice(grid, 5, 6, default_sensor_layers(grid, 0.3))
        assert len(sensors) == 90
        y = observe(np.full(grid.n_nodes, -7.0), sensors)
        assert y.shape == (90,)
