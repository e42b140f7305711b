"""Lookup-space (Fig. 12/13) tests."""

import numpy as np
import pytest

from repro.control.lookup_space import LookupSpace
from repro.errors import ConfigurationError, PhysicalRangeError
from repro.thermal.cpu_model import (
    CoolingSetting,
    CpuThermalModel,
    OutletDeltaModel,
)


def scalar_measurement(space: LookupSpace) -> tuple[np.ndarray, np.ndarray]:
    """The measurement campaign one scalar model call per grid point."""
    shape = (len(space.utilisation_grid), len(space.flow_grid),
             len(space.inlet_grid))
    cpu = np.empty(shape)
    outlet = np.empty(shape)
    for i, util in enumerate(space.utilisation_grid):
        for j, flow in enumerate(space.flow_grid):
            for k, inlet in enumerate(space.inlet_grid):
                setting = CoolingSetting(flow_l_per_h=float(flow),
                                         inlet_temp_c=float(inlet))
                cpu[i, j, k] = space.model.cpu_temp_c(float(util), setting)
                outlet[i, j, k] = space.model.outlet_temp_c(float(util),
                                                            setting)
    return cpu, outlet


class TestConstruction:
    def test_default_grid_size(self, lookup_space):
        assert lookup_space.n_points == 11 * 7 * 21

    def test_bad_grids_rejected(self):
        with pytest.raises(ConfigurationError):
            LookupSpace(utilisation_grid=np.array([0.5]))
        with pytest.raises(ConfigurationError):
            LookupSpace(flow_grid=np.array([100.0, 50.0]))

    def test_iter_points_count(self):
        space = LookupSpace(
            utilisation_grid=np.linspace(0, 1, 3),
            flow_grid=np.array([20.0, 100.0]),
            inlet_grid=np.linspace(30.0, 50.0, 4))
        assert len(list(space.iter_points())) == 3 * 2 * 4


class TestInterpolation:
    def test_exact_on_grid(self, lookup_space, cpu_model):
        # At grid nodes the interpolation equals the model exactly.
        setting = CoolingSetting(flow_l_per_h=100.0, inlet_temp_c=40.0)
        assert lookup_space.cpu_temp_c(0.5, 100.0, 40.0) == pytest.approx(
            cpu_model.cpu_temp_c(0.5, setting))

    def test_close_off_grid(self, lookup_space, cpu_model):
        # Between nodes, trilinear interpolation stays close to the model
        # (the paper's premise: T_CPU is continuous and near-linear).
        setting = CoolingSetting(flow_l_per_h=85.0, inlet_temp_c=43.7)
        assert lookup_space.cpu_temp_c(0.37, 85.0, 43.7) == pytest.approx(
            cpu_model.cpu_temp_c(0.37, setting), abs=1.0)

    def test_outlet_interpolation(self, lookup_space, cpu_model):
        setting = CoolingSetting(flow_l_per_h=100.0, inlet_temp_c=40.0)
        assert lookup_space.outlet_temp_c(0.5, 100.0, 40.0) == \
            pytest.approx(cpu_model.outlet_temp_c(0.5, setting))

    def test_out_of_bounds_rejected(self, lookup_space):
        with pytest.raises(PhysicalRangeError, match="inlet"):
            lookup_space.cpu_temp_c(0.5, 100.0, 90.0)
        with pytest.raises(PhysicalRangeError, match="inlet"):
            lookup_space.outlet_temp_c(0.5, 100.0, 70.0)
        with pytest.raises(PhysicalRangeError, match="flow"):
            lookup_space.cpu_temp_c(0.5, 10.0, 30.0)
        with pytest.raises(PhysicalRangeError, match="flow"):
            lookup_space.outlet_temp_c(0.5, float("nan"), 30.0)

    def test_invalid_utilisation_rejected(self, lookup_space):
        with pytest.raises(PhysicalRangeError):
            lookup_space.cpu_temp_c(1.5, 100.0, 40.0)


class TestSafeRegion:
    def test_region_points_near_safe_temp(self, lookup_space):
        region = lookup_space.safe_region(0.3, safe_temp_c=62.0,
                                          tolerance_c=1.0)
        assert region
        for point in region:
            assert abs(point.cpu_temp_c - 62.0) <= 1.0
            assert point.utilisation == 0.3

    def test_region_respects_tolerance(self, lookup_space):
        tight = lookup_space.safe_region(0.3, 62.0, tolerance_c=0.5)
        loose = lookup_space.safe_region(0.3, 62.0, tolerance_c=2.0)
        assert len(tight) <= len(loose)

    def test_bad_tolerance_rejected(self, lookup_space):
        with pytest.raises(PhysicalRangeError):
            lookup_space.safe_region(0.3, 62.0, tolerance_c=0.0)

    def test_empty_region_for_unreachable_band(self, lookup_space):
        # No admissible setting pushes an idle CPU to 85 C (the hottest
        # grid point tops out near 77 C).
        assert lookup_space.safe_region(0.0, 85.0, 0.5) == []

    def test_fig13_higher_inlet_for_lower_utilisation(self, lookup_space):
        # Fig. 13: the A_avg region (low u) sits at higher T_warm_in than
        # the A_max region (high u).
        low_u = lookup_space.safe_region(0.2, 62.0, 1.0)
        high_u = lookup_space.safe_region(0.7, 62.0, 1.0)
        assert low_u and high_u
        mean_inlet_low = np.mean([p.inlet_temp_c for p in low_u])
        mean_inlet_high = np.mean([p.inlet_temp_c for p in high_u])
        assert mean_inlet_low > mean_inlet_high

    def test_point_setting_accessor(self, lookup_space):
        region = lookup_space.safe_region(0.3, 62.0, 1.0)
        point = region[0]
        setting = point.setting
        assert setting.flow_l_per_h == point.flow_l_per_h
        assert setting.inlet_temp_c == point.inlet_temp_c


class TestCustomModel:
    def test_space_reflects_model(self):
        # A model with a TEG in the CPU heat path produces a hotter space.
        hot_model = CpuThermalModel(extra_resistance_k_per_w=1.0)
        space = LookupSpace(model=hot_model,
                            utilisation_grid=np.linspace(0, 1, 3),
                            flow_grid=np.array([20.0, 100.0]),
                            inlet_grid=np.linspace(30.0, 50.0, 5))
        base = LookupSpace(utilisation_grid=np.linspace(0, 1, 3),
                           flow_grid=np.array([20.0, 100.0]),
                           inlet_grid=np.linspace(30.0, 50.0, 5))
        assert space.cpu_temp_c(1.0, 20.0, 40.0) > base.cpu_temp_c(
            1.0, 20.0, 40.0) + 50.0


class TestPlaneBatch:
    """plane_temperatures_batch row i == plane_temperatures(u_i), bitwise."""

    def test_rows_match_scalar_planes(self, lookup_space):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=20, deadline=None)
        @given(utils=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1, max_size=6))
        def check(utils):
            cpu_b, out_b = lookup_space.plane_temperatures_batch(utils)
            assert cpu_b.shape == (len(utils), len(lookup_space.flow_grid),
                                   len(lookup_space.inlet_grid))
            for i, u in enumerate(utils):
                cpu, out = lookup_space.plane_temperatures(u)
                assert np.array_equal(cpu_b[i], cpu)
                assert np.array_equal(out_b[i], out)

        check()

    def test_batch_validates_like_scalar(self, lookup_space):
        with pytest.raises(PhysicalRangeError):
            lookup_space.plane_temperatures_batch([0.2, 1.2])
        with pytest.raises(ConfigurationError):
            lookup_space.plane_temperatures_batch([[0.2], [0.4]])


class TestMeasurement:
    """The array-pass build equals one scalar model call per grid point."""

    GRIDS = {
        "default": dict(),
        "config": dict(flow_grid=np.array([20.0, 100.0, 200.0, 300.0]),
                       inlet_grid=np.linspace(20.0, 60.0, 36)),
        "physical-outlet": dict(model=CpuThermalModel(
            outlet_model=OutletDeltaModel(mode="physical"))),
        "custom": dict(
            model=CpuThermalModel(power_scale=1.3,
                                  extra_resistance_k_per_w=0.02),
            utilisation_grid=np.array([0.0, 0.05, 0.33, 0.9, 1.0]),
            flow_grid=np.array([15.0, 37.5, 410.0]),
            inlet_grid=np.array([-5.0, 12.25, 44.4, 88.0])),
    }

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_bitwise_equal_to_scalar_loop(self, name):
        space = LookupSpace(**self.GRIDS[name])
        cpu, outlet = scalar_measurement(space)
        assert space._cpu_temp.tobytes() == cpu.tobytes()
        assert space._outlet_temp.tobytes() == outlet.tobytes()

    def test_config_grid_shape(self):
        space = LookupSpace(**self.GRIDS["config"])
        assert space._cpu_temp.shape == (11, 4, 36)

    @pytest.mark.parametrize("grids", [
        dict(flow_grid=np.array([0.0, 100.0])),
        dict(flow_grid=np.array([-20.0, 100.0])),
        dict(inlet_grid=np.array([20.0, np.nan])),
        dict(inlet_grid=np.array([-15.0, 40.0])),
        dict(inlet_grid=np.array([40.0, 95.0])),
        dict(utilisation_grid=np.array([0.0, 0.5, 1.1])),
    ], ids=["flow-zero", "flow-negative", "inlet-nan", "inlet-cold",
            "inlet-hot", "utilisation-above-one"])
    def test_invalid_grid_points_rejected(self, grids):
        with pytest.raises(PhysicalRangeError):
            LookupSpace(**grids)
