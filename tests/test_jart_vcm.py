"""Tests for the JART-style VCM compact model."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import DeviceState, JartVcmModel, JartVcmParameters
from repro.devices.thermal import solve_operating_point
from repro.errors import DeviceModelError
from repro.montecarlo.vectorized import VectorizedJartVcm


class TestStateMapping:
    def test_disc_concentration_bounds(self, jart_model):
        p = jart_model.parameters
        assert jart_model.disc_concentration(0.0) == pytest.approx(p.n_disc_min_per_m3)
        assert jart_model.disc_concentration(1.0) == pytest.approx(p.n_disc_max_per_m3)

    def test_disc_concentration_clamps(self, jart_model):
        assert jart_model.disc_concentration(-1.0) == pytest.approx(
            jart_model.parameters.n_disc_min_per_m3
        )
        assert jart_model.disc_concentration(2.0) == pytest.approx(
            jart_model.parameters.n_disc_max_per_m3
        )

    def test_normalised_state_inverse(self, jart_model):
        for x in (0.0, 0.25, 0.5, 1.0):
            n = jart_model.disc_concentration(x)
            assert jart_model.normalised_state(n) == pytest.approx(x, abs=1e-9)


class TestResistances:
    def test_lrs_much_smaller_than_hrs(self, jart_model):
        assert jart_model.hrs_resistance_ohm() > 100 * jart_model.lrs_resistance_ohm()

    def test_resistance_window_above_hundred(self, jart_model):
        assert jart_model.resistance_window() > 100.0

    def test_disc_resistance_decreases_with_state(self, jart_model):
        assert jart_model.disc_resistance(1.0) < jart_model.disc_resistance(0.1)

    def test_ohmic_resistance_includes_series(self, jart_model):
        assert jart_model.ohmic_resistance(1.0) > jart_model.parameters.series_resistance_ohm


def bisection_bracket(model, voltage_v, state):
    """The former scalar root solver, kept as an oracle: 60 bisection steps.

    Returns the final bracket ``(low, high)`` of the unsigned current.
    """
    p = model.parameters
    magnitude = abs(voltage_v)
    x = model.clamp_state(state.x)
    temperature = max(state.filament_temperature_k, 1.0)
    r_ohmic = model.ohmic_resistance(x)
    i_sat = model.interface_saturation_current(x, temperature)

    def residual(current_a):
        return p.interface_voltage_v * math.asinh(current_a / i_sat) + current_a * r_ohmic - magnitude

    low, high = 0.0, magnitude / r_ohmic
    for _ in range(60):
        mid = 0.5 * (low + high)
        if residual(mid) > 0.0:
            high = mid
        else:
            low = mid
    return low, high


def root_ulp(model, current_a, state):
    """One ulp of the root coordinate ``w = asinh(I / I_s)``, in amperes.

    Newton resolves ``w`` to ~1 ulp and ``I = I_s sinh(w)`` amplifies that
    by the condition number ``w coth(w) <= max(1, w) + 1``; different libm
    rounding of exp/sinh/asinh therefore moves the current by a few of these.
    """
    x = model.clamp_state(state.x)
    i_sat = model.interface_saturation_current(x, max(state.filament_temperature_k, 1.0))
    w = math.asinh(abs(current_a) / i_sat)
    return float(np.spacing(abs(current_a))) * (1.0 + w)


class TestNewtonRoot:
    """The scalar current is the vectorized direct path's Newton root."""

    ULPS = 8

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
        st.floats(0.0, 1.0),
        st.floats(250.0, 700.0),
    )
    def test_matches_bisection_oracle_and_lanes(self, voltage, x, temperature):
        model = JartVcmModel()
        state = DeviceState(x, temperature)
        current = model.current(voltage, state)
        lane = float(VectorizedJartVcm(1).current(np.array([voltage]), np.array([x]), np.array([temperature]))[0])
        if voltage == 0.0:
            assert current == 0.0 and lane == 0.0
            return
        assert math.copysign(1.0, current) == math.copysign(1.0, voltage)
        tolerance = self.ULPS * root_ulp(model, current, state)
        assert abs(current - lane) <= tolerance
        low, high = bisection_bracket(model, voltage, state)
        assert low - tolerance <= abs(current) <= high + tolerance


class TestCurrent:
    def test_zero_voltage_zero_current(self, jart_model):
        assert jart_model.current(0.0, DeviceState(0.5, 300.0)) == 0.0

    def test_polarity_antisymmetric(self, jart_model):
        state = DeviceState(0.5, 300.0)
        forward = jart_model.current(0.6, state)
        backward = jart_model.current(-0.6, state)
        assert backward == pytest.approx(-forward, rel=1e-6)

    def test_current_increases_with_voltage(self, jart_model):
        state = DeviceState(0.2, 300.0)
        currents = [jart_model.current(v, state) for v in (0.2, 0.4, 0.6, 0.8, 1.0)]
        assert all(b > a for a, b in zip(currents, currents[1:]))

    def test_current_increases_with_state(self, jart_model):
        low = jart_model.current(0.5, DeviceState(0.1, 300.0))
        high = jart_model.current(0.5, DeviceState(0.9, 300.0))
        assert high > low

    def test_current_increases_with_temperature_in_hrs(self, jart_model):
        cold = jart_model.current(0.5, DeviceState(0.0, 300.0))
        hot = jart_model.current(0.5, DeviceState(0.0, 400.0))
        assert hot > cold

    def test_lrs_current_at_set_voltage_in_expected_range(self, jart_model):
        # The calibration anchors the LRS current at V_SET in the hundreds of
        # microamps (Fig. 2a operating point).
        current = jart_model.current(1.05, DeviceState(1.0, 300.0))
        assert 100e-6 < current < 500e-6

    def test_current_respects_ohmic_bound(self, jart_model):
        state = DeviceState(1.0, 300.0)
        current = jart_model.current(1.05, state)
        assert current < 1.05 / jart_model.ohmic_resistance(1.0)

    def test_rejects_absurd_voltage(self, jart_model):
        with pytest.raises(DeviceModelError):
            jart_model.current(50.0, DeviceState(0.5, 300.0))

    def test_interface_voltage_positive_under_forward_bias(self, jart_model):
        assert jart_model.interface_voltage(0.5, DeviceState(0.0, 300.0)) > 0.0

    def test_driving_voltage_below_cell_voltage(self, jart_model):
        state = DeviceState(1.0, 300.0)
        assert 0.0 < jart_model.driving_voltage(1.05, state) < 1.05


class TestKinetics:
    def test_positive_voltage_sets(self, jart_model):
        state = DeviceState(0.0, 400.0)
        assert jart_model.state_derivative(0.6, state) > 0.0

    def test_negative_voltage_resets(self, jart_model):
        state = DeviceState(1.0, 400.0)
        assert jart_model.state_derivative(-0.6, state) < 0.0

    def test_no_motion_at_zero_bias(self, jart_model):
        assert jart_model.state_derivative(0.0, DeviceState(0.5, 500.0)) == 0.0

    def test_saturated_states_do_not_overshoot(self, jart_model):
        assert jart_model.state_derivative(0.8, DeviceState(1.0, 500.0)) == 0.0
        assert jart_model.state_derivative(-0.8, DeviceState(0.0, 500.0)) == 0.0

    def test_rate_exponential_in_temperature(self, jart_model):
        cold = jart_model.state_derivative(0.525, DeviceState(0.0, 300.0))
        hot = jart_model.state_derivative(0.525, DeviceState(0.0, 375.0))
        assert hot > 100.0 * cold

    def test_rate_strongly_nonlinear_in_voltage(self, jart_model):
        half = jart_model.state_derivative(0.525, DeviceState(0.0, 300.0))
        full = jart_model.state_derivative(1.05, DeviceState(0.0, 300.0))
        assert full > 50.0 * half

    def test_field_coefficient_positive(self, jart_model):
        assert jart_model.parameters.field_coefficient_k_per_v > 1000.0


class TestThermal:
    def test_equilibrium_temperature_matches_fig2a(self, jart_model):
        point = solve_operating_point(jart_model, 1.05, 1.0, 300.0)
        assert 850.0 < point.filament_temperature_k < 1050.0

    def test_half_selected_hrs_cell_barely_heats(self, jart_model):
        point = solve_operating_point(jart_model, 0.525, 0.0, 300.0)
        assert point.self_heating_k < 5.0

    def test_thermal_resistance_exposed(self, jart_model):
        assert jart_model.thermal_resistance_k_per_w() == pytest.approx(
            jart_model.parameters.rth_eff_k_per_w
        )


class TestParameters:
    def test_invalid_concentrations_rejected(self):
        with pytest.raises(DeviceModelError):
            JartVcmParameters(n_disc_min_per_m3=1e27, n_disc_max_per_m3=1e26)

    def test_barrier_lowering_must_stay_below_barrier(self):
        with pytest.raises(DeviceModelError):
            JartVcmParameters(barrier_height_ev=0.3, barrier_lowering_ev=0.3)

    def test_negative_prefactor_rejected(self):
        with pytest.raises(DeviceModelError):
            JartVcmParameters(set_rate_prefactor_per_s=-1.0)

    def test_filament_area(self):
        params = JartVcmParameters(filament_radius_m=10e-9)
        assert params.filament_area_m2 == pytest.approx(math.pi * 1e-16)

    def test_custom_parameters_change_behaviour(self, jart_model):
        slow = JartVcmModel(JartVcmParameters(set_rate_prefactor_per_s=1.2e14))
        state = DeviceState(0.0, 400.0)
        assert slow.state_derivative(0.6, state) < jart_model.state_derivative(0.6, state)
