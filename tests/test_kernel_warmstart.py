"""The warm-started, constant-hoisted kernel path of the vectorized JART model.

Three guarantees of :mod:`repro.montecarlo.vectorized`:

* the warm-started interface Newton finds the cold-start root within a few
  ulp from any start, and never needs more iterations than the cold start
  from any start at or right of the root — which covers every warm start
  the kernel makes (the temperature only rises within one fixed point);
* a population whose lanes settle after different fixed-point iteration
  counts (so the active set shrinks) agrees with the scalar solver lane for
  lane at 1e-9, and the scalar solver runs each lane's fixed point, pass for
  pass, to 1e-12;
* the direct path (``JartArrayModel.current``), which the crossbar Newton and
  the transient engine differentiate numerically, keeps the seed expression
  order bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import (
    BOLTZMANN_EV_PER_K,
    BOLTZMANN_J_PER_K,
    ELEMENTARY_CHARGE_C,
    RICHARDSON_A_PER_M2K2,
)
from repro.devices import DeviceState, JartVcmModel, solve_operating_point, time_to_switch
from repro.errors import ConvergenceError
from repro.montecarlo import vectorized
from repro.montecarlo.vectorized import (
    JartArrayModel,
    VectorizedJartVcm,
    solve_operating_point_batch,
    time_to_switch_batch,
)
from repro.obs import numerics_capture, telemetry_capture

RTOL = 1e-9


def relative_error(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) / np.maximum(np.abs(b), 1e-30)


def kernel_root(model, voltage, x, temperature, w_start):
    """Root ``w``, unsigned current and Newton iterations of the kernel path."""
    temperature = np.asarray(temperature, dtype=float)
    pack = vectorized._pack(model, None, np.asarray(voltage, dtype=float), np.asarray(x, dtype=float), temperature)
    pack[vectorized._W] = w_start
    with telemetry_capture() as tel:
        current = vectorized._interface_current(pack, temperature, vectorized._NewtonScratch(model.n))
    return pack[vectorized._W].copy(), current, tel.counter_value("mc.kernel.newton_iterations")


def within_ulps(a, b, ulps=4):
    """Few-ulp agreement; below the Newton's absolute tolerance ~1e-300 (a
    subnormal bias) the root is only resolved to that tolerance."""
    return np.all(np.abs(a - b) <= ulps * np.spacing(np.abs(b)) + vectorized._NEWTON_ATOL)


lane = st.tuples(
    st.one_of(st.just(0.0), st.floats(-1.5, 1.5)),  # voltage: zero, negative and positive bias
    st.floats(0.0, 1.0),  # state
    st.floats(250.0, 700.0),  # temperature
    st.floats(0.0, 1.0),  # where the previous iterate's temperature lies in [250 K, T]
    st.floats(0.8, 1.25),  # series-resistance factor
)


class TestWarmStartedNewton:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(lane, min_size=1, max_size=6))
    def test_warm_root_equals_cold_root_in_no_more_iterations(self, lanes):
        voltage, x, temperature, earlier, series = (np.array(column) for column in zip(*lanes))
        previous_temperature = 250.0 + earlier * (temperature - 250.0)
        model = VectorizedJartVcm(len(lanes), overrides={"series_resistance_ohm": 650.0 * series})

        cold_w, cold_current, _ = kernel_root(model, voltage, x, temperature, np.inf)
        # The kernel path's cold start agrees with the direct path.
        direct = model.current(voltage, x, temperature)
        assert np.allclose(np.copysign(cold_current, direct), direct, rtol=1e-13, atol=1e-300)

        previous_w, _, _ = kernel_root(model, voltage, x, previous_temperature, np.inf)
        starts = {
            "previous iterate": previous_w,
            "above the cold bound": cold_w * 2.0 + 1.0,
            "zero": np.zeros(len(lanes)),
        }
        for name, start in starts.items():
            warm_w, warm_current, _ = kernel_root(model, voltage, x, temperature, start)
            assert within_ulps(warm_w, cold_w), name
            # I = i_sat * sinh(w) carries the root's error times w * coth(w).
            assert np.allclose(warm_current, cold_current, rtol=1e-13, atol=1e-300), name

        # Iteration counts per lane: the batch count is the slowest lane's.
        for k in range(len(lanes)):
            one = model.take([k])
            args = (voltage[k : k + 1], x[k : k + 1], temperature[k : k + 1])
            _, _, cold_iterations = kernel_root(one, *args, np.inf)
            for start in (previous_w[k], cold_w[k] * 2.0 + 1.0):
                _, _, warm_iterations = kernel_root(one, *args, start)
                assert warm_iterations <= cold_iterations

    def test_start_above_the_bound_is_the_cold_start_bit_for_bit(self):
        model = VectorizedJartVcm(3)
        voltage, x, temperature = np.array([0.9, -0.4, 0.0]), np.array([1.0, 0.3, 0.5]), np.array([650.0, 300.0, 400.0])
        cold_w, cold_current, cold_iterations = kernel_root(model, voltage, x, temperature, np.inf)
        warm_w, warm_current, warm_iterations = kernel_root(model, voltage, x, temperature, 1e3)
        assert np.array_equal(warm_w, cold_w) and np.array_equal(warm_current, cold_current)
        assert warm_iterations == cold_iterations
        assert cold_w[2] == 0.0 and cold_current[2] == 0.0  # zero bias starts at the root


class TestShrinkingActiveSet:
    def population(self):
        n = 12
        voltage = np.array([1.05, 0.525, 0.3, 0.0, -0.8, 1.0, 0.9, 0.7, -0.4, 1.05, 0.2, 0.6])
        x = np.linspace(0.0, 1.0, n)
        ambient = np.linspace(260.0, 380.0, n)
        crosstalk = np.linspace(0.0, 120.0, n)[::-1]
        model = VectorizedJartVcm(n, overrides={"rth_eff_k_per_w": 2.15e6 * np.linspace(0.05, 1.0, n)})
        return model, voltage, x, ambient, crosstalk

    def test_lanes_settle_at_different_iterations(self):
        model, voltage, x, ambient, crosstalk = self.population()
        passes = set()
        for k in range(model.n):
            with telemetry_capture() as tel:
                solve_operating_point_batch(model.take([k]), voltage[k], x[k], ambient[k], crosstalk[k])
            passes.add(tel.counter_value("mc.kernel.op_iterations"))
        assert len(passes) >= 4, passes

    def test_every_lane_matches_the_scalar_solver(self):
        model, voltage, x, ambient, crosstalk = self.population()
        with telemetry_capture() as tel:
            batch = solve_operating_point_batch(model, voltage, x, ambient, crosstalk)
        assert batch.converged.all()
        assert tel.counter_value("mc.kernel.op_iterations") > 0
        assert tel.counter_value("mc.kernel.newton_iterations") > tel.counter_value("mc.kernel.op_iterations")
        for k in range(model.n):
            scalar = solve_operating_point(
                JartVcmModel(model.scalar_parameters(k)), voltage[k], x[k], ambient[k], crosstalk[k]
            )
            assert relative_error(batch.filament_temperature_k[k], scalar.filament_temperature_k) <= RTOL
            assert relative_error(batch.current_a[k], scalar.current_a) <= RTOL
            assert relative_error(batch.power_w[k], scalar.power_w) <= RTOL

    def test_scalar_settle_is_one_lane_of_the_kernel(self):
        """The scalar solve runs the lane's passes and its hand-over current
        gives the rate ``state_derivative`` solves for itself."""
        model, voltage, x, ambient, crosstalk = self.population()
        for k in range(model.n):
            with telemetry_capture() as tel:
                lane = solve_operating_point_batch(model.take([k]), voltage[k], x[k], ambient[k], crosstalk[k])
            scalar_model = JartVcmModel(model.scalar_parameters(k))
            with telemetry_capture() as scalar_tel:
                scalar = solve_operating_point(scalar_model, voltage[k], x[k], ambient[k], crosstalk[k])
            passes = scalar_tel.counter_value("devices.op_iterations")
            assert passes == tel.counter_value("mc.kernel.op_iterations"), k
            assert scalar_tel.counter_value("devices.newton_iterations") > passes
            assert relative_error(scalar.filament_temperature_k, lane.filament_temperature_k[0]) <= 1e-12
            assert relative_error(scalar.current_a, lane.current_a[0]) <= 1e-12
            assert relative_error(scalar.power_w, lane.power_w[0]) <= 1e-12

            state = DeviceState(x[k], scalar.filament_temperature_k)
            handed_over = scalar_model.state_derivative_at_current(voltage[k], state, scalar.current_a)
            assert relative_error(handed_over, scalar_model.state_derivative(voltage[k], state)) <= 1e-12

    def test_step_short_of_the_refresh_threshold_takes_a_fresh_current(self):
        """This reset lane lands one rounding error short of its target and
        takes a final sub-threshold step with no thermal refresh."""
        args = dict(crosstalk_temperature_k=250.0, max_time_s=1.0, max_dx_per_step=0.031)
        x_start, x_target = 0.6614323300652807, 0.003060451691699384
        batch = time_to_switch_batch(VectorizedJartVcm(1), -0.9, x_start, x_target, **args)
        scalar = time_to_switch(JartVcmModel(), -0.9, x_start, x_target, **args)
        assert batch.switched[0] and scalar.switched
        assert batch.steps[0] == scalar.steps
        assert relative_error(batch.time_s[0], scalar.time_s) <= RTOL
        assert relative_error(batch.final_temperature_k[0], scalar.final_temperature_k) <= RTOL


class TestKernelObservability:
    def test_newton_budget_pressure_reaches_the_watchdog(self, monkeypatch):
        monkeypatch.setattr(vectorized, "_MAX_NEWTON_STEPS", 3)
        with telemetry_capture() as tel, numerics_capture():
            solve_operating_point_batch(VectorizedJartVcm(4), 1.05, 1.0, raise_on_failure=False)
        events = tel.snapshot()["events"]["numerics.iteration_pressure"]
        assert {event["stage"] for event in events} == {"mc.kernel.newton"}
        assert all(event["limit"] == 3 for event in events)

    def test_scalar_pass_budget_pressure_reaches_the_watchdog(self):
        with telemetry_capture() as tel, numerics_capture():
            with pytest.raises(ConvergenceError):
                solve_operating_point(JartVcmModel(), 1.05, 1.0, max_iterations=3)
        events = tel.snapshot()["events"]["numerics.iteration_pressure"]
        assert [(event["stage"], event["iterations"], event["limit"]) for event in events] == [
            ("devices.operating_point", 3, 3)
        ]
        assert tel.counter_value("devices.op_iterations") == 3


# ----------------------------------------------------------------------
# the direct path, pinned to the seed expression order
# ----------------------------------------------------------------------


def seed_current(k, voltage_v, x, temperature_k):
    """The seed's ``VectorizedJartVcm.current``, expression for expression."""
    sign = np.where(voltage_v > 0.0, 1.0, -1.0)
    magnitude = np.abs(voltage_v)
    x = np.clip(x, 0.0, 1.0)
    temperature = np.maximum(temperature_k, 1.0)
    area = np.pi * k.filament_radius_m**2
    concentration = k.n_disc_min_per_m3 + x * (k.n_disc_max_per_m3 - k.n_disc_min_per_m3)
    sigma_disc = k.charge_number * ELEMENTARY_CHARGE_C * k.electron_mobility_m2_per_vs * concentration
    sigma_plug = k.charge_number * ELEMENTARY_CHARGE_C * k.electron_mobility_m2_per_vs * k.n_plug_per_m3
    r_ohmic = (
        k.disc_length_m / (sigma_disc * area)
        + k.plug_length_m / (sigma_plug * area)
        + k.series_resistance_ohm
    )
    barrier_ev = k.barrier_height_ev - k.barrier_lowering_ev * np.clip(x, 0.0, 1.0)
    thermionic = RICHARDSON_A_PER_M2K2 * temperature**2 * area
    i_sat = thermionic * np.exp(-barrier_ev / (BOLTZMANN_EV_PER_K * temperature))
    v_nl = k.interface_voltage_v
    ohmic_sat = r_ohmic * i_sat
    w = np.minimum(magnitude / v_nl, np.arcsinh(magnitude / ohmic_sat))
    for _ in range(80):
        residual = ohmic_sat * np.sinh(w)
        residual += v_nl * w
        residual -= magnitude
        slope = ohmic_sat * np.cosh(w)
        slope += v_nl
        step = residual / slope
        w = w - step
        if not np.any(step > 4e-16 * w + 1e-300):
            break
    return sign * i_sat * np.sinh(w)


def seed_state_derivative(k, voltage_v, x, temperature_k):
    """The seed's ``VectorizedJartVcm.state_derivative``, expression for expression."""
    temperature = np.maximum(temperature_k, 1.0)
    current = seed_current(k, voltage_v, x, temperature)
    sigma_plug = k.charge_number * ELEMENTARY_CHARGE_C * k.electron_mobility_m2_per_vs * k.n_plug_per_m3
    series = k.plug_length_m / (sigma_plug * (np.pi * k.filament_radius_m**2)) + k.series_resistance_ohm
    v_drive = voltage_v - current * series
    coefficient = k.hop_distance_m * k.charge_number * ELEMENTARY_CHARGE_C / (2.0 * BOLTZMANN_J_PER_K * k.disc_length_m)
    field_term = np.sinh(np.minimum(coefficient * np.abs(v_drive) / temperature, 50.0))
    set_rate = k.set_rate_prefactor_per_s * np.exp(-k.activation_energy_ev / (BOLTZMANN_EV_PER_K * temperature)) * field_term
    reset_rate = (
        k.reset_rate_prefactor_per_s
        * np.exp(-k.reset_activation_energy_ev / (BOLTZMANN_EV_PER_K * temperature))
        * field_term
    )
    rate = np.where(voltage_v > 0.0, set_rate, -reset_rate)
    rate = np.where((voltage_v > 0.0) & (x >= 1.0), 0.0, rate)
    rate = np.where((voltage_v < 0.0) & (x <= 0.0), 0.0, rate)
    return np.where(voltage_v == 0.0, 0.0, rate)


@pytest.fixture(scope="module")
def seeded_grid():
    rng = np.random.default_rng(20221)
    shape = (24, 32)
    voltage = rng.uniform(-1.5, 1.5, shape)
    voltage[::5, ::3] = 0.0
    x = rng.uniform(-0.05, 1.05, shape)
    temperature = rng.uniform(250.0, 1100.0, shape)
    return voltage, x, temperature


class TestDirectPathPin:
    def test_nominal_kernel_current_is_the_seed_expression(self, seeded_grid):
        voltage, x, temperature = seeded_grid
        model = JartArrayModel()
        assert np.array_equal(model.current(voltage, x, temperature), seed_current(model.kernel, voltage, x, temperature))

    def test_per_cell_kernel_current_is_the_seed_expression(self, seeded_grid):
        voltage, x, temperature = seeded_grid
        rng = np.random.default_rng(7)
        n = voltage.size
        kernel = VectorizedJartVcm(
            n,
            overrides={
                "series_resistance_ohm": 650.0 * rng.normal(1.0, 0.05, n),
                "filament_radius_m": 15e-9 * rng.normal(1.0, 0.03, n),
                "barrier_height_ev": 0.35 * rng.normal(1.0, 0.02, n),
            },
        )
        got = JartArrayModel(kernel=kernel).current(voltage, x, temperature)
        expected = seed_current(kernel, voltage.ravel(), x.ravel(), temperature.ravel()).reshape(voltage.shape)
        assert np.array_equal(got, expected)
        # take() carries the derived constants lane for lane.
        lanes = np.arange(0, n, 5)
        subset = kernel.take(lanes)
        assert np.array_equal(
            subset.current(voltage.ravel()[lanes], x.ravel()[lanes], temperature.ravel()[lanes]), got.ravel()[lanes]
        )

    def test_state_derivative_is_the_seed_expression(self, seeded_grid):
        voltage, x, temperature = seeded_grid
        model = JartArrayModel()
        assert np.array_equal(
            model.state_derivative(voltage, x, temperature),
            seed_state_derivative(model.kernel, voltage, x, temperature),
        )
