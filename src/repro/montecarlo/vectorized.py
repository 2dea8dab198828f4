"""NumPy-vectorized counterparts of the scalar device physics.

The scalar stack (:mod:`repro.devices.jart_vcm`, :mod:`repro.devices.thermal`,
:mod:`repro.devices.kinetics`) evaluates one cell at a time in pure Python —
perfect for a single trajectory, hopeless for a 10^4-cell Monte-Carlo
population.  This module re-implements the same algorithms over whole lanes of
cells at once:

* :class:`VectorizedJartVcm` — the JART-style VCM compact model with one
  parameter *array* per physical parameter, so every cell of the population
  can carry its own sampled activation energy, series resistance, ...;
* :func:`solve_operating_point_batch` — the damped fixed-point electro-thermal
  solve of :func:`repro.devices.thermal.solve_operating_point`;
* :func:`time_to_switch_batch` / :func:`pulses_to_switch_batch` — the adaptive
  state-ODE integrators of :mod:`repro.devices.kinetics`.

The batched functions follow the scalar control flow *per lane* (same step
sizes, same thermal-refresh policy, same fixed-point damping and termination
rules), and the innermost interface-current root solve is the same Newton
descent as the scalar :meth:`~repro.devices.jart_vcm.JartVcmModel.current`
(cold start, ~1-ulp stop rule and iteration cap shared with it).  Each lane
therefore reproduces the scalar trajectory to floating-point noise (the
scalar model's libm ``exp``/``sinh``/``asinh`` round differently from
NumPy's by an ulp or two); the test suite validates element-for-element
agreement within 1e-9 relative tolerance.

The interface root is solved in the coordinate ``w = asinh(I / i_sat)``, where
the residual ``f(w) = v_nl * w + r_ohmic * i_sat * sinh(w) - |V|`` is strictly
increasing and convex for w >= 0.  Both ``|V| / v_nl`` and
``asinh(|V| / (r_ohmic * i_sat))`` over-estimate the root (each drops one of the
two positive terms), so Newton started at or below their minimum but right of
the root descends monotonically onto it; a start left of the root lands right
of it after one step (convexity) and descends from there.  Newton stops once
no lane moved by more than ~1 ulp.

Two paths evaluate this root.  Both use the parameter-only lane constants
(filament area, plug and series resistance, concentration span, ...) computed
once per population in :class:`VectorizedJartVcm` and carried through
:meth:`~VectorizedJartVcm.take`:

* The *direct* path, :meth:`VectorizedJartVcm.current` and
  :meth:`~VectorizedJartVcm.state_derivative`, serves the crossbar nodal Newton
  and the transient engine through :class:`JartArrayModel`.  Both take
  finite-difference conductances through it, which amplify a one-ulp change
  of a current into a visible change of a solved voltage, so this path keeps
  its expression order bit for bit: it starts cold, and since a cold start
  only descends it tests the signed step against the stop rule.
* The *kernel* path inside :func:`solve_operating_point_batch` and
  :func:`time_to_switch_batch` solves many currents of the same lanes at a
  fixed bias and state while only the temperature moves.  It computes the
  ohmic resistance and the barrier once per solve, regroups the saturation
  current around the hoisted thermionic prefactor, and warm starts each
  fixed-point iteration's Newton (and the final recompute) from the previous
  iterate's root, clipped to the cold start ``min(|V| / v_nl, asinh(|V| /
  (r_ohmic * i_sat)))``.  The temperature only rises across the damped
  iteration, which only lowers the root, so the clipped previous root lies
  between the new root and the cold start: the monotone descent is shorter,
  never longer.  Any start left of the root still converges (it ascends
  once), which is why this path's stop rule tests ``|step|``.  The kinetics
  integrator takes the cell current of each thermal refresh instead of
  solving it again at the identical ``(V, x, T)``.  The scalar
  :func:`~repro.devices.thermal.solve_operating_point` runs this path one
  lane at a time (:class:`~repro.devices.jart_vcm.JartThermalLane`), and the
  scalar integrators hand its current over the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Optional, Tuple, Union

import numpy as np

from ..constants import (
    BOLTZMANN_EV_PER_K,
    BOLTZMANN_J_PER_K,
    DEFAULT_AMBIENT_TEMPERATURE_K,
    ELEMENTARY_CHARGE_C,
    RICHARDSON_A_PER_M2K2,
)
from ..devices.base import BatchedDeviceModel, MemristorModel
from ..devices.jart_vcm import NEWTON_ATOL, NEWTON_MAX_STEPS, NEWTON_RTOL, JartVcmParameters
from ..devices.thermal import DAMPING as _DAMPING
from ..errors import ConvergenceError, DeviceModelError
from ..obs import get_telemetry, get_watchdog
from ..utils.logging import get_logger

logger = get_logger("montecarlo.vectorized")

ArrayLike = Union[float, np.ndarray]

#: Iteration cap and ~1-ulp termination of the Newton interface-current
#: solve, shared with the scalar model.
_MAX_NEWTON_STEPS = NEWTON_MAX_STEPS
_NEWTON_RTOL = NEWTON_RTOL
_NEWTON_ATOL = NEWTON_ATOL

#: Overflow guard of the sinh field term (matches the scalar model).
_MAX_FIELD_ARGUMENT = 50.0


_PARAMETER_FIELDS = tuple(f.name for f in fields(JartVcmParameters))

#: Parameter-only lane constants derived once per population.
_DERIVED_FIELDS = (
    "filament_area_m2",
    "charge_mobility",
    "disc_span_per_m3",
    "plug_resistance_ohm",
    "plug_series_ohm",
    "field_coefficient_k_per_v",
    "disc_numerator",
    "thermionic_prefactor",
)


def _lanes(value: ArrayLike, n: int, name: str) -> np.ndarray:
    """Broadcast a scalar or (n,)-array to a float64 lane array."""
    array = np.asarray(value, dtype=np.float64)
    if array.ndim == 0:
        return np.full(n, float(array))
    if array.shape != (n,):
        raise DeviceModelError(f"{name} must be a scalar or shape ({n},), got {array.shape}")
    return array.copy()


class VectorizedJartVcm:
    """The JART-style VCM model over a population of cells.

    Every physical parameter is a lane array of shape ``(n,)``; lanes are
    fully independent, so one call evaluates ``n`` distinct sampled devices.
    Built from a nominal :class:`~repro.devices.jart_vcm.JartVcmParameters`
    plus per-field override arrays (sampled values).  The lane arrays are
    read-only after construction: the derived constants are computed from
    them once.
    """

    def __init__(
        self,
        n: int,
        base: Optional[JartVcmParameters] = None,
        overrides: Optional[Mapping[str, ArrayLike]] = None,
    ):
        if n < 1:
            raise DeviceModelError("population size must be at least 1")
        self.n = int(n)
        base = base if base is not None else JartVcmParameters()
        overrides = dict(overrides or {})
        unknown = set(overrides) - set(_PARAMETER_FIELDS)
        if unknown:
            raise DeviceModelError(f"unknown device parameter overrides {sorted(unknown)}")
        for name in _PARAMETER_FIELDS:
            value = overrides.get(name, getattr(base, name))
            setattr(self, name, _lanes(value, self.n, f"device.{name}"))
        self._validate()
        self._derive()

    def _validate(self) -> None:
        """Element-wise mirror of ``JartVcmParameters.__post_init__``."""
        if np.any(self.n_disc_min_per_m3 <= 0) or np.any(self.n_disc_max_per_m3 <= self.n_disc_min_per_m3):
            raise DeviceModelError("need 0 < n_disc_min < n_disc_max in every lane")
        for name in ("filament_radius_m", "disc_length_m", "plug_length_m"):
            if np.any(getattr(self, name) <= 0):
                raise DeviceModelError(f"{name} must be positive in every lane")
        if np.any(self.interface_voltage_v <= 0):
            raise DeviceModelError("interface_voltage_v must be positive in every lane")
        if np.any(self.barrier_lowering_ev >= self.barrier_height_ev):
            raise DeviceModelError("barrier lowering must be smaller than the barrier height in every lane")
        if np.any(self.rth_eff_k_per_w < 0):
            raise DeviceModelError("rth_eff_k_per_w must be non-negative in every lane")
        if np.any(self.activation_energy_ev <= 0) or np.any(self.reset_activation_energy_ev <= 0):
            raise DeviceModelError("activation energies must be positive in every lane")
        if np.any(self.set_rate_prefactor_per_s <= 0) or np.any(self.reset_rate_prefactor_per_s <= 0):
            raise DeviceModelError("kinetic prefactors must be positive in every lane")

    def _derive(self) -> None:
        """The parameter-only lane constants of :data:`_DERIVED_FIELDS`."""
        # Scalar-model expression order: the direct path uses these bit for bit.
        self.filament_area_m2 = np.pi * self.filament_radius_m**2
        self.charge_mobility = self.charge_number * ELEMENTARY_CHARGE_C * self.electron_mobility_m2_per_vs
        self.disc_span_per_m3 = self.n_disc_max_per_m3 - self.n_disc_min_per_m3
        self.plug_resistance_ohm = self.plug_length_m / (
            self.charge_mobility * self.n_plug_per_m3 * self.filament_area_m2
        )
        self.plug_series_ohm = self.plug_resistance_ohm + self.series_resistance_ohm
        self.field_coefficient_k_per_v = (
            self.hop_distance_m
            * self.charge_number
            * ELEMENTARY_CHARGE_C
            / (2.0 * BOLTZMANN_J_PER_K * self.disc_length_m)
        )
        # Regrouped for the kernel path only: r_disc = disc_numerator / N_disc
        # and i_sat = thermionic_prefactor * T^2 * exp(-barrier / kT).
        self.disc_numerator = self.disc_length_m / (self.charge_mobility * self.filament_area_m2)
        self.thermionic_prefactor = RICHARDSON_A_PER_M2K2 * self.filament_area_m2

    # ------------------------------------------------------------------
    # lane management
    # ------------------------------------------------------------------

    def take(self, indices: np.ndarray) -> "VectorizedJartVcm":
        """The population restricted to the given lanes (ascending indices)."""
        if len(indices) == self.n:
            # Ascending unique indices covering every lane are the identity.
            return self
        subset = object.__new__(VectorizedJartVcm)
        subset.n = int(len(indices))
        for name in _PARAMETER_FIELDS + _DERIVED_FIELDS:
            setattr(subset, name, getattr(self, name)[indices])
        return subset

    def scalar_parameters(self, index: int) -> JartVcmParameters:
        """The exact parameter set one lane carries, as a scalar object.

        Used by the validation tests and the scalar reference path to build
        a :class:`~repro.devices.jart_vcm.JartVcmModel` per cell.
        """
        values = {}
        for name in _PARAMETER_FIELDS:
            value = getattr(self, name)[index]
            values[name] = int(value) if name == "charge_number" else float(value)
        return JartVcmParameters(**values)

    @staticmethod
    def clamp_state(x: np.ndarray) -> np.ndarray:
        return np.clip(x, 0.0, 1.0)

    # ------------------------------------------------------------------
    # direct path (scalar expression order, bit for bit)
    # ------------------------------------------------------------------

    def current(self, voltage_v: np.ndarray, x: np.ndarray, temperature_k: np.ndarray) -> np.ndarray:
        """Lane currents [A]: the scalar model's root solve, batched.

        Per lane this is ``JartVcmModel.current`` in its expression order:
        the root of ``v_nl * asinh(I / i_sat) + I * r_ohmic = magnitude`` by
        Newton descent in the interface coordinate ``w`` from the cold start
        (see the module docstring).
        """
        if np.any(np.abs(voltage_v) > 10.0):
            raise DeviceModelError("cell voltage outside the model validity range [-10, 10] V in a lane")
        sign = np.where(voltage_v > 0.0, 1.0, -1.0)
        magnitude = np.abs(voltage_v)
        x = self.clamp_state(x)
        temperature = np.maximum(temperature_k, 1.0)
        sigma = self.charge_mobility * (self.n_disc_min_per_m3 + x * self.disc_span_per_m3)
        r_ohmic = (
            self.disc_length_m / (sigma * self.filament_area_m2)
            + self.plug_resistance_ohm
            + self.series_resistance_ohm
        )
        barrier_ev = self.barrier_height_ev - self.barrier_lowering_ev * x
        thermionic = RICHARDSON_A_PER_M2K2 * temperature**2 * self.filament_area_m2
        i_sat = thermionic * np.exp(-barrier_ev / (BOLTZMANN_EV_PER_K * temperature))
        v_nl = self.interface_voltage_v

        ohmic_sat = r_ohmic * i_sat
        w = np.minimum(magnitude / v_nl, np.arcsinh(magnitude / ohmic_sat))
        sinh_w = np.empty_like(w)
        cosh_w = np.empty_like(w)
        residual = np.empty_like(w)
        slope = np.empty_like(w)
        step = np.empty_like(w)
        for _ in range(_MAX_NEWTON_STEPS):
            np.sinh(w, out=sinh_w)
            np.cosh(w, out=cosh_w)
            # f(w) = v_nl * w + ohmic_sat * sinh(w) - magnitude
            np.multiply(ohmic_sat, sinh_w, out=residual)
            residual += v_nl * w
            residual -= magnitude
            # f'(w) = v_nl + ohmic_sat * cosh(w)
            np.multiply(ohmic_sat, cosh_w, out=slope)
            slope += v_nl
            np.divide(residual, slope, out=step)
            w -= step
            # A cold start descends, so every step is >= 0 up to rounding;
            # zero-bias lanes start exactly at w = 0 with zero residual.
            if not (step > _NEWTON_RTOL * w + _NEWTON_ATOL).any():
                break
        return sign * i_sat * np.sinh(w)

    def state_derivative(
        self, voltage_v: np.ndarray, x: np.ndarray, temperature_k: np.ndarray
    ) -> np.ndarray:
        """dx/dt per lane — thermally activated, field-accelerated hopping."""
        return _hopping_rate(self, None, voltage_v, x, temperature_k, self.current(voltage_v, x, temperature_k))


def _hopping_rate(
    model: VectorizedJartVcm,
    lanes,
    voltage_v: np.ndarray,
    x: np.ndarray,
    temperature_k: np.ndarray,
    current: np.ndarray,
) -> np.ndarray:
    """dx/dt of ``lanes`` (None: all) from a solved cell current.

    The scalar model's expression order.  One exponential serves both bias
    directions: SET constants where the bias is positive, the negated RESET
    prefactor and the RESET energy elsewhere (negation is exact).
    """
    at = slice(None) if lanes is None else lanes
    temperature = np.maximum(temperature_k, 1.0)
    positive = voltage_v > 0.0
    prefactor = np.where(positive, model.set_rate_prefactor_per_s[at], -model.reset_rate_prefactor_per_s[at])
    activation_ev = np.where(positive, model.activation_energy_ev[at], model.reset_activation_energy_ev[at])
    # The driving voltage: the cell voltage minus the plug and series drops.
    v_drive = voltage_v - current * model.plug_series_ohm[at]
    field_argument = np.minimum(
        model.field_coefficient_k_per_v[at] * np.abs(v_drive) / temperature, _MAX_FIELD_ARGUMENT
    )
    rate = prefactor * np.exp(-activation_ev / (BOLTZMANN_EV_PER_K * temperature)) * np.sinh(field_argument)
    # Saturation at the state bounds and the zero-bias dead zone, exactly
    # as the scalar model reports them.
    rate = np.where(positive & (x >= 1.0), 0.0, rate)
    rate = np.where((voltage_v < 0.0) & (x <= 0.0), 0.0, rate)
    return np.where(voltage_v == 0.0, 0.0, rate)


# ----------------------------------------------------------------------
# array-wide batched kernel (single parameter set, arbitrary input shape)
# ----------------------------------------------------------------------


class JartArrayModel(BatchedDeviceModel):
    """The JART VCM kernel as an array-wide :class:`BatchedDeviceModel`.

    Where :class:`VectorizedJartVcm` carries one *sampled* parameter set per
    lane (a Monte-Carlo population), this adapter maps arbitrary-shaped
    array inputs onto kernel lanes — exactly what the crossbar nodal solver
    and the transient engine need to evaluate all ``rows x columns`` devices
    of an array in one call.  Two lane layouts are supported:

    * a single-lane kernel (the default, one nominal parameter set) is
      broadcast against inputs of any shape;
    * a multi-lane kernel (one lane per *cell*, the full-array Monte-Carlo
      path) remaps flattened inputs lane-for-lane: input element ``k`` of the
      raveled array evaluates through kernel lane ``k``.  The crossbar
      netlist enumerates devices in row-major cell order, so lane
      ``row * columns + column`` carries cell ``(row, column)`` both for the
      solver's flat device vectors and for ``(rows, columns)`` maps.

    Conductance uses the inherited finite-difference rule, which mirrors the
    scalar :meth:`~repro.devices.base.MemristorModel.conductance` default
    step-for-step; agreement with the scalar stamp loop is therefore limited
    only by the ~1e-15 current-solve agreement established by this module's
    property tests.
    """

    def __init__(
        self,
        parameters: Optional[JartVcmParameters] = None,
        kernel: Optional[VectorizedJartVcm] = None,
    ):
        if kernel is not None and parameters is not None:
            raise DeviceModelError("give either nominal parameters or a population kernel")
        self._kernel = kernel if kernel is not None else VectorizedJartVcm(1, base=parameters)

    @property
    def kernel(self) -> VectorizedJartVcm:
        """The underlying population kernel."""
        return self._kernel

    def rebind(self, kernel: VectorizedJartVcm) -> None:
        """Swap in a new population kernel (same lane count).

        Lets one solver/crossbar instance be reused across sampled arrays —
        the expensive netlist and Jacobian-structure setup happens once.
        """
        if kernel.n != self._kernel.n:
            raise DeviceModelError(
                f"replacement kernel has {kernel.n} lanes, expected {self._kernel.n}"
            )
        self._kernel = kernel

    def _evaluate(self, fn_name: str, voltage_v, x, temperature_k) -> np.ndarray:
        voltage_v = np.asarray(voltage_v, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        temperature_k = np.asarray(temperature_k, dtype=np.float64)
        fn = getattr(self._kernel, fn_name)
        if self._kernel.n == 1:
            return fn(voltage_v, x, temperature_k)
        voltage_v, x, temperature_k = np.broadcast_arrays(voltage_v, x, temperature_k)
        if voltage_v.size != self._kernel.n:
            raise DeviceModelError(
                f"input of {voltage_v.size} devices does not match the "
                f"{self._kernel.n}-lane per-cell kernel"
            )
        return fn(
            voltage_v.reshape(-1), x.reshape(-1), temperature_k.reshape(-1)
        ).reshape(voltage_v.shape)

    def current(self, voltage_v, x, temperature_k) -> np.ndarray:
        return self._evaluate("current", voltage_v, x, temperature_k)

    def state_derivative(self, voltage_v, x, temperature_k) -> np.ndarray:
        return self._evaluate("state_derivative", voltage_v, x, temperature_k)


class SampledArrayJartModel(MemristorModel):
    """A crossbar whose every cell carries its own sampled JART parameters.

    The parameter-override path of the full-array Monte-Carlo mode: a
    :class:`VectorizedJartVcm` with one lane per cell (row-major) plugs into
    the batched :class:`~repro.circuit.solver.CrossbarSolver` kernel through a
    lane-remapped :class:`JartArrayModel`, so the nodal operating point of a
    *sampled* array is solved with exactly the machinery of the nominal one.
    :meth:`set_population` swaps the sampled lanes in place, letting one
    crossbar/solver (netlist, Jacobian structure, warm start) be reused
    across every sampled array of a population.

    The scalar :class:`~repro.devices.base.MemristorModel` entry points are
    deliberately unavailable — a per-cell model has no single parameter set a
    scalar call could refer to; array consumers go through :meth:`batched`.
    """

    name = "jart_vcm_sampled_array"

    def __init__(self, kernel: VectorizedJartVcm, shape):
        rows, columns = int(shape[0]), int(shape[1])
        if kernel.n != rows * columns:
            raise DeviceModelError(
                f"kernel has {kernel.n} lanes but the {rows}x{columns} array has "
                f"{rows * columns} cells"
            )
        self.shape = (rows, columns)
        self._kernel = kernel

    @property
    def kernel(self) -> VectorizedJartVcm:
        """The per-cell population kernel (lane = row * columns + column)."""
        return self._kernel

    def set_population(self, kernel: VectorizedJartVcm) -> None:
        """Swap the sampled per-cell parameters (same geometry)."""
        rows, columns = self.shape
        if kernel.n != rows * columns:
            raise DeviceModelError(
                f"kernel has {kernel.n} lanes but the {rows}x{columns} array has "
                f"{rows * columns} cells"
            )
        self._kernel = kernel
        self.batched().rebind(kernel)

    def _make_batched(self) -> JartArrayModel:
        return JartArrayModel(kernel=self._kernel)

    def thermal_resistance_k_per_w(self) -> np.ndarray:
        """Per-cell effective thermal resistance map [K/W] (broadcastable)."""
        return self._kernel.rth_eff_k_per_w.reshape(self.shape)

    def current(self, voltage_v: float, state) -> float:
        raise DeviceModelError(
            "SampledArrayJartModel has no scalar current; every cell carries its own "
            "parameters — evaluate through batched()"
        )

    def state_derivative(self, voltage_v: float, state) -> float:
        raise DeviceModelError(
            "SampledArrayJartModel has no scalar state_derivative; evaluate through batched()"
        )


# ----------------------------------------------------------------------
# kernel path: interface root at fixed bias and state
# ----------------------------------------------------------------------

# Rows of the packed per-lane working set of the kernel path.  One array
# holds them all, so retiring converged lanes is one fancy index.
_MAG, _VNL, _LIMIT, _ROHM, _NEG_BARRIER, _PREFACTOR, _RTH, _BASE, _T, _W = range(10)
_ROWS = 10


def _pack(
    model: VectorizedJartVcm, lanes, voltage: np.ndarray, x: np.ndarray, base_temperature: np.ndarray
) -> np.ndarray:
    """The kernel-path working set of ``lanes`` (None: all) at bias ``voltage``, state ``x``.

    The state-only terms (ohmic resistance, barrier) are computed here once
    per solve.  The temperature starts at ``base_temperature`` (ambient plus
    crosstalk) and ``_W`` at +inf, which the clip turns into a cold start.
    """
    magnitude = np.abs(voltage)
    if (magnitude > 10.0).any():
        raise DeviceModelError("cell voltage outside the model validity range [-10, 10] V in a lane")
    at = slice(None) if lanes is None else lanes
    x = np.clip(x, 0.0, 1.0)
    pack = np.empty((_ROWS, magnitude.size))
    pack[_MAG] = magnitude
    pack[_VNL] = model.interface_voltage_v[at]
    np.divide(magnitude, pack[_VNL], out=pack[_LIMIT])
    concentration = model.n_disc_min_per_m3[at] + x * model.disc_span_per_m3[at]
    pack[_ROHM] = model.disc_numerator[at] / concentration + model.plug_series_ohm[at]
    pack[_NEG_BARRIER] = (model.barrier_lowering_ev[at] * x - model.barrier_height_ev[at]) / BOLTZMANN_EV_PER_K
    pack[_PREFACTOR] = model.thermionic_prefactor[at]
    pack[_RTH] = model.rth_eff_k_per_w[at]
    pack[_BASE] = base_temperature
    pack[_T] = base_temperature
    pack[_W] = np.inf
    return pack


class _NewtonScratch:
    """Preallocated in-place buffers of the kernel path's interface Newton."""

    def __init__(self, n: int):
        self._rows = np.empty((5, n))
        self._moved = np.empty(n, dtype=bool)

    def descend(self, w: np.ndarray, ohmic_sat: np.ndarray, v_nl: np.ndarray, magnitude: np.ndarray) -> int:
        """Newton on ``f(w) = v_nl w + ohmic_sat sinh(w) - magnitude`` in place; returns the iterations."""
        m = w.size
        sinh_w, cosh_w, residual, slope, step = self._rows[:, :m]
        moved = self._moved[:m]
        for iteration in range(1, _MAX_NEWTON_STEPS + 1):
            np.sinh(w, out=sinh_w)
            np.cosh(w, out=cosh_w)
            np.multiply(v_nl, w, out=residual)
            np.multiply(ohmic_sat, sinh_w, out=step)
            residual += step
            residual -= magnitude
            np.multiply(ohmic_sat, cosh_w, out=slope)
            slope += v_nl
            np.divide(residual, slope, out=step)
            w -= step
            # |step|: a warm start left of the root ascends on its first step.
            np.abs(step, out=step)
            np.multiply(w, _NEWTON_RTOL, out=slope)
            slope += _NEWTON_ATOL
            np.greater(step, slope, out=moved)
            if not moved.any():
                return iteration
        return _MAX_NEWTON_STEPS


def _interface_current(pack: np.ndarray, temperature: np.ndarray, scratch: _NewtonScratch) -> np.ndarray:
    """Unsigned cell currents of a working set at ``temperature``.

    Warm starts from ``pack[_W]`` clipped to the cold start and leaves the
    new root there.
    """
    temperature = np.maximum(temperature, 1.0)
    i_sat = pack[_NEG_BARRIER] / temperature
    np.exp(i_sat, out=i_sat)
    i_sat *= pack[_PREFACTOR]
    i_sat *= temperature
    i_sat *= temperature
    ohmic_sat = pack[_ROHM] * i_sat
    cold = np.divide(pack[_MAG], ohmic_sat)
    np.arcsinh(cold, out=cold)
    np.minimum(cold, pack[_LIMIT], out=cold)
    w = pack[_W]
    np.minimum(w, cold, out=w)
    iterations = scratch.descend(w, ohmic_sat, pack[_VNL], pack[_MAG])
    tel = get_telemetry()
    if tel.enabled:
        tel.count("mc.kernel.newton_iterations", iterations)
    watchdog = get_watchdog()
    if watchdog.enabled:
        watchdog.check_iterations("mc.kernel.newton", iterations, _MAX_NEWTON_STEPS)
    np.sinh(w, out=cold)
    cold *= i_sat
    return cold


def _settle(
    model: VectorizedJartVcm,
    lanes,
    voltage: np.ndarray,
    x: np.ndarray,
    base_temperature: np.ndarray,
    scratch: _NewtonScratch,
    tolerance_k: float = 0.05,
    max_iterations: int = 200,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scalar solver's damped fixed point over ``lanes`` of ``model``.

    Each lane leaves the working set as soon as its own convergence test
    passes, then all lanes are recomputed at their settled temperature.
    Returns ``(temperature, signed current, converged)``.
    """
    pack = _pack(model, lanes, voltage, x, base_temperature)
    n = pack.shape[1]
    converged = np.zeros(n, dtype=bool)
    work, columns = pack, np.arange(n)
    passes = 0
    while passes < max_iterations:
        passes += 1
        temperature = work[_T]
        power = _interface_current(work, temperature, scratch)
        power *= work[_MAG]
        target = work[_BASE] + work[_RTH] * power
        new_temperature = temperature + _DAMPING * (target - temperature)
        settled = np.abs(new_temperature - temperature) < tolerance_k
        work[_T] = new_temperature
        if settled.any():
            finished = columns[settled]
            pack[_T, finished] = work[_T, settled]
            pack[_W, finished] = work[_W, settled]
            converged[finished] = True
            remaining = ~settled
            if not remaining.any():
                break
            work, columns = work[:, remaining], columns[remaining]
    pack[_T, columns] = work[_T]
    pack[_W, columns] = work[_W]

    # Final recompute at the settled temperature, as the scalar solver does
    # on its converged return.
    current = _interface_current(pack, pack[_T], scratch)
    tel = get_telemetry()
    if tel.enabled:
        tel.count("mc.kernel.op_iterations", passes)
    current[voltage <= 0.0] *= -1.0
    return pack[_T].copy(), current, converged


def _raise_unconverged(voltage: np.ndarray, x: np.ndarray, temperature: np.ndarray, converged: np.ndarray) -> None:
    failed = np.flatnonzero(~converged)
    lane = int(failed[0])
    raise ConvergenceError(
        f"filament temperature did not converge for V={voltage[lane]} V, x={x[lane]} "
        f"(last T={temperature[lane]:.1f} K) in {failed.size} of {converged.size} lanes; "
        "the bias point is likely in thermal runaway"
    )


# ----------------------------------------------------------------------
# electro-thermal operating point
# ----------------------------------------------------------------------


@dataclass
class BatchOperatingPoint:
    """Self-consistent electro-thermal operating points of a population."""

    voltage_v: np.ndarray
    current_a: np.ndarray
    power_w: np.ndarray
    filament_temperature_k: np.ndarray
    ambient_temperature_k: np.ndarray
    crosstalk_temperature_k: np.ndarray
    #: False in lanes whose fixed point failed to settle (thermal runaway).
    converged: np.ndarray

    @property
    def temperature_rise_k(self) -> np.ndarray:
        return self.filament_temperature_k - self.ambient_temperature_k

    @property
    def self_heating_k(self) -> np.ndarray:
        return self.temperature_rise_k - self.crosstalk_temperature_k


def solve_operating_point_batch(
    model: VectorizedJartVcm,
    voltage_v: ArrayLike,
    x: ArrayLike,
    ambient_temperature_k: ArrayLike = DEFAULT_AMBIENT_TEMPERATURE_K,
    crosstalk_temperature_k: ArrayLike = 0.0,
    tolerance_k: float = 0.05,
    max_iterations: int = 200,
    raise_on_failure: bool = True,
) -> BatchOperatingPoint:
    """Batched mirror of :func:`repro.devices.thermal.solve_operating_point`.

    Each lane runs the same damped fixed-point iteration as the scalar solver
    and freezes as soon as its own convergence test passes, so iteration
    counts (and therefore results) match the scalar path lane-for-lane.  With
    ``raise_on_failure=False`` runaway lanes are reported through the
    ``converged`` mask instead of raising, letting population studies keep
    the healthy lanes.
    """
    n = model.n
    voltage = _lanes(voltage_v, n, "voltage_v")
    x = _lanes(x, n, "x")
    ambient = _lanes(ambient_temperature_k, n, "ambient_temperature_k")
    crosstalk = _lanes(crosstalk_temperature_k, n, "crosstalk_temperature_k")

    temperature, current, converged = _settle(
        model, None, voltage, x, ambient + crosstalk, _NewtonScratch(n), tolerance_k, max_iterations
    )
    if not converged.all():
        if raise_on_failure:
            _raise_unconverged(voltage, x, temperature, converged)
        logger.debug("operating-point solve left %d of %d lanes unconverged", n - int(converged.sum()), n)
    return BatchOperatingPoint(
        voltage_v=voltage,
        current_a=current,
        power_w=np.abs(voltage * current),
        filament_temperature_k=temperature,
        ambient_temperature_k=ambient,
        crosstalk_temperature_k=crosstalk,
        converged=converged,
    )


# ----------------------------------------------------------------------
# switching kinetics
# ----------------------------------------------------------------------


@dataclass
class BatchSwitchingResult:
    """Outcome of a batched constant-bias switching-time integration."""

    switched: np.ndarray
    time_s: np.ndarray
    final_x: np.ndarray
    final_temperature_k: np.ndarray
    steps: np.ndarray
    #: False in lanes whose electro-thermal solve failed (excluded lanes).
    converged: np.ndarray


def time_to_switch_batch(
    model: VectorizedJartVcm,
    voltage_v: ArrayLike,
    x_start: ArrayLike,
    x_target: ArrayLike,
    ambient_temperature_k: ArrayLike = DEFAULT_AMBIENT_TEMPERATURE_K,
    crosstalk_temperature_k: ArrayLike = 0.0,
    max_time_s: ArrayLike = 10.0,
    max_dx_per_step: float = 0.02,
    raise_on_failure: bool = True,
) -> BatchSwitchingResult:
    """Batched mirror of :func:`repro.devices.kinetics.time_to_switch`.

    Every lane follows the scalar integrator's control flow: the same
    adaptive step bound, the same lazy thermal refresh (re-solve once the
    state moved by a quarter step bound), the same termination rules.  Lanes
    retire independently; the loop runs until the last lane finishes.
    """
    n = model.n
    voltage = _lanes(voltage_v, n, "voltage_v")
    x = _lanes(x_start, n, "x_start")
    target = _lanes(x_target, n, "x_target")
    ambient = _lanes(ambient_temperature_k, n, "ambient_temperature_k")
    crosstalk = _lanes(crosstalk_temperature_k, n, "crosstalk_temperature_k")
    max_time = _lanes(max_time_s, n, "max_time_s")

    if np.any((x < 0.0) | (x > 1.0)) or np.any((target < 0.0) | (target > 1.0)):
        raise DeviceModelError("states must lie in [0, 1] in every lane")
    if np.any(max_time <= 0):
        raise DeviceModelError("max_time_s must be positive in every lane")

    towards_set = target >= x
    time_s = np.zeros(n)
    steps = np.zeros(n, dtype=np.int64)
    stuck = np.zeros(n, dtype=bool)
    base = ambient + crosstalk
    scratch = _NewtonScratch(n)

    # The cell current of the last thermal solve, valid while x has not moved.
    temperature, current, converged = _settle(model, None, voltage, x, base, scratch)
    if raise_on_failure and not converged.all():
        _raise_unconverged(voltage, x, temperature, converged)
    x_at_last_thermal_solve = x.copy()

    # Lanes whose operating point never settles cannot be integrated; retire
    # them immediately (they stay flagged through the `converged` mask).
    active = converged.copy()

    while True:
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        steps[idx] += 1

        refresh = idx[np.abs(x[idx] - x_at_last_thermal_solve[idx]) > 0.25 * max_dx_per_step]
        if refresh.size:
            solved_t, solved_i, solved = _settle(
                model, refresh, voltage[refresh], x[refresh], base[refresh], scratch
            )
            if raise_on_failure and not solved.all():
                _raise_unconverged(voltage[refresh], x[refresh], solved_t, solved)
            temperature[refresh] = solved_t
            current[refresh] = solved_i
            x_at_last_thermal_solve[refresh] = x[refresh]
            lost = refresh[~solved]
            if lost.size:
                converged[lost] = False
                active[lost] = False
                idx = np.flatnonzero(active)
                if idx.size == 0:
                    break

        # A lane that moved less than the refresh threshold (a step cut short
        # by rounding) keeps its temperature but needs the current at its new
        # state.
        moved = idx[x[idx] != x_at_last_thermal_solve[idx]]
        if moved.size:
            current[moved] = model.take(moved).current(voltage[moved], x[moved], temperature[moved])

        rate = _hopping_rate(model, idx, voltage[idx], x[idx], temperature[idx], current[idx])
        moving = ((rate > 0.0) & towards_set[idx]) | ((rate < 0.0) & ~towards_set[idx])
        blocked = (rate == 0.0) | ~moving
        # The bias cannot move these lanes towards the target at all: the
        # scalar path reports them unswitched with the full time budget.
        lanes_stuck = idx[blocked]
        if lanes_stuck.size:
            stuck[lanes_stuck] = True
            time_s[lanes_stuck] = max_time[lanes_stuck]
            active[lanes_stuck] = False

        go = idx[~blocked]
        if go.size == 0:
            continue
        go_rate = rate[~blocked]
        remaining = np.abs(target[go] - x[go])
        at_target = remaining <= 0.0
        active[go[at_target]] = False

        go = go[~at_target]
        if go.size == 0:
            continue
        go_rate = go_rate[~at_target]
        remaining = remaining[~at_target]
        dt = np.minimum(max_dx_per_step, remaining) / np.abs(go_rate)
        overtime = time_s[go] + dt >= max_time[go]

        over = go[overtime]
        if over.size:
            dt_over = max_time[over] - time_s[over]
            x[over] = x[over] + np.copysign(
                np.minimum(np.abs(go_rate[overtime]) * dt_over, remaining[overtime]),
                target[over] - x[over],
            )
            time_s[over] = max_time[over]
            active[over] = False

        step = go[~overtime]
        if step.size:
            x[step] = x[step] + np.copysign(
                np.minimum(np.abs(go_rate[~overtime]) * dt[~overtime], remaining[~overtime]),
                target[step] - x[step],
            )
            time_s[step] = time_s[step] + dt[~overtime]
            crossed = (towards_set[step] & (x[step] >= target[step])) | (
                ~towards_set[step] & (x[step] <= target[step])
            )
            active[step[crossed]] = False

    switched = (towards_set & (x >= target)) | (~towards_set & (x <= target))
    switched &= ~stuck
    switched &= converged
    return BatchSwitchingResult(
        switched=switched,
        time_s=time_s,
        final_x=x,
        final_temperature_k=temperature,
        steps=steps,
        converged=converged,
    )


@dataclass
class BatchPulseCountResult:
    """Outcome of a batched pulsed switching estimation."""

    flipped: np.ndarray
    pulses: np.ndarray
    stress_time_s: np.ndarray
    wall_clock_s: np.ndarray
    final_x: np.ndarray
    final_temperature_k: np.ndarray
    converged: np.ndarray


def pulses_to_switch_batch(
    model: VectorizedJartVcm,
    voltage_v: ArrayLike,
    pulse_length_s: ArrayLike,
    x_start: ArrayLike,
    x_target: ArrayLike,
    duty_cycle: ArrayLike = 0.5,
    ambient_temperature_k: ArrayLike = DEFAULT_AMBIENT_TEMPERATURE_K,
    crosstalk_temperature_k: ArrayLike = 0.0,
    max_pulses: int = 10_000_000,
    raise_on_failure: bool = True,
) -> BatchPulseCountResult:
    """Batched mirror of :func:`repro.devices.kinetics.pulses_to_switch`."""
    n = model.n
    pulse_length = _lanes(pulse_length_s, n, "pulse_length_s")
    duty = _lanes(duty_cycle, n, "duty_cycle")
    if np.any(pulse_length <= 0):
        raise DeviceModelError("pulse_length_s must be positive in every lane")
    if max_pulses < 1:
        raise DeviceModelError("max_pulses must be at least 1")
    if np.any((duty <= 0.0) | (duty > 1.0)):
        raise DeviceModelError("duty cycle must be in (0, 1] in every lane")

    budget_s = pulse_length * max_pulses
    result = time_to_switch_batch(
        model,
        voltage_v,
        x_start,
        x_target,
        ambient_temperature_k=ambient_temperature_k,
        crosstalk_temperature_k=crosstalk_temperature_k,
        max_time_s=budget_s,
        raise_on_failure=raise_on_failure,
    )
    pulses = np.where(
        result.switched,
        np.maximum(1, np.ceil(result.time_s / pulse_length)).astype(np.int64),
        np.int64(max_pulses),
    )
    period_s = pulse_length / duty
    return BatchPulseCountResult(
        flipped=result.switched,
        pulses=pulses,
        stress_time_s=np.minimum(result.time_s, pulses * pulse_length),
        wall_clock_s=pulses * period_s,
        final_x=result.final_x,
        final_temperature_k=result.final_temperature_k,
        converged=result.converged,
    )
