"""Switching-kinetics solvers built on top of the device compact models.

These routines answer the questions the attack analysis needs:

* How long does a cell need under a constant bias (and a constant crosstalk
  temperature contribution) until its state crosses a threshold?
* How many rectangular pulses of a given length does that correspond to?

They integrate the state ODE ``dx/dt`` of any :class:`MemristorModel` with an
adaptive step size and a self-consistent filament temperature, i.e. they
capture the positive feedback between state, current, self-heating and
switching rate that makes VCM SET transitions abrupt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..constants import DEFAULT_AMBIENT_TEMPERATURE_K
from ..errors import DeviceModelError
from .base import DeviceState, MemristorModel
from .thermal import solve_operating_point


@dataclass
class SwitchingResult:
    """Outcome of a constant-bias switching-time integration."""

    #: True if the target state was reached within the time budget.
    switched: bool
    #: Time spent under bias until the target was reached (or the budget) [s].
    time_s: float
    #: Final normalised state.
    final_x: float
    #: Final filament temperature [K].
    final_temperature_k: float
    #: Number of integration steps taken (diagnostic).
    steps: int


@dataclass
class StateTrajectoryPoint:
    """One sample of a recorded state trajectory."""

    time_s: float
    x: float
    temperature_k: float
    rate_per_s: float


def time_to_switch(
    model: MemristorModel,
    voltage_v: float,
    x_start: float,
    x_target: float,
    ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K,
    crosstalk_temperature_k: float = 0.0,
    max_time_s: float = 10.0,
    max_dx_per_step: float = 0.02,
    record: Optional[List[StateTrajectoryPoint]] = None,
) -> SwitchingResult:
    """Integrate the state ODE under constant bias until ``x_target`` is hit.

    Args:
        model: Device compact model.
        voltage_v: Constant cell voltage applied while the bias is active.
        x_start: Initial normalised state.
        x_target: Threshold state; the integration stops when crossed.
        ambient_temperature_k: Ambient temperature (paper's T0).
        crosstalk_temperature_k: Additional temperature delivered by the
            crosstalk hub while the bias is active.
        max_time_s: Upper bound on the biased time; beyond it the result is
            reported as not switched.
        max_dx_per_step: Adaptive step control — each step is sized so the
            state moves by at most this amount.
        record: Optional list receiving the sampled trajectory.

    Returns:
        A :class:`SwitchingResult`.
    """
    if not 0.0 <= x_start <= 1.0 or not 0.0 <= x_target <= 1.0:
        raise DeviceModelError("states must lie in [0, 1]")
    if max_time_s <= 0:
        raise DeviceModelError("max_time_s must be positive")

    towards_set = x_target >= x_start
    x = x_start
    time_s = 0.0
    steps = 0
    # Re-solving the electro-thermal operating point every step would be
    # wasteful: the temperature only moves when the state does.  Refresh it
    # whenever the state has moved by more than a quarter step bound, and
    # take the rate from the current it settled at.
    point = solve_operating_point(model, voltage_v, x, ambient_temperature_k, crosstalk_temperature_k)
    temperature, current_a = point.filament_temperature_k, point.current_a
    x_at_last_thermal_solve = x

    while time_s < max_time_s:
        steps += 1
        if abs(x - x_at_last_thermal_solve) > 0.25 * max_dx_per_step:
            point = solve_operating_point(model, voltage_v, x, ambient_temperature_k, crosstalk_temperature_k)
            temperature, current_a = point.filament_temperature_k, point.current_a
            x_at_last_thermal_solve = x
        state = DeviceState(x=x, filament_temperature_k=temperature)
        if x != x_at_last_thermal_solve:
            # A step short of the refresh threshold keeps the temperature but
            # needs the current at the new state.
            current_a = model.current(voltage_v, state)
        rate = model.state_derivative_at_current(voltage_v, state, current_a)
        if record is not None:
            record.append(StateTrajectoryPoint(time_s, x, temperature, rate))
        moving_towards_target = (rate > 0 and towards_set) or (rate < 0 and not towards_set)
        if rate == 0.0 or not moving_towards_target:
            # The bias cannot move the state towards the target at all.
            return SwitchingResult(False, max_time_s, x, temperature, steps)
        remaining = abs(x_target - x)
        if remaining <= 0.0:
            break
        dt = min(max_dx_per_step, remaining) / abs(rate)
        if time_s + dt >= max_time_s:
            dt = max_time_s - time_s
            x = x + math.copysign(min(abs(rate) * dt, remaining), x_target - x)
            time_s = max_time_s
            break
        x = x + math.copysign(min(abs(rate) * dt, remaining), x_target - x)
        time_s += dt
        if (towards_set and x >= x_target) or (not towards_set and x <= x_target):
            break

    switched = (towards_set and x >= x_target) or (not towards_set and x <= x_target)
    return SwitchingResult(switched, time_s, x, temperature, steps)


@dataclass
class PulseCountResult:
    """Outcome of a pulsed switching estimation."""

    #: True if the flip happened within the pulse budget.
    flipped: bool
    #: Number of pulses needed (equals the budget when not flipped).
    pulses: int
    #: Cumulative biased (active) time [s].
    stress_time_s: float
    #: Total campaign time including idle parts of each period [s].
    wall_clock_s: float
    #: Final normalised state of the victim.
    final_x: float
    final_temperature_k: float


def pulses_to_switch(
    model: MemristorModel,
    voltage_v: float,
    pulse_length_s: float,
    x_start: float,
    x_target: float,
    duty_cycle: float = 0.5,
    ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K,
    crosstalk_temperature_k: float = 0.0,
    max_pulses: int = 10_000_000,
) -> PulseCountResult:
    """Count rectangular pulses required to move the state across a threshold.

    The thermal model is quasi-static (the paper extracts *static* crosstalk
    coefficients), so the filament temperature follows the bias instantly and
    relaxes instantly between pulses; state motion therefore only accumulates
    during the active part of each period and the pulse count equals the
    biased switching time divided by the pulse length, with the state
    trajectory integrated through the same adaptive ODE solver as
    :func:`time_to_switch`.
    """
    if pulse_length_s <= 0:
        raise DeviceModelError("pulse_length_s must be positive")
    if max_pulses < 1:
        raise DeviceModelError("max_pulses must be at least 1")
    if not 0.0 < duty_cycle <= 1.0:
        raise DeviceModelError("duty cycle must be in (0, 1]")

    budget_s = pulse_length_s * max_pulses
    result = time_to_switch(
        model,
        voltage_v,
        x_start,
        x_target,
        ambient_temperature_k=ambient_temperature_k,
        crosstalk_temperature_k=crosstalk_temperature_k,
        max_time_s=budget_s,
    )
    if result.switched:
        pulses = max(1, int(math.ceil(result.time_s / pulse_length_s)))
        flipped = True
    else:
        pulses = max_pulses
        flipped = False
    period_s = pulse_length_s / duty_cycle
    return PulseCountResult(
        flipped=flipped,
        pulses=pulses,
        stress_time_s=min(result.time_s, pulses * pulse_length_s),
        wall_clock_s=pulses * period_s,
        final_x=result.final_x,
        final_temperature_k=result.final_temperature_k,
    )
