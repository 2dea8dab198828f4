"""Cell-level self-heating helpers (paper Eq. 6).

The filament temperature of a cell is coupled to its own dissipation: a
hotter filament conducts differently, which changes the dissipated power,
which changes the temperature.  These helpers solve that fixed point so the
rest of the stack can ask for "the quasi-static temperature of this cell
under this bias" without re-implementing the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constants import DEFAULT_AMBIENT_TEMPERATURE_K
from ..errors import ConvergenceError
from ..obs import get_telemetry, get_watchdog
from .base import MemristorModel

#: Damping of the fixed-point update (shared with the vectorized kernel).
DAMPING = 0.6


@dataclass
class ThermalOperatingPoint:
    """Self-consistent electro-thermal operating point of a single cell."""

    voltage_v: float
    current_a: float
    power_w: float
    filament_temperature_k: float
    ambient_temperature_k: float
    crosstalk_temperature_k: float

    @property
    def temperature_rise_k(self) -> float:
        """Temperature rise above ambient, including crosstalk [K]."""
        return self.filament_temperature_k - self.ambient_temperature_k

    @property
    def self_heating_k(self) -> float:
        """Temperature rise caused by the cell's own dissipation only [K]."""
        return self.temperature_rise_k - self.crosstalk_temperature_k


def solve_operating_point(
    model: MemristorModel,
    voltage_v: float,
    x: float,
    ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K,
    crosstalk_temperature_k: float = 0.0,
    tolerance_k: float = 0.05,
    max_iterations: int = 200,
) -> ThermalOperatingPoint:
    """Solve the self-consistent filament temperature of a biased cell.

    Fixed-point iteration on ``T = T_amb + dT_crosstalk + Rth_eff * P(V, x, T)``
    with damping, evaluating the current through the model's
    :meth:`~repro.devices.base.MemristorModel.thermal_lane`; the returned
    current is recomputed at the settled temperature.  Raises
    :class:`ConvergenceError` if the iteration does not settle (which
    indicates thermal runaway beyond the model validity).
    """
    base = ambient_temperature_k + crosstalk_temperature_k
    lane = model.thermal_lane(voltage_v, x)
    current = lane.current
    rth = model.thermal_resistance_k_per_w()
    temperature = base
    passes, settled = 0, False
    for passes in range(1, max_iterations + 1):
        target = base + rth * abs(voltage_v * current(temperature))
        new_temperature = temperature + DAMPING * (target - temperature)
        settled = abs(new_temperature - temperature) < tolerance_k
        temperature = new_temperature
        if settled:
            current_a = current(temperature)
            break
    tel = get_telemetry()
    if tel.enabled:
        tel.count("devices.op_iterations", passes)
        tel.count("devices.newton_iterations", lane.newton_iterations)
    watchdog = get_watchdog()
    if watchdog.enabled:
        watchdog.check_iterations("devices.operating_point", passes, max_iterations)
    if not settled:
        raise ConvergenceError(
            f"filament temperature did not converge for V={voltage_v} V, x={x} "
            f"(last T={temperature:.1f} K); the bias point is likely in thermal runaway"
        )
    return ThermalOperatingPoint(
        voltage_v=voltage_v,
        current_a=current_a,
        power_w=abs(voltage_v * current_a),
        filament_temperature_k=temperature,
        ambient_temperature_k=ambient_temperature_k,
        crosstalk_temperature_k=crosstalk_temperature_k,
    )


def equilibrium_temperature(
    model: MemristorModel,
    voltage_v: float,
    x: float,
    ambient_temperature_k: float = DEFAULT_AMBIENT_TEMPERATURE_K,
    crosstalk_temperature_k: float = 0.0,
) -> float:
    """Convenience wrapper returning only the self-consistent temperature [K]."""
    point = solve_operating_point(
        model,
        voltage_v,
        x,
        ambient_temperature_k=ambient_temperature_k,
        crosstalk_temperature_k=crosstalk_temperature_k,
    )
    return point.filament_temperature_k
