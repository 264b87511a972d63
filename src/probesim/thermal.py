"""Phenomenological laser-heating model.

A laser spot deposits heat into each grid cell at a rate set by a unit-peak
Gaussian of the distance to the spot center; the temperature elevation of a
cell relaxes exponentially toward the source-balanced steady state.  Cells
do not exchange heat laterally, which keeps the heating strictly local.
Temperature elevation multiplies propagation delays linearly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class LaserSpot:
    """Focused heating spot; power is in model units (see ThermalField)."""

    center_um: tuple[float, float] = (0.0, 0.0)
    power: float = 1.0
    sigma_um: float = 8.0

    def __post_init__(self):
        if self.power < 0:
            raise ValueError("spot power must be >= 0")
        if self.sigma_um <= 0:
            raise ValueError("spot sigma must be > 0")


# What a field holds when no spot is parked: a spot of power 0, under which
# every cell's steady state is exactly 0.0.
_NO_SPOT = LaserSpot(power=0.0)


def relax(start, steady, decay):
    """Exact exponential relaxation towards steady: the one thermal update."""
    return steady + (start - steady) * decay


def _relax_through(x, steady: np.ndarray, decay: float) -> tuple[list, float]:
    """Relax x towards each steady state in turn for one decay each: the
    value before each step, and the value after the last."""
    starts = []
    for s in steady.tolist():
        starts.append(x)
        x = relax(x, s, decay)
    return starts, x


class ThermalField:
    """Temperature elevation of one slice cell: the sensor's.

    The cell obeys d(dT)/dt = q * G(r) - dT / tau with G a unit-peak
    Gaussian of the distance r from the cell's center to the spot center
    and q the deposition rate.  advance() applies the exact exponential
    solution of that ODE, so results are independent of step size.
    ``power_to_rate_k_per_us`` converts spot power (model units) into the
    peak deposition rate; the default makes a power-1.0 spot settle at
    ``peak ~= 0.4 * tau = 20 K``.  Cells do not exchange heat, so a field of
    one cell is exact for that cell, and the sensor reads no other.
    """

    def __init__(self, site, site_pitch_um=10.0, tau_us=50.0, alpha_per_k=0.002,
                 power_to_rate_k_per_us=0.4):
        if tau_us <= 0:
            raise ValueError("tau must be > 0")
        self.site = site
        self.site_pitch_um = site_pitch_um
        self.tau_us = tau_us
        self.alpha_per_k = alpha_per_k
        self.power_to_rate_k_per_us = power_to_rate_k_per_us
        self.delta_t = 0.0
        self.spot: LaserSpot | None = None

    def set_spot(self, spot: LaserSpot | None) -> None:
        """Park (or disable) the heating spot; takes effect on next advance."""
        self.spot = spot

    def _steady(self, centers_um: np.ndarray, power: float,
                sigma_um: float) -> np.ndarray:
        """The cell's steady state under a spot at each center: the
        deposition rate at the cell's center times tau."""
        dx = (self.site.x + 0.5) * self.site_pitch_um - centers_um[:, 0]
        dy = (self.site.y + 0.5) * self.site_pitch_um - centers_um[:, 1]
        g = np.exp(-(dx * dx + dy * dy) / (2.0 * sigma_um ** 2))
        return power * self.power_to_rate_k_per_us * g * self.tau_us

    def _held_steady(self) -> np.ndarray:
        """The cell's steady state under the parked spot, as an array of one
        value."""
        spot = _NO_SPOT if self.spot is None else self.spot
        return self._steady(np.array([spot.center_um], dtype=float),
                            spot.power, spot.sigma_um)

    def hold(self) -> tuple[np.ndarray, np.ndarray]:
        """raster() for one dwell of any length under the parked spot,
        without moving the cell: its temperature now and its steady state,
        as arrays of one value."""
        return np.array([self.delta_t]), self._held_steady()

    def advance(self, dt_us: float) -> None:
        """Integrate the cell exactly over dt_us with the current spot."""
        if dt_us <= 0:
            raise ValueError("dt must be > 0")
        _, self.delta_t = _relax_through(self.delta_t, self._held_steady(),
                                         math.exp(-dt_us / self.tau_us))

    def raster(self, centers_um: np.ndarray, power: float, sigma_um: float,
               dwell_us: float) -> tuple[np.ndarray, np.ndarray]:
        """Park the spot at each center for ``dwell_us`` in turn.

        Returns the cell's temperature elevation at the start of each dwell
        and its steady state under each spot.  Leaves the cell and the
        parked spot as set_spot() and advance() once per dwell would, float
        op for float op, so the cell a time dt into a dwell is
        relax(start, steady, exp(-dt / tau)).
        """
        steady = self._steady(centers_um, power, sigma_um)
        starts, self.delta_t = _relax_through(
            self.delta_t, steady, math.exp(-dwell_us / self.tau_us))
        if len(centers_um):
            self.set_spot(LaserSpot(tuple(centers_um[-1]), power, sigma_um))
        return np.array(starts), steady

    def delay_factor(self, delta_t_k: float) -> float:
        """Delay multiplier 1 + alpha * dT for a temperature elevation."""
        if delta_t_k < 0:
            raise ValueError("delta T must be >= 0")
        return 1.0 + self.alpha_per_k * delta_t_k
