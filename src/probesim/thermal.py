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
    """Per-cell temperature elevation over the slice grid.

    Each cell obeys d(dT)/dt = q * G(r) - dT / tau with G a unit-peak
    Gaussian of the distance r to the spot center and q the deposition rate.
    advance() applies the exact exponential solution of that ODE, so results
    are independent of step size.  ``power_to_rate_k_per_us`` converts spot
    power (model units) into the peak deposition rate; the default makes a
    power-1.0 spot settle at ``peak ~= 0.4 * tau = 20 K``.

    The field is a log of spot schedules.  advance() and advance_raster()
    each append one entry: the spot's centers, power and sigma, and the
    decay of one dwell at each center.  A hold is a schedule of one center.
    A cell is read (hold_cell, raster_cell, delta_t_at_site) by replaying
    the entries it has not seen yet, and the result is remembered per cell,
    so a run, which reads only the sensor's cell, computes no other cell.
    """

    def __init__(self, grid_width=32, grid_height=16, site_pitch_um=10.0,
                 tau_us=50.0, alpha_per_k=0.002, power_to_rate_k_per_us=0.4):
        if tau_us <= 0:
            raise ValueError("tau must be > 0")
        self.grid_width = grid_width
        self.grid_height = grid_height
        self.site_pitch_um = site_pitch_um
        self.tau_us = tau_us
        self.alpha_per_k = alpha_per_k
        self.power_to_rate_k_per_us = power_to_rate_k_per_us
        # Spot schedules, oldest first: (centers, power, sigma_um, decay).
        # Each entry keeps its centers, 16 bytes per dwell.
        self._log: list[tuple[np.ndarray, float, float, float]] = []
        # Cells read so far: (iy, ix) -> (temperature, log entries applied).
        self._cells: dict[tuple[int, int], tuple[float, int]] = {}
        self.spot: LaserSpot | None = None

    @classmethod
    def for_model(cls, model, **kwargs) -> "ThermalField":
        return cls(model.grid_width, model.grid_height, model.site_pitch_um,
                   **kwargs)

    def set_spot(self, spot: LaserSpot | None) -> None:
        """Park (or disable) the heating spot; takes effect on next advance."""
        self.spot = spot

    def _held(self) -> tuple[np.ndarray, float, float]:
        """The parked spot as a schedule of one center: centers, power and
        sigma."""
        spot = _NO_SPOT if self.spot is None else self.spot
        return np.array([spot.center_um], dtype=float), spot.power, spot.sigma_um

    def _steady(self, iy: int, ix: int, centers_um: np.ndarray, power: float,
                sigma_um: float) -> np.ndarray:
        """One cell's steady state under a spot at each center: the
        deposition rate at the cell's center times tau."""
        dx = (ix + 0.5) * self.site_pitch_um - centers_um[:, 0]
        dy = (iy + 0.5) * self.site_pitch_um - centers_um[:, 1]
        g = np.exp(-(dx * dx + dy * dy) / (2.0 * sigma_um ** 2))
        return power * self.power_to_rate_k_per_us * g * self.tau_us

    def advance(self, dt_us: float) -> None:
        """Integrate all cells exactly over dt_us with the current spot."""
        if dt_us <= 0:
            raise ValueError("dt must be > 0")
        self._log.append((*self._held(), math.exp(-dt_us / self.tau_us)))

    def _cell(self, iy: int, ix: int) -> float:
        """One cell's temperature elevation, with the log entries it has
        not seen applied."""
        x, done = self._cells.get((iy, ix), (0.0, 0))
        for centers, power, sigma_um, decay in self._log[done:]:
            _, x = _relax_through(
                x, self._steady(iy, ix, centers, power, sigma_um), decay)
        self._cells[iy, ix] = (x, len(self._log))
        return x

    def _site_cell(self, site) -> tuple[int, int]:
        return (min(max(site.y, 0), self.grid_height - 1),
                min(max(site.x, 0), self.grid_width - 1))

    def hold_cell(self, site) -> tuple[np.ndarray, np.ndarray]:
        """raster_cell for one dwell of any length under the parked spot:
        a site's cell now and its steady state, as arrays of one value."""
        iy, ix = self._site_cell(site)
        return np.array([self._cell(iy, ix)]), self._steady(iy, ix, *self._held())

    # -- rasters -------------------------------------------------------------

    def raster_cell(self, site, centers_um: np.ndarray, power: float,
                    sigma_um: float, dwell_us: float) -> tuple[np.ndarray, np.ndarray]:
        """A site's cell over a raster that parks the spot at each center
        for ``dwell_us`` in turn, without mutating the field.

        Returns the cell's temperature elevation at the start of each dwell
        and its steady state under each spot.  These are the values that
        set_spot() and advance() once per dwell would give that cell, float
        op for float op, so the cell a time dt into a dwell is
        relax(start, steady, exp(-dt / tau)).
        """
        iy, ix = self._site_cell(site)
        steady = self._steady(iy, ix, centers_um, power, sigma_um)
        starts, _ = _relax_through(self._cell(iy, ix), steady,
                                   math.exp(-dwell_us / self.tau_us))
        return np.array(starts), steady

    def advance_raster(self, centers_um: np.ndarray, power: float,
                       sigma_um: float, dwell_us: float) -> None:
        """Park the spot at each center for ``dwell_us`` in turn.

        Leaves the field exactly as set_spot() and advance() once per dwell
        would, with the last spot parked, as one log entry.
        """
        if len(centers_um) == 0:
            return
        self._log.append((np.array(centers_um, dtype=float), power, sigma_um,
                          math.exp(-dwell_us / self.tau_us)))
        self.set_spot(LaserSpot(tuple(centers_um[-1]), power, sigma_um))

    def delta_t_at_site(self, site) -> float:
        """Temperature elevation of a site's cell."""
        return self._cell(*self._site_cell(site))

    def delay_factor(self, delta_t_k: float) -> float:
        """Delay multiplier 1 + alpha * dT for a temperature elevation."""
        if delta_t_k < 0:
            raise ValueError("delta T must be >= 0")
        return 1.0 + self.alpha_per_k * delta_t_k
