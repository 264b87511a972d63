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

from .artifacts import write_pgm
from .fabric import SliceCoord


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


# Dwells a raster replays per block of spot sources in advance_raster().
RASTER_BLOCK_DWELLS = 256


def relax(start, steady, decay):
    """Exact exponential relaxation towards steady: the one thermal update."""
    return steady + (start - steady) * decay


class ThermalField:
    """Per-cell temperature elevation over the slice grid.

    Each cell obeys d(dT)/dt = q * G(r) - dT / tau with G a unit-peak
    Gaussian of the distance r to the spot center and q the deposition rate.
    advance() applies the exact exponential solution of that ODE, so results
    are independent of step size.  ``power_to_rate_k_per_us`` converts spot
    power (model units) into the peak deposition rate; the default makes a
    power-1.0 spot settle at ``peak ~= 0.4 * tau = 20 K``.
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
        self.delta_t = np.zeros((grid_height, grid_width))
        xs = (np.arange(grid_width) + 0.5) * site_pitch_um
        ys = (np.arange(grid_height) + 0.5) * site_pitch_um
        self._cell_x, self._cell_y = np.meshgrid(xs, ys)
        self._source = np.zeros_like(self.delta_t)
        self.spot: LaserSpot | None = None

    @classmethod
    def for_model(cls, model, **kwargs) -> "ThermalField":
        return cls(model.grid_width, model.grid_height, model.site_pitch_um,
                   **kwargs)

    def set_spot(self, spot: LaserSpot | None) -> None:
        """Park (or disable) the heating spot; takes effect on next advance."""
        self.spot = spot
        if spot is None or spot.power == 0.0:
            self._source = np.zeros_like(self.delta_t)
            return
        self._source = self._rates(spot.center_um[0], spot.center_um[1],
                                   spot.power, spot.sigma_um,
                                   self._cell_x, self._cell_y)

    def _rates(self, cx, cy, power: float, sigma_um: float, xs, ys):
        """Deposition rate at cell centers (xs, ys) of a spot at (cx, cy);
        broadcasts over spot centers and cells alike."""
        dx = xs - cx
        dy = ys - cy
        g = np.exp(-(dx * dx + dy * dy) / (2.0 * sigma_um ** 2))
        return power * self.power_to_rate_k_per_us * g

    def advance(self, dt_us: float) -> None:
        """Integrate all cells exactly over dt_us with the current spot."""
        if dt_us <= 0:
            raise ValueError("dt must be > 0")
        steady = self._source * self.tau_us
        self.delta_t = relax(self.delta_t, steady, math.exp(-dt_us / self.tau_us))

    def _cell_index(self, x_um: float, y_um: float) -> tuple[int, int]:
        ix = min(max(int(x_um / self.site_pitch_um), 0), self.grid_width - 1)
        iy = min(max(int(y_um / self.site_pitch_um), 0), self.grid_height - 1)
        return iy, ix

    def _site_cell(self, site) -> tuple[int, int]:
        return self._cell_index((site.x + 0.5) * self.site_pitch_um,
                                (site.y + 0.5) * self.site_pitch_um)

    def project(self, site, dts_us: float | np.ndarray) -> float | np.ndarray:
        """Temperature elevation of a site's cell after each interval in dts_us.

        Applies the exact exponential solution under the current spot
        without mutating the field; valid as long as the spot does not move
        in between.  Vectorised over ``dts_us``.
        """
        iy, ix = self._site_cell(site)
        steady = self._source[iy, ix] * self.tau_us
        return relax(self.delta_t[iy, ix], steady,
                     np.exp(-np.asarray(dts_us) / self.tau_us))

    # -- rasters -------------------------------------------------------------

    def raster_cell(self, site, centers_um: np.ndarray, power: float,
                    sigma_um: float, dwell_us: float) -> tuple[np.ndarray, np.ndarray]:
        """A site's cell over a raster that parks the spot at each center
        for ``dwell_us`` in turn, without mutating the field.

        Returns the cell's temperature elevation at the start of each dwell
        and its steady state under each spot.  These are the values that
        set_spot() and advance() once per dwell would give that cell, float
        op for float op, so project() from a dwell start can be replaced by
        relax(start, steady, exp(-dt / tau)).
        """
        iy, ix = self._site_cell(site)
        steady = self._rates(centers_um[:, 0], centers_um[:, 1], power, sigma_um,
                             self._cell_x[iy, ix], self._cell_y[iy, ix]) * self.tau_us
        decay = math.exp(-dwell_us / self.tau_us)
        starts = []
        x = float(self.delta_t[iy, ix])
        for s in steady.tolist():
            starts.append(x)
            x = relax(x, s, decay)
        return np.array(starts), steady

    def advance_raster(self, centers_um: np.ndarray, power: float,
                       sigma_um: float, dwell_us: float) -> None:
        """Park the spot at each center for ``dwell_us`` in turn.

        Leaves the field exactly as set_spot() and advance() once per dwell
        would, with the last spot parked: the same updates, with the spot
        sources computed RASTER_BLOCK_DWELLS at a time.
        """
        if len(centers_um) == 0:
            return
        decay = math.exp(-dwell_us / self.tau_us)
        grid = self.delta_t
        for start in range(0, len(centers_um), RASTER_BLOCK_DWELLS):
            block = centers_um[start:start + RASTER_BLOCK_DWELLS]
            steady = self._rates(block[:, 0, None, None], block[:, 1, None, None],
                                 power, sigma_um, self._cell_x,
                                 self._cell_y) * self.tau_us
            for s in steady:
                grid = relax(grid, s, decay)
        self.delta_t = grid
        self.set_spot(LaserSpot(tuple(centers_um[-1]), power, sigma_um))

    def delta_t_at_um(self, x_um: float, y_um: float,
                      at_time_us: float | None = None) -> float:
        """Temperature elevation of the cell containing (x, y).

        With ``at_time_us`` set, projects that cell forward by the given
        interval (see project()).
        """
        iy, ix = self._cell_index(x_um, y_um)
        if at_time_us is None or at_time_us == 0.0:
            return float(self.delta_t[iy, ix])
        return float(self.project(SliceCoord(ix, iy), at_time_us))

    def delta_t_at_site(self, site, at_time_us: float | None = None) -> float:
        x = (site.x + 0.5) * self.site_pitch_um
        y = (site.y + 0.5) * self.site_pitch_um
        return self.delta_t_at_um(x, y, at_time_us)

    def delay_factor(self, delta_t_k: float) -> float:
        """Delay multiplier 1 + alpha * dT for a temperature elevation."""
        if delta_t_k < 0:
            raise ValueError("delta T must be >= 0")
        return 1.0 + self.alpha_per_k * delta_t_k

    def total_delta_t(self) -> float:
        return float(self.delta_t.sum())

    def to_pgm(self, path, max_k: float | None = None) -> None:
        """Dump the field as an ASCII portable graymap for debugging."""
        peak = max_k if max_k is not None else max(float(self.delta_t.max()), 1e-12)
        write_pgm(path, self.delta_t, peak)
