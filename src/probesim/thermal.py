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


# Dwells a raster replays per block of spot sources when the grid is
# brought up to date.
RASTER_BLOCK_DWELLS = 256

# Pending updates a field holds before it applies them to the grid unread,
# so a long run of updates that nothing reads keeps a bounded queue.
MAX_PENDING_UPDATES = 1024


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

    Updates are deferred.  advance() and advance_raster() queue a hold or a
    raster; reading or writing ``delta_t`` first applies the queue to the
    whole grid, and the one-cell reads (hold_cell, raster_cell,
    delta_t_at_site) bring only their own cell up to date, remembered per
    cell.  Both apply the same float operations to a cell, so a cell reads
    the same bits either way.
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
        self._grid = np.zeros((grid_height, grid_width))
        # Updates not yet applied to _grid, oldest first: ("hold", source,
        # tau, decay) or ("raster", centers, power, sigma, tau, decay).
        self._pending: list[tuple] = []
        # Cells read since the grid was last brought up to date:
        # (iy, ix) -> (temperature, count of pending updates applied to it).
        self._cells: dict[tuple[int, int], tuple[float, int]] = {}
        xs = (np.arange(grid_width) + 0.5) * site_pitch_um
        ys = (np.arange(grid_height) + 0.5) * site_pitch_um
        self._cell_x, self._cell_y = np.meshgrid(xs, ys)
        self._source = np.zeros_like(self._grid)
        self.spot: LaserSpot | None = None

    @classmethod
    def for_model(cls, model, **kwargs) -> "ThermalField":
        return cls(model.grid_width, model.grid_height, model.site_pitch_um,
                   **kwargs)

    @property
    def delta_t(self) -> np.ndarray:
        """The temperature elevation grid, up to date; writes into it
        change the field."""
        self._apply_pending()
        return self._grid

    @delta_t.setter
    def delta_t(self, grid: np.ndarray) -> None:
        self._grid = grid
        self._pending.clear()
        self._cells.clear()

    def set_spot(self, spot: LaserSpot | None) -> None:
        """Park (or disable) the heating spot; takes effect on next advance."""
        self.spot = spot
        if spot is None or spot.power == 0.0:
            self._source = np.zeros_like(self._grid)
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

    def _cell_steady(self, iy: int, ix: int, centers_um: np.ndarray,
                     power: float, sigma_um: float, tau_us: float) -> np.ndarray:
        """One cell's steady state under a spot at each center."""
        return self._rates(centers_um[:, 0], centers_um[:, 1], power, sigma_um,
                           self._cell_x[iy, ix], self._cell_y[iy, ix]) * tau_us

    def advance(self, dt_us: float) -> None:
        """Integrate all cells exactly over dt_us with the current spot."""
        if dt_us <= 0:
            raise ValueError("dt must be > 0")
        self._queue(("hold", self._source, self.tau_us,
                     math.exp(-dt_us / self.tau_us)))

    def _queue(self, update: tuple) -> None:
        self._pending.append(update)
        if len(self._pending) > MAX_PENDING_UPDATES:
            self._apply_pending()

    def _apply_pending(self) -> None:
        """Apply the pending updates to the whole grid, in order."""
        grid = self._grid
        for kind, *args in self._pending:
            if kind == "hold":
                source, tau_us, decay = args
                grid = relax(grid, source * tau_us, decay)
                continue
            centers, power, sigma_um, tau_us, decay = args
            for start in range(0, len(centers), RASTER_BLOCK_DWELLS):
                block = centers[start:start + RASTER_BLOCK_DWELLS]
                steady = self._rates(block[:, 0, None, None],
                                     block[:, 1, None, None], power, sigma_um,
                                     self._cell_x, self._cell_y) * tau_us
                for s in steady:
                    grid = relax(grid, s, decay)
        self._grid = grid
        self._pending.clear()
        self._cells.clear()

    def _cell(self, iy: int, ix: int) -> float:
        """One cell's temperature elevation, with the pending updates
        applied to that cell alone."""
        x, done = self._cells.get((iy, ix), (None, 0))
        if x is None:
            x = float(self._grid[iy, ix])
        for kind, *args in self._pending[done:]:
            if kind == "hold":
                source, tau_us, decay = args
                x = relax(x, float(source[iy, ix]) * tau_us, decay)
            else:
                centers, power, sigma_um, tau_us, decay = args
                _, x = _relax_through(x, self._cell_steady(
                    iy, ix, centers, power, sigma_um, tau_us), decay)
        self._cells[iy, ix] = (x, len(self._pending))
        return x

    def _site_cell(self, site) -> tuple[int, int]:
        return (min(max(site.y, 0), self.grid_height - 1),
                min(max(site.x, 0), self.grid_width - 1))

    def hold_cell(self, site) -> tuple[np.ndarray, np.ndarray]:
        """raster_cell for one dwell of any length under the parked spot:
        a site's cell now and its steady state, as arrays of one value."""
        iy, ix = self._site_cell(site)
        return (np.array([self._cell(iy, ix)]),
                np.array([self._source[iy, ix] * self.tau_us]))

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
        steady = self._cell_steady(iy, ix, centers_um, power, sigma_um,
                                   self.tau_us)
        starts, _ = _relax_through(self._cell(iy, ix), steady,
                                  math.exp(-dwell_us / self.tau_us))
        return np.array(starts), steady

    def advance_raster(self, centers_um: np.ndarray, power: float,
                       sigma_um: float, dwell_us: float) -> None:
        """Park the spot at each center for ``dwell_us`` in turn.

        Leaves the field exactly as set_spot() and advance() once per dwell
        would, with the last spot parked: the same updates, with the spot
        sources computed RASTER_BLOCK_DWELLS at a time when the grid is
        brought up to date.
        """
        if len(centers_um) == 0:
            return
        self._queue(("raster", np.array(centers_um), power, sigma_um,
                     self.tau_us, math.exp(-dwell_us / self.tau_us)))
        self.set_spot(LaserSpot(tuple(centers_um[-1]), power, sigma_um))

    def delta_t_at_site(self, site) -> float:
        """Temperature elevation of a site's cell."""
        return self._cell(*self._site_cell(site))

    def delay_factor(self, delta_t_k: float) -> float:
        """Delay multiplier 1 + alpha * dT for a temperature elevation."""
        if delta_t_k < 0:
            raise ValueError("delta T must be >= 0")
        return 1.0 + self.alpha_per_k * delta_t_k
