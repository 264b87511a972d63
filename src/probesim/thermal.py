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
        dx = self._cell_x - spot.center_um[0]
        dy = self._cell_y - spot.center_um[1]
        g = np.exp(-(dx * dx + dy * dy) / (2.0 * spot.sigma_um ** 2))
        self._source = spot.power * self.power_to_rate_k_per_us * g

    def advance(self, dt_us: float) -> None:
        """Integrate all cells exactly over dt_us with the current spot."""
        if dt_us <= 0:
            raise ValueError("dt must be > 0")
        steady = self._source * self.tau_us
        decay = math.exp(-dt_us / self.tau_us)
        self.delta_t = steady + (self.delta_t - steady) * decay

    def _cell_index(self, x_um: float, y_um: float) -> tuple[int, int]:
        ix = min(max(int(x_um / self.site_pitch_um), 0), self.grid_width - 1)
        iy = min(max(int(y_um / self.site_pitch_um), 0), self.grid_height - 1)
        return iy, ix

    def project(self, site, dts_us: float | np.ndarray) -> float | np.ndarray:
        """Temperature elevation of a site's cell after each interval in dts_us.

        Applies the exact exponential solution under the current spot
        without mutating the field; valid as long as the spot does not move
        in between.  Vectorised over ``dts_us``.
        """
        iy, ix = self._cell_index((site.x + 0.5) * self.site_pitch_um,
                                  (site.y + 0.5) * self.site_pitch_um)
        now = self.delta_t[iy, ix]
        steady = self._source[iy, ix] * self.tau_us
        return steady + (now - steady) * np.exp(-np.asarray(dts_us) / self.tau_us)

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
        scaled = np.clip(self.delta_t / peak * 255.0, 0, 255).astype(int)
        lines = [f"P2", f"{self.grid_width} {self.grid_height}", "255"]
        for row in scaled:
            lines.append(" ".join(str(v) for v in row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
