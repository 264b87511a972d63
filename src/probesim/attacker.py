"""Simulated adversary: lock-in raster imaging and point waveform probing.

EOFM rasters the laser over a region, left to right and top to bottom,
dwelling on each pixel while the fabric, heating, sensor, and defense
co-simulate; the pixel value is the magnitude of the correlation between
the local photoresponse and the lock-in reference.  EOP parks the beam on
one node and averages the stimulus-locked waveform over many iterations.
Both inject heat and therefore race the defense in simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .cosim import CoSimulation, ScenarioError
from .fabric import SliceCoord
from .thermal import LaserSpot


@dataclass
class ScanConfig:
    """EOFM raster parameters; region is (x0, y0, x1, y1) in um."""

    region_um: tuple[float, float, float, float] = (0.0, 0.0, 320.0, 160.0)
    pixel_pitch_um: float = 10.0
    dwell_ms: float = 1.0
    target_freq_mhz: float = 1.25
    bandwidth_khz: float = 1.0
    power: float = 1.0
    spot_sigma_um: float = 8.0
    psf_sigma_um: float = 4.0
    noise_sigma: float = 0.04

    def __post_init__(self):
        if self.dwell_ms <= 0 or self.pixel_pitch_um <= 0 or self.target_freq_mhz <= 0:
            raise ScenarioError("dwell, pixel pitch and target freq must be > 0")

    @property
    def dwell_ps(self) -> int:
        return round(self.dwell_ms * 1e9)

    @property
    def n_pixels(self) -> tuple[int, int]:
        x0, y0, x1, y1 = self.region_um
        nx = max(int(round((x1 - x0) / self.pixel_pitch_um)), 1)
        ny = max(int(round((y1 - y0) / self.pixel_pitch_um)), 1)
        return nx, ny


@dataclass
class EofmImage:
    """Lock-in amplitude map with its scan geometry."""

    amplitudes: np.ndarray  # [ny, nx], non-negative
    x0_um: float
    y0_um: float
    pixel_pitch_um: float
    target_freq_mhz: float = 1.25

    @property
    def shape(self) -> tuple[int, int]:
        return self.amplitudes.shape

    def pixel_center_um(self, ix: int, iy: int) -> tuple[float, float]:
        p = self.pixel_pitch_um
        return (self.x0_um + (ix + 0.5) * p, self.y0_um + (iy + 0.5) * p)

    def pixel_for_um(self, x_um: float, y_um: float) -> tuple[int, int]:
        ny, nx = self.amplitudes.shape
        ix = min(max(int((x_um - self.x0_um) / self.pixel_pitch_um), 0), nx - 1)
        iy = min(max(int((y_um - self.y0_um) / self.pixel_pitch_um), 0), ny - 1)
        return ix, iy

    def amplitude_at_um(self, x_um: float, y_um: float) -> float:
        ix, iy = self.pixel_for_um(x_um, y_um)
        return float(self.amplitudes[iy, ix])

    def to_pgm(self, path) -> None:
        peak = max(float(self.amplitudes.max()), 1e-12)
        scaled = np.clip(self.amplitudes / peak * 255.0, 0, 255).astype(int)
        ny, nx = self.amplitudes.shape
        lines = ["P2", f"{nx} {ny}", "255"]
        for row in scaled:
            lines.append(" ".join(str(v) for v in row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_csv(self, path) -> None:
        ny, nx = self.amplitudes.shape
        with open(path, "w") as fh:
            fh.write("x_um,y_um,amplitude\n")
            for iy in range(ny):
                for ix in range(nx):
                    x, y = self.pixel_center_um(ix, iy)
                    fh.write(f"{x:.1f},{y:.1f},{self.amplitudes[iy, ix]:.6f}\n")


@dataclass
class EopTrace:
    """Averaged waveform probe: voltage proxy per sample time."""

    times_ps: np.ndarray
    values: np.ndarray
    iterations: int
    resolution_ps: float

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("time_ps,value\n")
            for t, v in zip(self.times_ps, self.values):
                fh.write(f"{int(t)},{v:.6f}\n")


def eofm_scan(sim: CoSimulation, scan: ScanConfig) -> EofmImage:
    """Raster the region left-to-right, top-to-bottom; one dwell per pixel.

    Per pixel the spot parks at the pixel center and the co-simulation runs
    for the dwell time; the recorded amplitude integrates each defense
    epoch's primitive activity weighted by the fraction of the dwell it
    covered, plus additive measurement noise (clipped at zero).
    """
    x0, y0, x1, y1 = scan.region_um
    fab_w = sim.model.grid_width * sim.model.site_pitch_um
    fab_h = sim.model.grid_height * sim.model.site_pitch_um
    if x0 < 0 or y0 < 0 or x1 > fab_w or y1 > fab_h or x1 <= x0 or y1 <= y0:
        raise ScenarioError(
            f"scan region {scan.region_um} outside fabric {fab_w}x{fab_h} um"
        )
    nx, ny = scan.n_pixels
    dwell_ps = scan.dwell_ps
    image = np.zeros((ny, nx))
    for iy in range(ny):
        cy = y0 + (iy + 0.5) * scan.pixel_pitch_um
        for ix in range(nx):
            cx = x0 + (ix + 0.5) * scan.pixel_pitch_um
            sim.set_spot(LaserSpot((cx, cy), scan.power, scan.spot_sigma_um))
            t_start = sim.t_ps
            sim.advance_for(dwell_ps)
            signal = 0.0
            for s, e, eid in sim.epoch_segments(t_start, t_start + dwell_ps):
                frac = (e - s) / dwell_ps
                signal += frac * sim.activity(eid).signal_at(
                    cx, cy, scan.psf_sigma_um
                )
            noisy = signal + sim.image_rng.normal(0.0, scan.noise_sigma)
            image[iy, ix] = max(noisy, 0.0)
    sim.set_spot(None)
    return EofmImage(image, x0, y0, scan.pixel_pitch_um, scan.target_freq_mhz)


def localize(image: EofmImage, threshold: float,
             model=None) -> list[SliceCoord]:
    """Connected bright components mapped to their nearest slice sites."""
    mask = image.amplitudes >= threshold
    labels, n = ndimage.label(mask)
    sites = []
    pitch = model.site_pitch_um if model is not None else 10.0
    for comp in range(1, n + 1):
        ys, xs = np.nonzero(labels == comp)
        weights = image.amplitudes[ys, xs]
        cx = float(np.average(
            image.x0_um + (xs + 0.5) * image.pixel_pitch_um, weights=weights))
        cy = float(np.average(
            image.y0_um + (ys + 0.5) * image.pixel_pitch_um, weights=weights))
        sites.append(SliceCoord(int(cx / pitch), int(cy / pitch)))
    return sorted(set(sites))


def recover_bits(image: EofmImage, expected_sites_um,
                 threshold: float = 0.5) -> list[int]:
    """Bit i is 1 iff the pixel at the i-th expected site is bright."""
    return [int(image.amplitude_at_um(x, y) >= threshold)
            for (x, y) in expected_sites_um]


def eop_probe(sim: CoSimulation, point_um: tuple[float, float],
              duration_cycles: int, resolution_ps: int = 100,
              iterations: int = 10_000, noise_sigma: float = 1.0,
              power: float = 1.0, spot_sigma_um: float = 8.0) -> EopTrace:
    """Average the probed node's stimulus-locked waveform over many runs.

    Each iteration replays the stimulus from phase zero and samples the
    probed net's logic value at the probing resolution; the beam heats the
    probe point throughout, so the defense races the integration.
    Iteration i starts at ``t0 + i * duration`` and sees the epoch in
    effect then, with every defense event at or before that time applied;
    if the probed slot is vacated mid-attack the later iterations see no
    signal.  Time runs one epoch at a time, so the sum of the clean
    iterations is the epoch-weighted sum of n_e * clean_e over the epochs
    the iterations started in.  The per-sample noise of N iterations of
    N(0, noise_sigma) is one draw of N(0, noise_sigma * sqrt(N)), which is
    exact because a sum of i.i.d. Gaussians is Gaussian.
    """
    fab_w = sim.model.grid_width * sim.model.site_pitch_um
    fab_h = sim.model.grid_height * sim.model.site_pitch_um
    if not (0 <= point_um[0] <= fab_w and 0 <= point_um[1] <= fab_h):
        raise ScenarioError(f"probe point {point_um} outside fabric")
    if iterations < 1 or duration_cycles < 1:
        raise ScenarioError("iterations and duration must be >= 1")
    duration_ps = duration_cycles * sim.cycle_ps
    if not 1 <= resolution_ps <= duration_ps:
        raise ScenarioError(
            f"resolution {resolution_ps} ps must be in 1..{duration_ps} ps "
            "(the probe duration)")
    if noise_sigma < 0 or power < 0:
        raise ScenarioError("noise sigma and power must be >= 0")
    sim.set_spot(LaserSpot(point_um, power, spot_sigma_um))
    n_samples = duration_ps // resolution_ps
    times = np.arange(n_samples, dtype=np.int64) * resolution_ps
    cycle_of_sample = (times // sim.cycle_ps).astype(int)
    accum = np.zeros(n_samples)
    clean_cache: dict[int, np.ndarray] = {}
    # One warmup replay settles the pipeline into its periodic orbit.
    warm_net = sim.resolve_probe_net(*point_um)
    if warm_net is not None:
        sim.cycle_trace(warm_net, duration_cycles)
    t0 = sim.t_ps
    t_end = t0 + iterations * duration_ps
    done = 0
    while done < iterations:
        eid = sim.epoch_id
        clean = clean_cache.get(eid)
        if clean is None:
            net = sim.resolve_probe_net(*point_um)
            if net is None:
                clean = np.zeros(n_samples)
            else:
                per_cycle = sim.cycle_trace(net, duration_cycles)
                clean = per_cycle[cycle_of_sample]
            clean_cache[eid] = clean
        t = sim.advance_to_epoch_change(t_end)
        # Iterations that start before the epoch change ran in this epoch.
        started = -(-(t - t0) // duration_ps)
        accum += (started - done) * clean
        done = started
        sim.advance_to(t0 + done * duration_ps)
    accum += sim.eop_rng.normal(0.0, noise_sigma * np.sqrt(iterations), n_samples)
    sim.set_spot(None)
    return EopTrace(times, accum / iterations, iterations, resolution_ps)


def recover_function(sim: CoSimulation, scan: ScanConfig,
                     input_nets: list[list[str]], output_sites_um,
                     vectors, bit_threshold: float = 0.5) -> dict:
    """Drive input vectors and EOFM-read the output register per vector.

    ``input_nets`` lists, per operand, the external nets for its bits (LSB
    first); ``vectors`` is a list of operand tuples.  Returns the recovered
    (inputs -> output bits) table with outputs as bit strings, MSB first.
    """
    table = {}
    for vec in vectors:
        static = {}
        for operand, nets in zip(vec, input_nets):
            for bit_idx, net in enumerate(nets):
                static[net] = (operand >> bit_idx) & 1
        sim.stimulus.static.update(static)
        sim.invalidate_activity()
        image = eofm_scan(sim, scan)
        bits = recover_bits(image, output_sites_um, bit_threshold)
        table[tuple(vec)] = "".join(str(b) for b in reversed(bits))
    return table
