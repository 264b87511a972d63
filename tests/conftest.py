import math

import numpy as np
import pytest
from hypothesis import settings

from probesim import cosim, harness
from probesim.cosim import CoSimulation, Stimulus, stimulus_for_target_freq
from probesim.defense import DefensePolicy
from probesim.fabric import FabricModel, FlipFlop, SliceCoord
from probesim.sensor import SensorInstance, TuneValue
from probesim.thermal import LaserSpot, ThermalField, relax

# A longer run of the property tests, for CI:
#   python -m pytest tests/test_artifacts.py --hypothesis-profile=ci
#   python -m pytest tests/test_sensor.py::TestTune::test_tune_equals_scalar_reference \
#       --hypothesis-profile=ci
#   python -m pytest tests/test_thermal.py::test_every_cell_matches_eager_reference \
#       --hypothesis-profile=ci
#   python -m pytest tests/test_harness.py::TestScenarioReader::test_matches_configparser \
#       --hypothesis-profile=ci
# Tier-1 runs the default profile.
settings.register_profile("ci", max_examples=1000, deadline=None)

# Tune value recorded from the default-parameter search at seed 1 under the
# earlier generator-stream tuner; slack is 66 ps (4.4 sigma), zero rate ~5e-6
# per sample.
DEFAULT_TUNE = TuneValue(16, 2, 2)


def clear_caches():
    """Empty every cache a process keeps between runs."""
    harness.ARM_CACHE.clear()
    cosim.STREAM_CACHE.clear()
    cosim.LOG_CACHE.clear()


@pytest.fixture(autouse=True)
def empty_caches():
    """Each test arms its sensors, draws its window streams and writes its
    counter logs afresh: a test that patches a step of the draw, such as
    _stretch_p0, sees it run rather than a cached result of an earlier
    test."""
    clear_caches()


def build_key_model(key=(1, 0, 1, 1, 0, 0, 0, 1), x0=16, y=8):
    model = FabricModel()
    model.add_input("rst")
    for i in range(len(key)):
        model.add_input(f"kd{i}")
        model.add_ff(FlipFlop(f"k{i}", d=f"kd{i}", q=f"k{i}_q", rst="rst",
                              site=SliceCoord(x0 + i, y), slot=1))
    model.set_protected([f"k{i}" for i in range(len(key))])
    model.validate()
    return model


def build_shift_model(n=8, x0=14, y=5):
    model = FabricModel()
    model.add_input("rst")
    model.add_input("sin")
    prev = "sin"
    for i in range(n):
        model.add_ff(FlipFlop(f"s{i}", d=prev, q=f"s{i}_q", rst="rst",
                              site=SliceCoord(x0 + i, y), slot=1))
        prev = f"s{i}_q"
    model.set_protected([f"s{i}" for i in range(n)])
    model.validate()
    return model


def shift_stimulus(pattern, static=None):
    """A bit string fed into the shift register input ``sin``."""
    return Stimulus("sin", tuple(int(b) for b in pattern), static or {})


def build_sim(model, key=None, policy=None, seed=1, stimulus=None,
              sensor_site=SliceCoord(15, 8)):
    sensor = SensorInstance(site=sensor_site, tune=DEFAULT_TUNE)
    thermal = ThermalField(sensor_site, model.site_pitch_um)
    policy = policy or DefensePolicy(mode="none", threshold=3.0)
    if policy.threshold is None:
        policy.threshold = 3.0
    if stimulus is None:
        static = {}
        if key is not None:
            static = {f"kd{i}": b for i, b in enumerate(key)}
        stimulus = stimulus_for_target_freq(sensor.clock_mhz, 1.25, static)
    return CoSimulation(model, thermal, sensor, policy, stimulus, seed)


@pytest.fixture
def key_sim():
    key = (1, 0, 1, 1, 0, 0, 0, 1)
    model = build_key_model(key)
    return build_sim(model, key=key), model, key


@pytest.fixture
def shift_sim():
    model = build_shift_model()
    stim = shift_stimulus("10110001")
    return build_sim(model, stimulus=stim, sensor_site=SliceCoord(13, 5)), model


def advance_for(sim, duration_ps):
    """Advance a co-simulation by a duration from its current time."""
    sim.advance_to(sim.t_ps + duration_ps)


def window_counts(sim):
    """Zero count of every window of a co-simulation so far, in window
    order: its record expanded, as counter_columns() expands it, with no
    draw of max pulses."""
    counts = np.zeros(sim.windows_done, dtype=np.int64)
    for start, offsets, nonzero in sim.record:
        counts[start:][offsets] = nonzero
    return counts


def counter_rows(sim):
    """A co-simulation's counter log as one (windows, 4) int64 array with
    columns window index, zero count, max pulse and latched flag."""
    index, counts, pulses, latched = sim.counter_columns()
    return np.column_stack([np.arange(len(index)), counts, pulses, latched])


def signal_at(activity, x_um, y_um, psf_sigma_um):
    """Lock-in amplitude of an epoch's activity at one probe point."""
    return float(activity.signals(np.array([x_um]), np.array([y_um]),
                                  psf_sigma_um)[0])


class EagerField:
    """Reference thermal field: every update is applied to every cell of the
    grid when it is made, with a raster as one set_spot and one advance per
    dwell.  It has a ThermalField's interface at a chosen site, so a
    CoSimulation can run on it; ``grid`` holds every cell."""

    def __init__(self, site, grid_width=32, grid_height=16, site_pitch_um=10.0,
                 tau_us=50.0, alpha_per_k=0.002, power_to_rate_k_per_us=0.4):
        self.site = site
        self.site_pitch_um = site_pitch_um
        self.tau_us = tau_us
        self.alpha_per_k = alpha_per_k
        self.power_to_rate_k_per_us = power_to_rate_k_per_us
        self.grid = np.zeros((grid_height, grid_width))
        xs = (np.arange(grid_width) + 0.5) * site_pitch_um
        ys = (np.arange(grid_height) + 0.5) * site_pitch_um
        self.cell_x, self.cell_y = np.meshgrid(xs, ys)
        self.source = np.zeros_like(self.grid)
        self.spot = None

    @property
    def delta_t(self):
        return float(self.grid[self.site.y, self.site.x])

    def set_spot(self, spot):
        self.spot = spot
        if spot is None or spot.power == 0.0:
            self.source = np.zeros_like(self.grid)
            return
        dx = self.cell_x - spot.center_um[0]
        dy = self.cell_y - spot.center_um[1]
        g = np.exp(-(dx * dx + dy * dy) / (2.0 * spot.sigma_um ** 2))
        self.source = spot.power * self.power_to_rate_k_per_us * g

    def advance(self, dt_us):
        self.grid = relax(self.grid, self.source * self.tau_us,
                          math.exp(-dt_us / self.tau_us))

    def hold(self):
        return (np.array([self.delta_t]),
                np.array([self.source[self.site.y, self.site.x] * self.tau_us]))

    def raster_grids(self, centers_um, power, sigma_um, dwell_us):
        """Every cell's temperature at the start of each dwell and its steady
        state under each spot, as (dwells, height, width) arrays."""
        starts, steady = [], []
        for center in centers_um:
            starts.append(self.grid)
            self.set_spot(LaserSpot(tuple(center), power, sigma_um))
            steady.append(self.source * self.tau_us)
            self.advance(dwell_us)
        shape = (len(starts), *self.grid.shape)
        return np.array(starts).reshape(shape), np.array(steady).reshape(shape)

    def raster(self, centers_um, power, sigma_um, dwell_us):
        starts, steady = self.raster_grids(centers_um, power, sigma_um, dwell_us)
        return starts[:, self.site.y, self.site.x], steady[:, self.site.y, self.site.x]
