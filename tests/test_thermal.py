import math

import numpy as np
import pytest

from probesim.fabric import SliceCoord
from probesim.thermal import LaserSpot, ThermalField


def test_pure_exponential_decay_everywhere():
    field = ThermalField(8, 8, tau_us=50.0)
    field.delta_t[:] = 1.0
    field.set_spot(None)
    field.advance(50.0)
    assert np.allclose(field.delta_t, math.exp(-1.0))


def test_steady_state_is_power_times_tau():
    # With a unit power-to-rate scale the closed-form fixed point at the
    # spot center is power * tau.
    field = ThermalField(8, 8, tau_us=40.0, power_to_rate_k_per_us=1.0)
    spot = LaserSpot((field._cell_x[4, 4], field._cell_y[4, 4]), power=0.5)
    field.set_spot(spot)
    for _ in range(200):
        field.advance(40.0)
    center = field.delta_t[4, 4]
    assert center == pytest.approx(0.5 * 40.0, rel=1e-9)


def test_default_scale_peaks_near_twenty_kelvin():
    field = ThermalField(8, 8)
    field.set_spot(LaserSpot((field._cell_x[4, 4], field._cell_y[4, 4])))
    for _ in range(200):
        field.advance(50.0)
    assert field.delta_t[4, 4] == pytest.approx(20.0, rel=1e-9)


def test_radial_symmetry():
    field = ThermalField(9, 9, site_pitch_um=10.0)
    cx, cy = field._cell_x[4, 4], field._cell_y[4, 4]
    field.set_spot(LaserSpot((cx, cy)))
    field.advance(25.0)
    assert field.delta_t[4, 2] == pytest.approx(field.delta_t[4, 6])
    assert field.delta_t[2, 4] == pytest.approx(field.delta_t[6, 4])
    assert field.delta_t[2, 2] == pytest.approx(field.delta_t[6, 6])


def test_delay_factor_values():
    field = ThermalField(2, 2, alpha_per_k=0.002)
    assert field.delay_factor(0.0) == 1.0
    assert field.delay_factor(5.0) == pytest.approx(1.01)
    with pytest.raises(ValueError):
        field.delay_factor(-1.0)


def test_delay_factor_non_decreasing():
    field = ThermalField(2, 2, alpha_per_k=0.002)
    factors = [field.delay_factor(dt) for dt in np.linspace(0, 30, 50)]
    assert all(b >= a for a, b in zip(factors, factors[1:]))


def test_heating_stays_local_with_narrow_spot():
    # Spot sigma of one slice pitch: the opposite corner of the grid sees
    # less than 1e-6 of the peak elevation.
    field = ThermalField(32, 16, site_pitch_um=10.0)
    corner = (field._cell_x[0, 0], field._cell_y[0, 0])
    field.set_spot(LaserSpot(corner, sigma_um=10.0))
    for _ in range(100):
        field.advance(50.0)
    peak = field.delta_t[0, 0]
    assert field.delta_t[-1, -1] < 1e-6 * peak


def test_total_elevation_never_increases_while_disabled():
    rng = np.random.default_rng(3)
    field = ThermalField(8, 8)
    field.delta_t[:] = rng.uniform(0, 10, size=(8, 8))
    field.set_spot(None)
    prev = field.total_delta_t()
    for _ in range(20):
        field.advance(7.0)
        cur = field.total_delta_t()
        assert cur <= prev
        prev = cur


def test_update_is_step_size_exact():
    # The integrator applies the exact exponential solution, so halving the
    # step changes nothing beyond float error (well under the 1% bound).
    f1 = ThermalField(8, 8)
    f2 = ThermalField(8, 8)
    spot = LaserSpot((35.0, 35.0))
    f1.set_spot(spot)
    f2.set_spot(spot)
    for _ in range(10):
        f1.advance(20.0)
    for _ in range(20):
        f2.advance(10.0)
    assert np.allclose(f1.delta_t, f2.delta_t, rtol=1e-12)
    ratio = f1.delta_t.max() / max(f2.delta_t.max(), 1e-300)
    assert abs(ratio - 1.0) < 0.01


def test_projection_matches_advance():
    field = ThermalField(8, 8)
    spot = LaserSpot((35.0, 35.0))
    field.set_spot(spot)
    field.advance(13.0)
    projected = field.delta_t_at_um(35.0, 35.0, at_time_us=9.0)
    field.advance(9.0)
    assert projected == pytest.approx(field.delta_t_at_um(35.0, 35.0), rel=1e-12)


def test_vector_projection_matches_advance():
    field = ThermalField(8, 8)
    field.set_spot(LaserSpot((35.0, 35.0)))
    field.advance(13.0)
    site = SliceCoord(3, 3)
    projected = field.project(site, np.array([4.0, 9.0]))
    field.advance(4.0)
    assert projected[0] == pytest.approx(field.delta_t_at_site(site), rel=1e-12)
    field.advance(5.0)
    assert projected[1] == pytest.approx(field.delta_t_at_site(site), rel=1e-12)


def test_nonpositive_dt_rejected():
    field = ThermalField(4, 4)
    with pytest.raises(ValueError):
        field.advance(0.0)


def test_spot_validation():
    with pytest.raises(ValueError):
        LaserSpot((0, 0), power=-1.0)
    with pytest.raises(ValueError):
        LaserSpot((0, 0), sigma_um=0.0)


def test_pgm_dump(tmp_path):
    field = ThermalField(4, 2)
    field.delta_t[0, 0] = 10.0
    path = tmp_path / "field.pgm"
    field.to_pgm(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "4 2"
    assert lines[3].split()[0] == "255"


def per_dwell_raster(field, centers, power, sigma_um, dwell_us, site):
    """Reference: set_spot and advance once per dwell; returns the site
    cell's temperature at each dwell start."""
    starts = []
    for center in centers:
        starts.append(field.delta_t_at_site(site))
        field.set_spot(LaserSpot(tuple(center), power, sigma_um))
        field.advance(dwell_us)
    return np.array(starts)


def raster_centers(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(0, 320, n), rng.uniform(0, 160, n)])


@pytest.mark.parametrize("n, dwell_us, tau_us", [
    (100, 1000.0, 50.0),   # the start state is forgotten
    (100, 20.0, 50.0),     # dwell short against tau: it is remembered
    (600, 1000.0, 50.0),   # more than one block of spot sources
    (3, 1000.0, 50.0),
    (300, 5000.0, 2.0),
])
def test_raster_matches_per_dwell_updates(n, dwell_us, tau_us):
    site = SliceCoord(15, 8)
    centers = raster_centers(n)
    ref = ThermalField(32, 16, tau_us=tau_us)
    ref.delta_t[:] = 7.0  # a warm start state
    field = ThermalField(32, 16, tau_us=tau_us)
    field.delta_t[:] = 7.0
    ref_starts = per_dwell_raster(ref, centers, 0.8, 6.0, dwell_us, site)
    starts, steady = field.raster_cell(site, centers, 0.8, 6.0, dwell_us)
    field.advance_raster(centers, 0.8, 6.0, dwell_us)
    assert np.array_equal(starts, ref_starts)
    assert np.array_equal(field.delta_t, ref.delta_t)
    assert np.array_equal(field._source, ref._source)
    assert field.spot == ref.spot
    # The steady states are those of the per-dwell sources at that cell.
    iy, ix = field._site_cell(site)
    ref.set_spot(LaserSpot(tuple(centers[-1]), 0.8, 6.0))
    assert steady[-1] == ref._source[iy, ix] * tau_us

