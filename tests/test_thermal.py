import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import EagerField, field_cells
from probesim.fabric import SliceCoord
from probesim.thermal import LaserSpot, ThermalField, relax


def cell_center(field, ix, iy):
    """The center of cell (ix, iy) in um."""
    return ((ix + 0.5) * field.site_pitch_um, (iy + 0.5) * field.site_pitch_um)


def all_cells(field):
    """Every cell's temperature elevation, as a (height, width) array."""
    return np.array([[field.delta_t_at_site(SliceCoord(ix, iy))
                      for ix in range(field.grid_width)]
                     for iy in range(field.grid_height)])


def warm(field, site, power):
    """Hold a spot over a site's cell until that cell settles at
    power * rate * tau; exp(-100) is far below one ulp of it."""
    field.set_spot(LaserSpot(cell_center(field, site.x, site.y), power))
    field.advance(100.0 * field.tau_us)


def test_pure_exponential_decay_everywhere():
    field = ThermalField(8, 8, tau_us=50.0)
    warm(field, SliceCoord(3, 5), 1.0)
    before = all_cells(field)
    assert before.min() > 0
    field.set_spot(None)
    field.advance(50.0)
    assert np.allclose(all_cells(field), before * math.exp(-1.0),
                       rtol=1e-12, atol=0)


def test_steady_state_is_power_times_tau():
    # With a unit power-to-rate scale the closed-form fixed point at the
    # spot center is power * tau.
    field = ThermalField(8, 8, tau_us=40.0, power_to_rate_k_per_us=1.0)
    field.set_spot(LaserSpot(cell_center(field, 4, 4), power=0.5))
    for _ in range(200):
        field.advance(40.0)
    center = field.delta_t_at_site(SliceCoord(4, 4))
    assert center == pytest.approx(0.5 * 40.0, rel=1e-9)


def test_default_scale_peaks_near_twenty_kelvin():
    field = ThermalField(8, 8)
    field.set_spot(LaserSpot(cell_center(field, 4, 4)))
    for _ in range(200):
        field.advance(50.0)
    assert field.delta_t_at_site(SliceCoord(4, 4)) == pytest.approx(20.0, rel=1e-9)


def test_radial_symmetry():
    field = ThermalField(9, 9, site_pitch_um=10.0)
    field.set_spot(LaserSpot(cell_center(field, 4, 4)))
    field.advance(25.0)
    grid = all_cells(field)
    assert grid[4, 2] == pytest.approx(grid[4, 6])
    assert grid[2, 4] == pytest.approx(grid[6, 4])
    assert grid[2, 2] == pytest.approx(grid[6, 6])


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
    field.set_spot(LaserSpot(cell_center(field, 0, 0), sigma_um=10.0))
    for _ in range(100):
        field.advance(50.0)
    peak = field.delta_t_at_site(SliceCoord(0, 0))
    assert field.delta_t_at_site(SliceCoord(31, 15)) < 1e-6 * peak


def test_total_elevation_never_increases_while_disabled():
    rng = np.random.default_rng(3)
    field = ThermalField(8, 8)
    # An uneven warm start: a raster of random spots.
    field.advance_raster(rng.uniform(0, 80, size=(20, 2)), 1.0, 8.0, 30.0)
    field.set_spot(None)
    prev = all_cells(field).sum()
    assert prev > 0
    for _ in range(20):
        field.advance(7.0)
        cur = all_cells(field).sum()
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
    g1, g2 = all_cells(f1), all_cells(f2)
    assert np.allclose(g1, g2, rtol=1e-12)
    ratio = g1.max() / max(g2.max(), 1e-300)
    assert abs(ratio - 1.0) < 0.01


def test_projection_matches_advance():
    field = ThermalField(8, 8)
    field.set_spot(LaserSpot((35.0, 35.0)))
    field.advance(13.0)
    site = SliceCoord(3, 3)
    start, steady = field.hold_cell(site)
    held = relax(start, steady, np.exp(-np.array([4.0, 9.0]) / field.tau_us))
    field.advance(4.0)
    assert held[0] == pytest.approx(field.delta_t_at_site(site), rel=1e-12)
    field.advance(5.0)
    assert held[1] == pytest.approx(field.delta_t_at_site(site), rel=1e-12)


def test_nonpositive_dt_rejected():
    field = ThermalField(4, 4)
    with pytest.raises(ValueError):
        field.advance(0.0)


def test_spot_validation():
    with pytest.raises(ValueError):
        LaserSpot((0, 0), power=-1.0)
    with pytest.raises(ValueError):
        LaserSpot((0, 0), sigma_um=0.0)


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
    (600, 1000.0, 50.0),
    (3, 1000.0, 50.0),
    (300, 5000.0, 2.0),
])
def test_raster_matches_per_dwell_updates(n, dwell_us, tau_us):
    site = SliceCoord(15, 8)
    centers = raster_centers(n)
    ref = ThermalField(32, 16, tau_us=tau_us)
    field = ThermalField(32, 16, tau_us=tau_us)
    for f in (ref, field):
        warm(f, site, 0.35)  # a warm start state
    ref_starts = per_dwell_raster(ref, centers, 0.8, 6.0, dwell_us, site)
    starts, steady = field.raster_cell(site, centers, 0.8, 6.0, dwell_us)
    field.advance_raster(centers, 0.8, 6.0, dwell_us)
    assert np.array_equal(starts, ref_starts)
    assert field.spot == ref.spot
    assert np.array_equal(field_cells(field, [site], centers[-1]),
                          field_cells(ref, [site], centers[-1]))
    # The steady states are those of the per-dwell spots at that cell, and
    # the last one is that of the spot left parked.
    for i in (0, n // 2, n - 1):
        ref.set_spot(LaserSpot(tuple(centers[i]), 0.8, 6.0))
        assert steady[i] == ref.hold_cell(site)[1][0]
    assert np.array_equal(field.hold_cell(site)[1], ref.hold_cell(site)[1])


# -- the log against the eager reference ----------------------------------------

WIDTH, HEIGHT = 6, 4
coords = st.floats(-20.0, 80.0)
sites = st.builds(SliceCoord, st.integers(0, WIDTH - 1), st.integers(0, HEIGHT - 1))
powers = st.sampled_from([0.0, 0.3, 1.0])
sigmas = st.floats(2.0, 30.0)
dwells = st.floats(0.5, 300.0)
centers = st.lists(st.tuples(coords, coords), min_size=1, max_size=40).map(np.array)
operations = st.one_of(
    st.tuples(st.just("set_spot"), st.none() | st.builds(
        LaserSpot, st.tuples(coords, coords), powers, sigmas)),
    st.tuples(st.just("advance"), dwells),
    st.tuples(st.just("advance_raster"), centers, powers, sigmas, dwells),
    st.tuples(st.just("hold_cell"), sites),
    st.tuples(st.just("raster_cell"), sites, centers, powers, sigmas, dwells),
    st.tuples(st.just("delta_t_at_site"), sites),
    st.tuples(st.just("grid")),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(operations, max_size=30), tau_us=st.sampled_from([2.0, 50.0]))
def test_log_matches_eager_reference(ops, tau_us):
    # Random updates and per-cell reads; every read, and every cell of the
    # grid whenever it is compared and at the end, equal the eager
    # reference's bit for bit.
    field = ThermalField(WIDTH, HEIGHT, tau_us=tau_us)
    ref = EagerField(WIDTH, HEIGHT, tau_us=tau_us)
    for name, *args in ops:
        if name == "grid":
            assert np.array_equal(all_cells(field), ref.delta_t)
            continue
        got = getattr(field, name)(*args)
        want = getattr(ref, name)(*args)
        if name == "raster_cell":
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        elif got is not None:
            assert np.array_equal(got, want), name
    assert np.array_equal(all_cells(field), ref.delta_t)
