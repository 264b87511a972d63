import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import EagerField
from probesim.fabric import SliceCoord
from probesim.thermal import LaserSpot, ThermalField, relax


def cell_center(field, ix, iy):
    """The center of cell (ix, iy) in um."""
    return ((ix + 0.5) * field.site_pitch_um, (iy + 0.5) * field.site_pitch_um)


def every_cell(width, height, **kwargs):
    """One single-cell field per cell of a width x height grid, row by row.
    Cells do not exchange heat, so together they are the whole grid."""
    return [[ThermalField(SliceCoord(ix, iy), **kwargs) for ix in range(width)]
            for iy in range(height)]


def on_every_cell(fields, name, *args):
    """Call one method of every cell's field with the same arguments; the
    results, row by row."""
    return [[getattr(field, name)(*args) for field in row] for row in fields]


def temperatures(fields):
    """Every cell's temperature elevation, as a (height, width) array."""
    return np.array([[field.delta_t for field in row] for row in fields])


def warm(field, site, power):
    """Hold a spot over a site's cell until that cell settles at
    power * rate * tau; exp(-100) is far below one ulp of it."""
    field.set_spot(LaserSpot(cell_center(field, site.x, site.y), power))
    field.advance(100.0 * field.tau_us)


def test_pure_exponential_decay_everywhere():
    fields = every_cell(8, 8, tau_us=50.0)
    on_every_cell(fields, "set_spot", LaserSpot(cell_center(fields[0][0], 3, 5)))
    on_every_cell(fields, "advance", 5000.0)
    before = temperatures(fields)
    assert before.min() > 0
    on_every_cell(fields, "set_spot", None)
    on_every_cell(fields, "advance", 50.0)
    assert np.allclose(temperatures(fields), before * math.exp(-1.0),
                       rtol=1e-12, atol=0)


def test_steady_state_is_power_times_tau():
    # With a unit power-to-rate scale the closed-form fixed point at the
    # spot center is power * tau.
    field = ThermalField(SliceCoord(4, 4), tau_us=40.0, power_to_rate_k_per_us=1.0)
    field.set_spot(LaserSpot(cell_center(field, 4, 4), power=0.5))
    for _ in range(200):
        field.advance(40.0)
    assert field.delta_t == pytest.approx(0.5 * 40.0, rel=1e-9)


def test_default_scale_peaks_near_twenty_kelvin():
    field = ThermalField(SliceCoord(4, 4))
    field.set_spot(LaserSpot(cell_center(field, 4, 4)))
    for _ in range(200):
        field.advance(50.0)
    assert field.delta_t == pytest.approx(20.0, rel=1e-9)


def test_radial_symmetry():
    fields = every_cell(9, 9, site_pitch_um=10.0)
    on_every_cell(fields, "set_spot", LaserSpot(cell_center(fields[0][0], 4, 4)))
    on_every_cell(fields, "advance", 25.0)
    grid = temperatures(fields)
    assert grid[4, 2] == pytest.approx(grid[4, 6])
    assert grid[2, 4] == pytest.approx(grid[6, 4])
    assert grid[2, 2] == pytest.approx(grid[6, 6])
    assert np.allclose(grid, grid.T, rtol=1e-12, atol=0)


def test_delay_factor_values():
    field = ThermalField(SliceCoord(0, 0), alpha_per_k=0.002)
    assert field.delay_factor(0.0) == 1.0
    assert field.delay_factor(5.0) == pytest.approx(1.01)
    with pytest.raises(ValueError):
        field.delay_factor(-1.0)


def test_delay_factor_non_decreasing():
    field = ThermalField(SliceCoord(0, 0), alpha_per_k=0.002)
    factors = [field.delay_factor(dt) for dt in np.linspace(0, 30, 50)]
    assert all(b >= a for a, b in zip(factors, factors[1:]))


def test_heating_stays_local_with_narrow_spot():
    # Spot sigma of one slice pitch: the opposite corner of the grid sees
    # less than 1e-6 of the peak elevation, which is the corner under the
    # spot.
    fields = every_cell(32, 16, site_pitch_um=10.0)
    on_every_cell(fields, "set_spot",
                  LaserSpot(cell_center(fields[0][0], 0, 0), sigma_um=10.0))
    on_every_cell(fields, "advance", 5000.0)
    grid = temperatures(fields)
    assert grid.argmax() == 0
    assert grid[15, 31] < 1e-6 * grid[0, 0]


def test_total_elevation_never_increases_while_disabled():
    rng = np.random.default_rng(3)
    fields = every_cell(8, 8)
    # An uneven warm start: a raster of random spots.
    on_every_cell(fields, "raster", rng.uniform(0, 80, size=(20, 2)), 1.0, 8.0,
                  30.0)
    on_every_cell(fields, "set_spot", None)
    prev = temperatures(fields)
    assert prev.sum() > 0
    for _ in range(20):
        on_every_cell(fields, "advance", 7.0)
        cur = temperatures(fields)
        assert (cur <= prev).all()
        prev = cur


def test_update_is_step_size_exact():
    # The integrator applies the exact exponential solution, so halving the
    # step changes nothing beyond float error (well under the 1% bound).
    f1 = every_cell(8, 8)
    f2 = every_cell(8, 8)
    spot = LaserSpot((35.0, 35.0))
    on_every_cell(f1, "set_spot", spot)
    on_every_cell(f2, "set_spot", spot)
    for _ in range(10):
        on_every_cell(f1, "advance", 20.0)
    for _ in range(20):
        on_every_cell(f2, "advance", 10.0)
    g1, g2 = temperatures(f1), temperatures(f2)
    assert np.allclose(g1, g2, rtol=1e-12)
    ratio = g1.max() / max(g2.max(), 1e-300)
    assert abs(ratio - 1.0) < 0.01


def test_projection_matches_advance():
    field = ThermalField(SliceCoord(3, 3))
    field.set_spot(LaserSpot((35.0, 35.0)))
    field.advance(13.0)
    start, steady = field.hold()
    held = relax(start, steady, np.exp(-np.array([4.0, 9.0]) / field.tau_us))
    field.advance(4.0)
    assert held[0] == pytest.approx(field.delta_t, rel=1e-12)
    field.advance(5.0)
    assert held[1] == pytest.approx(field.delta_t, rel=1e-12)


def test_nonpositive_dt_rejected():
    field = ThermalField(SliceCoord(0, 0))
    with pytest.raises(ValueError):
        field.advance(0.0)


def test_spot_validation():
    with pytest.raises(ValueError):
        LaserSpot((0, 0), power=-1.0)
    with pytest.raises(ValueError):
        LaserSpot((0, 0), sigma_um=0.0)


def per_dwell_raster(field, centers, power, sigma_um, dwell_us):
    """Reference: set_spot and advance once per dwell; returns the cell's
    temperature at each dwell start."""
    starts = []
    for center in centers:
        starts.append(field.delta_t)
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
    ref = ThermalField(site, tau_us=tau_us)
    field = ThermalField(site, tau_us=tau_us)
    for f in (ref, field):
        warm(f, site, 0.35)  # a warm start state
    ref_starts = per_dwell_raster(ref, centers, 0.8, 6.0, dwell_us)
    starts, steady = field.raster(centers, 0.8, 6.0, dwell_us)
    assert np.array_equal(starts, ref_starts)
    assert field.spot == ref.spot
    assert field.delta_t == ref.delta_t
    # The steady states are those of the per-dwell spots at that cell, and
    # the last one is that of the spot left parked.
    for i in (0, n // 2, n - 1):
        ref.set_spot(LaserSpot(tuple(centers[i]), 0.8, 6.0))
        assert steady[i] == ref.hold()[1][0]
    assert np.array_equal(field.hold()[1], ref.hold()[1])


def test_empty_raster_changes_nothing():
    field = ThermalField(SliceCoord(2, 2))
    warm(field, SliceCoord(2, 2), 0.5)
    before = field.delta_t, field.spot
    starts, steady = field.raster(np.zeros((0, 2)), 1.0, 8.0, 30.0)
    assert starts.size == steady.size == 0
    assert (field.delta_t, field.spot) == before


# -- every cell against the eager reference ------------------------------------

GRID = 8
coords = st.floats(-20.0, 100.0)
powers = st.sampled_from([0.0, 0.3, 1.0])
sigmas = st.floats(2.0, 30.0)
dwells = st.floats(0.5, 300.0)
centers = st.lists(st.tuples(coords, coords), min_size=1, max_size=30).map(np.array)
operations = st.one_of(
    st.tuples(st.just("set_spot"), st.none() | st.builds(
        LaserSpot, st.tuples(coords, coords), powers, sigmas)),
    st.tuples(st.just("advance"), dwells),
    st.tuples(st.just("raster"), centers, powers, sigmas, dwells),
)


@settings(deadline=None, database=None, derandomize=True)
@given(ops=st.lists(operations, max_size=20), tau_us=st.sampled_from([2.0, 50.0]))
def test_every_cell_matches_eager_reference(ops, tau_us):
    # One single-cell field per cell of an 8x8 grid, under random updates.
    # After each, every field's temperature, parked spot and held steady
    # state, and every raster's per-dwell starts and steady states, equal
    # the eager full-grid reference's at that cell, bit for bit.
    fields = every_cell(GRID, GRID, tau_us=tau_us)
    ref = EagerField(SliceCoord(0, 0), GRID, GRID, tau_us=tau_us)
    cells = list(np.ndindex(GRID, GRID))
    for name, *args in ops:
        got = on_every_cell(fields, name, *args)
        if name == "raster":
            starts, steady = ref.raster_grids(*args)
            for iy, ix in cells:
                assert (got[iy][ix][0] == starts[:, iy, ix]).all()
                assert (got[iy][ix][1] == steady[:, iy, ix]).all()
        else:
            getattr(ref, name)(*args)
        assert (temperatures(fields) == ref.grid).all()
        held = np.array([[field.hold()[1][0] for field in row] for row in fields])
        assert (held == ref.source * tau_us).all()
        assert all(field.spot == ref.spot for row in fields for field in row)
