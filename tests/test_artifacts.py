"""The bulk artifact writers against per-line reference writers, the
column formatter against one ``%`` per value, and the step cache of the
fabric replays against plain replays."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (build_key_model, build_shift_model, build_sim,
                      shift_stimulus)
from probesim import artifacts
from probesim.artifacts import (CSV_CHUNK_ROWS, format_columns, iter_lines,
                                write_pgm)
from probesim.attacker import EofmImage, EopTrace
from probesim.cosim import CoSimulation, Stimulus
from probesim.fabric import FabricModel, SliceCoord
from probesim.harness import MAX_WINDOWS, load_scenario, run
from probesim.thermal import ThermalField

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "probesim" / "scenarios"


# -- reference writers: one f-string per line ---------------------------------


def per_line_trace_csv(path, trace):
    with open(path, "w") as fh:
        fh.write("time_ps,value\n")
        for t, v in zip(trace.times_ps, trace.values):
            fh.write(f"{int(t)},{v:.6f}\n")


def per_line_stability_csv(path, report):
    with open(path, "w") as fh:
        fh.write("t_us,zero_count,running_max,rolling_avg\n")
        for t, zc, rm, ra in report.series:
            fh.write(f"{t:.1f},{int(zc)},{int(rm)},{ra:.6f}\n")


def per_line_image_csv(path, image):
    ny, nx = image.amplitudes.shape
    with open(path, "w") as fh:
        fh.write("x_um,y_um,amplitude\n")
        for iy in range(ny):
            for ix in range(nx):
                x, y = image.pixel_center_um(ix, iy)
                fh.write(f"{x:.1f},{y:.1f},{image.amplitudes[iy, ix]:.6f}\n")


def per_line_pgm(path, values, peak):
    scaled = np.clip(values / peak * 255.0, 0, 255).astype(int)
    ny, nx = values.shape
    lines = ["P2", f"{nx} {ny}", "255"]
    for row in scaled:
        lines.append(" ".join(str(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def same_bytes(a, b):
    return Path(a).read_bytes() == Path(b).read_bytes()


# Negatives, signed zeros, values >= 1e6, near-halfway values of both
# precisions, tiny and huge magnitudes.
EDGE_FLOATS = [0.0, -0.0, -1.5, 1e6, 1234567.8912345, -2.5e7, 0.25, 0.35,
               -0.45, 5e-7, 2.5e-7, -4.9999995e-7, 1e-300, 1.7e300, 0.1, 2 / 3]


class TestWritersOnRuns:
    def test_eop_traces(self, tmp_path):
        result = run(load_scenario(SCENARIOS / "eop_shift.scn", 2), tmp_path)
        assert len(result.traces) == 2
        for cell, trace in result.traces.items():
            per_line_trace_csv(tmp_path / "ref.csv", trace)
            assert same_bytes(tmp_path / f"trace_{cell}.csv", tmp_path / "ref.csv")
        first = next(iter(result.traces))
        assert same_bytes(tmp_path / "trace.csv", tmp_path / f"trace_{first}.csv")

    def test_stability_log(self, tmp_path):
        result = run(load_scenario(SCENARIOS / "stability.scn", 16), tmp_path)
        per_line_stability_csv(tmp_path / "ref.csv", result.stability)
        assert same_bytes(tmp_path / "counters.csv", tmp_path / "ref.csv")

    @pytest.mark.parametrize("name", ["unprotected_key", "mtd_inter_key"])
    def test_eofm_image_and_field(self, tmp_path, name):
        scn = load_scenario(SCENARIOS / f"{name}.scn", 395)
        result = run(scn, tmp_path)
        image = result.image
        per_line_image_csv(tmp_path / "ref.csv", image)
        assert same_bytes(tmp_path / "image.csv", tmp_path / "ref.csv")
        per_line_pgm(tmp_path / "ref.pgm", image.amplitudes,
                     max(float(image.amplitudes.max()), 1e-12))
        assert same_bytes(tmp_path / "image.pgm", tmp_path / "ref.pgm")
        # The sensor cell at each dwell start of the same raster, as one
        # row, through the same writer.  The raster leaves the cell where
        # the run's field ends.
        ny, nx = image.shape
        cx, cy = image.pixel_center_um(np.tile(np.arange(nx), ny),
                                       np.repeat(np.arange(ny), nx))
        field = ThermalField(result.sim.sensor.site,
                             result.sim.thermal.site_pitch_um, **scn.thermal)
        starts, _ = field.raster(np.column_stack([cx, cy]), scn.scan.power,
                                 scn.scan.spot_sigma_um, scn.scan.dwell_ps / 1e6)
        assert field.delta_t == result.sim.thermal.delta_t
        cells = starts[None, :]
        assert cells.max() > 0
        write_pgm(tmp_path / "field.pgm", cells, float(cells.max()))
        per_line_pgm(tmp_path / "ref.pgm", cells, float(cells.max()))
        assert same_bytes(tmp_path / "field.pgm", tmp_path / "ref.pgm")


class TestCounterColumns:
    """The counter log's columns against a %-format of the same rows."""

    @settings(max_examples=150, deadline=None)
    @given(start=st.one_of(
               st.integers(0, MAX_WINDOWS),
               # A chunk that crosses one of 10**4 .. 10**7.
               st.builds(lambda k, back: 10 ** k - back, st.integers(4, 7),
                         st.integers(0, CSV_CHUNK_ROWS))),
           n=st.integers(0, CSV_CHUNK_ROWS),
           max_count=st.integers(0, 1023),
           latched_share=st.sampled_from([0.0, 0.5, 1.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(start=9_999_000, n=CSV_CHUNK_ROWS, max_count=1023,
             latched_share=0.5, seed=0)
    def test_matches_percent_format(self, start, n, max_count, latched_share,
                                    seed):
        rng = np.random.default_rng(seed)
        # Counts of one to four digits side by side, capped at max_count.
        counts = np.minimum(rng.integers(0, 10 ** rng.integers(1, 5, n)),
                            max_count)
        pulses = (counts * rng.random(n)).astype(np.int64)
        latched = rng.random(n) < latched_share
        columns = [range(start, start + n), counts, pulses, latched]
        expect = ("%d,%d,%d,%d\n" * n) % tuple(
            v for row in zip(*columns) for v in row)
        assert b"".join(iter_lines(columns, [None] * 4)) == expect.encode()


class TestWritersOnEdgeValues:
    def test_trace(self, tmp_path):
        values = np.array(EDGE_FLOATS + [math.nan, math.inf, -math.inf])
        times = np.array([0, 7, -5, 10 ** 12] + [100] * (len(values) - 4),
                         dtype=np.int64)
        trace = EopTrace(times, values, 1, 100)
        trace.to_csv(tmp_path / "new.csv")
        per_line_trace_csv(tmp_path / "ref.csv", trace)
        assert same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")

    def test_trace_across_chunks(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 2 * CSV_CHUNK_ROWS + 3
        trace = EopTrace(np.arange(n, dtype=np.int64) * 100,
                         rng.normal(0.0, 1e3, n), 1, 100)
        trace.to_csv(tmp_path / "new.csv")
        per_line_trace_csv(tmp_path / "ref.csv", trace)
        assert same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")

    def test_stability(self, tmp_path):
        base = run(load_scenario(SCENARIOS / "stability.scn", 1)).stability
        floats = np.array(EDGE_FLOATS + [math.nan, math.inf])
        # Count columns are whole except one, which int() truncates.
        counts = np.array([0.0, -0.0, 3.0, 1e6, 2.9, -7.0, 255.0] * 3)[:len(floats)]
        series = np.column_stack([floats, counts, counts[::-1], floats[::-1]])
        report = dataclasses.replace(base, series=series)
        report.to_csv(tmp_path / "new.csv")
        per_line_stability_csv(tmp_path / "ref.csv", report)
        assert same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")

    def test_image_csv(self, tmp_path):
        amps = np.array(EDGE_FLOATS[:15] + [math.nan]).reshape(4, 4)
        image = EofmImage(amps, -12.5, 1e6, 0.35)
        image.to_csv(tmp_path / "new.csv")
        per_line_image_csv(tmp_path / "ref.csv", image)
        assert same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")

    @pytest.mark.parametrize("shape", [(4, 4), (1, 16), (16, 1)])
    def test_pgm(self, tmp_path, shape):
        # Negatives clip to 0 and values above the peak to 255.
        amps = np.array(EDGE_FLOATS).reshape(shape)
        image = EofmImage(amps, 0.0, 0.0, 10.0)
        image.to_pgm(tmp_path / "new.pgm")
        per_line_pgm(tmp_path / "ref.pgm", amps, max(float(amps.max()), 1e-12))
        assert same_bytes(tmp_path / "new.pgm", tmp_path / "ref.pgm")
        write_pgm(tmp_path / "new.pgm", amps, 1e6)
        per_line_pgm(tmp_path / "ref.pgm", amps, 1e6)
        assert same_bytes(tmp_path / "new.pgm", tmp_path / "ref.pgm")

    def test_pgm_rows_across_chunks(self, tmp_path):
        # 61 rows of 70 pixels: the pixel chunk ends inside row 58.
        amps = np.random.default_rng(3).random((61, 70))
        assert 61 * 70 > CSV_CHUNK_ROWS and CSV_CHUNK_ROWS % 70
        write_pgm(tmp_path / "new.pgm", amps, 0.5)
        per_line_pgm(tmp_path / "ref.pgm", amps, 0.5)
        assert same_bytes(tmp_path / "new.pgm", tmp_path / "ref.pgm")


# -- the column formatter against one % per value -------------------------------


def percent_lines(columns, places):
    """Reference: one ``%`` per value, ``%d`` for None places."""
    values = [list(col) if isinstance(col, range) else np.asarray(col).tolist()
              for col in columns]
    return "".join(
        ",".join("%d" % v if p is None else "%.*f" % (p, v)
                 for v, p in zip(row, places)) + "\n"
        for row in zip(*values)).encode()


def near_halves(rng, n, places):
    """Values within a few ulps of (k + 1/2) / 10**p, of either sign."""
    k = rng.integers(0, 10 ** rng.integers(1, 13), n)
    values = (k + 0.5) / 10.0 ** places
    for _ in range(rng.integers(0, 4)):
        values = np.nextafter(values, rng.choice([-np.inf, np.inf], n))
    return values * rng.choice([-1.0, 1.0], n)


def tiny_and_zero(rng, n, places):
    return rng.choice([0.0, -0.0, -5e-324, -1e-300, 1e-300, -1e-9, -4e-7,
                       -5e-7, -0.04, -0.05, 0.05, -0.96], n)


def near_bound(rng, n, places):
    """Magnitudes on both sides of 2**52 / 10**p, the formatter's bound."""
    bound = 2.0 ** 52 / 10.0 ** places
    values = bound * rng.choice([0.5, 0.999999, 1 - 2 ** -50, 1.0, 1 + 2 ** -50,
                                 1.000001, 3.0], n)
    return values * rng.choice([-1.0, 1.0], n)


def scaled_normals(rng, n, places):
    return rng.normal(0.0, 10.0 ** rng.integers(-3, 9), n)


def non_finite(rng, n, places):
    values = rng.normal(0.0, 1.0, n)
    if n:
        values[rng.integers(0, n, 1 + n // 1000)] = rng.choice(
            [math.nan, math.inf, -math.inf])
    return values


# %d of a NaN or an infinity raises, so those go only to columns with places.
FLOAT_FAMILIES = [near_halves, tiny_and_zero, near_bound, scaled_normals]


def column(rng, kind, places, n):
    if kind == "range":
        # Starts just below a decade, so that a chunk crosses it.
        start = max(10 ** int(rng.integers(1, 8)) - int(rng.integers(0, n + 1)), 0)
        return range(start, start + n)
    if kind == "bool":
        return rng.random(n) < 0.5
    if kind == "int":
        top = 10 ** int(rng.integers(1, 19))
        return rng.integers(-top if rng.random() < 0.5 else 0, top, n)
    families = FLOAT_FAMILIES + ([non_finite] if places is not None else [])
    return families[rng.integers(len(families))](rng, n, places or 0)


COLUMN = st.one_of(
    st.tuples(st.sampled_from(["range", "bool", "int"]), st.just(None)),
    st.tuples(st.sampled_from(["range", "bool", "int"]), st.sampled_from([1, 6])),
    st.tuples(st.just("float"), st.sampled_from([None, 1, 6])),
)


class TestFormatColumns:
    @settings(deadline=None)
    @given(specs=st.lists(COLUMN, min_size=1, max_size=4),
           n=st.one_of(st.integers(0, 40),
                       st.sampled_from([CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                                        CSV_CHUNK_ROWS + 1,
                                        2 * CSV_CHUNK_ROWS + 3])),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_percent_per_value(self, specs, n, seed):
        rng = np.random.default_rng(seed)
        columns = [column(rng, kind, places, n) for kind, places in specs]
        places = [places for _, places in specs]
        assert (format_columns("h", columns, places)
                == b"h\n" + percent_lines(columns, places))

    @pytest.mark.parametrize("places, values", [
        (1, [0.45, -0.45, 0.35, 0.25, 0.15, 1.25]),
        (6, [5e-7, -5e-7, 1.5e-6, 2.5e-6, 4.5e-6, 1.25e-5]),
    ])
    def test_values_in_the_half_band(self, places, values):
        # For each, x = |v| * 10**p rounds to k + 1/2 exactly, while the
        # decimal value lies above, below or on k + 1/2: floor(x) + (frac >
        # 1/2) alone would print 0.4 for 0.45 and 0.000002 for 2.5e-6.
        values = np.array(values)
        assert (np.abs(values) * 10.0 ** places % 1 == 0.5).all()
        for columns in [(range(6), values), (values, values[::-1])]:
            fmt = (None if isinstance(columns[0], range) else places, places)
            assert (format_columns("h", columns, fmt)
                    == b"h\n" + percent_lines(columns, fmt))

    @pytest.mark.parametrize("bad", [1e300, math.nan, -math.inf, 2.0 ** 52 / 1e6])
    def test_reference_formats_the_chunk_out_of_range(self, monkeypatch, bad):
        calls = []
        percent = artifacts._percent_chunk
        monkeypatch.setattr(artifacts, "_percent_chunk",
                            lambda *args: calls.append(1) or percent(*args))
        values = np.linspace(-3.0, 3.0, CSV_CHUNK_ROWS + 5)
        values[-2] = bad
        columns = (range(len(values)), values)
        assert (format_columns("h", columns, (None, 6))
                == b"h\n" + percent_lines(columns, (None, 6)))
        # Only the second chunk holds the value.
        assert len(calls) == 1


# -- replays without the step cache ---------------------------------------------


def plain_activity_coefs(sim):
    """Lock-in coefficients of one activity replay with one step_clock call
    per cycle (the replay of CoSimulation._simulate_activity, uncached)."""
    model, stim = sim.model, sim.stimulus
    period = stim.period_cycles
    model.set_latch_net(int(sim.latched))
    lut_names = list(model.luts)
    waves = np.zeros((len(model.ffs) + len(lut_names), period))
    for cycle in range(2 * period):
        model.step_clock(stim.inputs_at(cycle))
        if cycle >= period:
            t = cycle - period
            for i, ff_name in enumerate(model.ffs):
                waves[i, t] = model.state[ff_name]
            for j, lut_name in enumerate(lut_names):
                out = model.luts[lut_name].output_net
                waves[len(model.ffs) + j, t] = model.net_values[out]
    if period == 1:
        return np.zeros(len(waves), dtype=complex)
    phases = np.exp(-2j * np.pi * np.arange(period) / period)
    return waves @ phases * math.sin(math.pi / period)


def plain_cycle_trace(sim, net, n_cycles):
    model = sim.model
    model.set_latch_net(int(sim.latched))
    values = np.zeros(n_cycles)
    for cycle in range(n_cycles):
        model.step_clock(sim.stimulus.inputs_at(cycle))
        values[cycle] = model.net_values[net]
    return values


def against_plain(method, plain, log):
    """Wrap a replay method: run the plain replay first, rewind the fabric,
    then run the method and check its result and the fabric it leaves."""

    def checked(sim, *args):
        model = sim.model
        state, values = dict(model.state), dict(model.net_values)
        expect = plain(sim, *args)
        expect_state, expect_values = dict(model.state), dict(model.net_values)
        model.state, model.net_values = state, values
        got = method(sim, *args)
        coefs = got.coefs if hasattr(got, "coefs") else got
        assert np.array_equal(coefs, expect)
        assert model.state == expect_state
        assert model.net_values == expect_values
        log.append(sim.epoch_id)
        return got

    return checked


class TestStepCache:
    @pytest.mark.parametrize("name", ["xor_polymorphic", "mtd_inter_key"])
    def test_every_epoch_activity_matches_a_plain_replay(self, monkeypatch, name):
        epochs = []
        monkeypatch.setattr(CoSimulation, "_simulate_activity", against_plain(
            CoSimulation._simulate_activity, plain_activity_coefs, epochs))
        result = run(load_scenario(SCENARIOS / f"{name}.scn", 1))
        assert result.summary.trigger_time_us is not None
        # Each imaged epoch once, up to the last one the defense started.
        assert len(epochs) >= 3 and epochs == sorted(set(epochs))
        assert epochs[-1] == result.sim.epoch_id

    def test_eop_cycle_traces_match_plain_replays(self, monkeypatch):
        calls = []
        monkeypatch.setattr(CoSimulation, "cycle_trace", against_plain(
            CoSimulation.cycle_trace, plain_cycle_trace, calls))
        run(load_scenario(SCENARIOS / "eop_shift.scn", 1))
        assert len(calls) >= 4  # a warmup and a replay per probe cell

    def test_repeated_edges_are_not_stepped_again(self, monkeypatch):
        # Reset toggling at 1.25 MHz on a 100 MHz clock holds its inputs for
        # 40 cycles; the key register reaches a fixed point in one edge, so
        # each half period costs about one real edge.
        key = (1, 0, 1, 1, 0, 0, 0, 1)
        sim = build_sim(build_key_model(key), key=key)
        steps = []
        step = FabricModel.step_clock
        monkeypatch.setattr(FabricModel, "step_clock",
                            lambda model, inputs: steps.append(1) or step(model, inputs))
        sim.activity()
        assert sim.stimulus.period_cycles == 80
        assert len(steps) <= 4

    @pytest.mark.parametrize("pattern", ["1", "10", "1011001"])
    def test_shift_activity_matches_a_plain_replay(self, pattern):
        # Periods 1, 2 and 7: from reset, from the orbit the replay left,
        # and with the protected register held as during a relocation.
        sim = build_sim(build_shift_model(), stimulus=shift_stimulus(pattern),
                        sensor_site=SliceCoord(13, 5))
        checks = []
        activity = against_plain(CoSimulation._simulate_activity,
                                 plain_activity_coefs, checks)
        trace = against_plain(CoSimulation.cycle_trace, plain_cycle_trace,
                              checks)
        activity(sim)
        activity(sim)
        trace(sim, "s3_q", 17)
        sim.model.hold_protected = True
        activity(sim)
        trace(sim, "s3_q", 9)
        assert len(checks) == 5

    def test_hold_epoch_of_a_reset_toggle_matches_a_plain_replay(self):
        key = (1, 0, 1, 1, 0, 0, 0, 1)
        sim = build_sim(build_key_model(key), key=key)
        checks = []
        activity = against_plain(CoSimulation._simulate_activity,
                                 plain_activity_coefs, checks)
        activity(sim)
        sim.model.hold_protected = True
        activity(sim)
        assert len(checks) == 2

    @pytest.mark.parametrize("stim", [
        Stimulus("rst", (0, 0, 0, 1, 1, 1), {"kd0": 1}),
        Stimulus("rst", (0, 1)),
        shift_stimulus("1011001", {"rst": 0}),
        shift_stimulus("1"),
    ])
    @pytest.mark.parametrize("n", [0, 1, 6, 23])
    def test_input_program_matches_inputs_at(self, stim, n):
        ids, inputs = stim.input_program(n)
        assert [inputs[i] for i in ids] == [stim.inputs_at(c) for c in range(n)]
        # Distinct ids are distinct inputs, so two cycles share an id iff
        # inputs_at gives them equal inputs, and the replay steps the
        # edges that one step_clock call per cycle would.
        assert len({tuple(d.items()) for d in inputs}) == len(inputs)
