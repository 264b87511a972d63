"""The bulk artifact writers against per-line reference writers, and the
step cache of the fabric replays against plain replays."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import build_key_model, build_sim
from probesim.artifacts import CSV_CHUNK_ROWS
from probesim.attacker import EofmImage, EopTrace
from probesim.cosim import CoSimulation
from probesim.fabric import FabricModel
from probesim.harness import load_scenario, run
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
        result = run(load_scenario(SCENARIOS / f"{name}.scn", 395), tmp_path)
        image = result.image
        per_line_image_csv(tmp_path / "ref.csv", image)
        assert same_bytes(tmp_path / "image.csv", tmp_path / "ref.csv")
        per_line_pgm(tmp_path / "ref.pgm", image.amplitudes,
                     max(float(image.amplitudes.max()), 1e-12))
        assert same_bytes(tmp_path / "image.pgm", tmp_path / "ref.pgm")
        # The field the raster left behind, through ThermalField's writer.
        field = result.sim.thermal
        assert field.delta_t.max() > 0
        field.to_pgm(tmp_path / "field.pgm")
        per_line_pgm(tmp_path / "ref.pgm", field.delta_t, float(field.delta_t.max()))
        assert same_bytes(tmp_path / "field.pgm", tmp_path / "ref.pgm")


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
        field = ThermalField(shape[1], shape[0])
        field.delta_t = amps.copy()
        field.to_pgm(tmp_path / "new.pgm", max_k=1e6)
        per_line_pgm(tmp_path / "ref.pgm", amps, 1e6)
        assert same_bytes(tmp_path / "new.pgm", tmp_path / "ref.pgm")


# -- replays without the step cache ---------------------------------------------


def plain_activity_coefs(sim):
    """Lock-in coefficients of one activity replay with one step_clock call
    per cycle (the replay of CoSimulation._simulate_activity, uncached)."""
    model, stim = sim.model, sim.stimulus
    period = stim.period_cycles
    model.set_latch_net(int(sim.sensor.latched))
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
    model.set_latch_net(int(sim.sensor.latched))
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
