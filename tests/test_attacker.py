import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (advance_for, build_key_model, build_shift_model,
                      build_sim, signal_at)
from probesim import cosim
from probesim.attacker import (EofmImage, ScanConfig, eofm_scan, eop_probe,
                               localize, recover_bits)
from probesim.cosim import (EpochActivity, ScenarioError, ShiftStimulus,
                            stimulus_for_target_freq)
from probesim.defense import DefensePolicy, region_slices
from probesim.fabric import SliceCoord
from probesim.netlist import load_netlist
from probesim.thermal import LaserSpot

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "probesim" / "scenarios"


def small_scan(**kwargs):
    defaults = dict(region_um=(100.0, 60.0, 260.0, 110.0), pixel_pitch_um=10.0,
                    dwell_ms=1.0, noise_sigma=0.04)
    defaults.update(kwargs)
    return ScanConfig(**defaults)


class TestEpochActivity:
    def test_lockin_linearity(self):
        # Doubling a primitive's toggle amplitude doubles its pixel signal.
        act1 = EpochActivity(np.array([50.0]), np.array([50.0]),
                             np.array([0.4 + 0j]), ["f"])
        act2 = EpochActivity(np.array([50.0]), np.array([50.0]),
                             np.array([0.8 + 0j]), ["f"])
        s1 = signal_at(act1, 52.0, 51.0, 4.0)
        s2 = signal_at(act2, 52.0, 51.0, 4.0)
        assert s2 == pytest.approx(2.0 * s1)

    def test_signals_match_one_dot_product_per_point(self):
        # The bundled key fabric, all bits toggling, over a grid of points
        # that covers it: signals() agrees with one dot product per point
        # up to rounding, and a point's value does not depend on how many
        # points are asked for at once.
        model = load_netlist(SCENARIOS / "key8.net")
        xy = np.array([model.slot_position_um(ff.site, ff.slot, "ff")
                       for ff in model.ffs.values()])
        act = EpochActivity(xy[:, 0], xy[:, 1],
                            np.linspace(0.1, 1.0, len(xy)) + 0j,
                            list(model.ffs))
        xs, ys = np.meshgrid(np.arange(0.0, 330.0, 7.5),
                             np.arange(0.0, 170.0, 7.5))
        xs, ys = xs.ravel(), ys.ravel()
        values = act.signals(xs, ys, 4.0)
        ref = np.array([point_signal(act, x, y, 4.0) for x, y in zip(xs, ys)])
        np.testing.assert_allclose(values, ref, rtol=1e-15, atol=0)
        assert values.max() > 0.5
        singles = [act.signals(xs[i:i + 1], ys[i:i + 1], 4.0)[0]
                   for i in range(len(xs))]
        assert np.array_equal(values, singles)

    def test_psf_locality(self):
        # A toggling FF five PSF sigmas away contributes < 1e-6 of its peak.
        sigma = 4.0
        act = EpochActivity(np.array([50.0]), np.array([50.0]),
                            np.array([1.0 + 0j]), ["f"])
        peak = signal_at(act, 50.0, 50.0, sigma)
        far = signal_at(act, 50.0 + 5 * sigma, 50.0, sigma)
        assert far < 1e-6 * peak


class TestEofmScan:
    def test_set_bits_bright_clear_bits_dark(self, key_sim):
        sim, model, key = key_sim
        image = eofm_scan(sim, small_scan())
        bright, dark = [], []
        for i, name in enumerate(model.protected):
            ff = model.ffs[name]
            x, y = model.slot_position_um(ff.site, ff.slot, "ff")
            (bright if key[i] else dark).append(image.amplitude_at_um(x, y))
        background = np.median(image.amplitudes)
        assert min(bright) > 5 * max(max(dark), background, 1e-6)
        assert all(b >= 0.5 for b in bright)
        assert all(d < 0.2 for d in dark)

    def test_static_logic_stays_at_noise_floor(self):
        model = build_key_model(key=(1,) * 8)
        sim = build_sim(model, key=(1,) * 8)
        # Reset never toggles: drive a static stimulus instead.
        sim.stimulus.static["rst"] = 0
        sim.stimulus.half_period_cycles = 40

        class Static:
            period_cycles = 80
            static = {}

            def inputs_at(self, cycle):
                return {f"kd{i}": 1 for i in range(8)}

        sim.stimulus = Static()
        image = eofm_scan(sim, small_scan(noise_sigma=0.04))
        assert image.amplitudes.max() < 5 * 0.04

    def test_nonnegative_amplitudes_and_geometry(self, key_sim):
        sim, model, _ = key_sim
        scan = small_scan()
        image = eofm_scan(sim, scan)
        assert (image.amplitudes >= 0).all()
        assert image.shape == (scan.n_pixels[1], scan.n_pixels[0])

    def test_total_scan_time_is_pixels_times_dwell(self, key_sim):
        sim, _, _ = key_sim
        scan = small_scan()
        t0 = sim.t_ps
        eofm_scan(sim, scan)
        nx, ny = scan.n_pixels
        assert sim.t_ps - t0 == nx * ny * scan.dwell_ps

    def test_region_outside_fabric_rejected(self, key_sim):
        sim, _, _ = key_sim
        with pytest.raises(ScenarioError):
            eofm_scan(sim, ScanConfig(region_um=(0, 0, 400, 100)))

    def test_image_writers(self, key_sim, tmp_path):
        sim, _, _ = key_sim
        image = eofm_scan(sim, small_scan())
        image.to_pgm(tmp_path / "img.pgm")
        image.to_csv(tmp_path / "img.csv")
        pgm = (tmp_path / "img.pgm").read_text().splitlines()
        assert pgm[0] == "P2"
        nx, ny = small_scan().n_pixels
        assert pgm[1] == f"{nx} {ny}"
        csv = (tmp_path / "img.csv").read_text().splitlines()
        assert csv[0] == "x_um,y_um,amplitude"
        assert len(csv) == 1 + nx * ny


class TestLocalize:
    def make_image(self, values):
        return EofmImage(np.array(values, dtype=float), 0.0, 0.0, 10.0)

    def test_all_dark_gives_empty_list(self):
        image = self.make_image(np.zeros((4, 4)))
        assert localize(image, threshold=0.5) == []

    def test_single_bright_pixel_maps_to_its_site(self):
        values = np.zeros((4, 4))
        values[2, 3] = 1.0
        sites = localize(self.make_image(values), threshold=0.5)
        assert sites == [SliceCoord(3, 2)]

    def test_two_clusters_give_two_sites(self):
        values = np.zeros((6, 8))
        values[1, 1] = values[1, 2] = 0.9
        values[4, 6] = 1.0
        sites = localize(self.make_image(values), threshold=0.5)
        assert len(sites) == 2
        assert SliceCoord(6, 4) in sites


class TestRecoverBits:
    def test_fully_bright_sites_read_all_ones(self):
        image = EofmImage(np.ones((4, 4)), 0.0, 0.0, 10.0)
        sites = [(5.0, 5.0), (15.0, 15.0), (35.0, 35.0)]
        assert recover_bits(image, sites, 0.5) == [1, 1, 1]

    def test_threshold_splits_bits(self):
        values = np.zeros((2, 2))
        values[0, 0] = 1.0
        image = EofmImage(values, 0.0, 0.0, 10.0)
        assert recover_bits(image, [(5.0, 5.0), (15.0, 5.0)], 0.5) == [1, 0]


class TestEopProbe:
    def test_averaging_follows_inverse_sqrt_law(self, shift_sim):
        # Residual noise within 10% of sigma/sqrt(N) for N in {100, 10000}.
        sim, model = shift_sim
        ff = model.ffs["s2"]
        point = model.slot_position_um(ff.site, ff.slot, "ff")
        pattern = [1, 0, 1, 1, 0, 0, 0, 1]
        for n_iter in (100, 10_000):
            trace = eop_probe(sim, point, duration_cycles=24,
                              resolution_ps=100, iterations=n_iter,
                              noise_sigma=1.0)
            cyc = (trace.times_ps // sim.cycle_ps).astype(int)
            clean = np.array([pattern[(c - 2) % 8] for c in cyc])
            resid = trace.values - clean
            predicted = 1.0 / math.sqrt(n_iter)
            assert abs(resid.std() - predicted) / predicted < 0.10

    def test_transitions_align_to_clock_edges(self, shift_sim):
        sim, model = shift_sim
        ff = model.ffs["s5"]
        point = model.slot_position_um(ff.site, ff.slot, "ff")
        trace = eop_probe(sim, point, duration_cycles=24, resolution_ps=100,
                          iterations=2000, noise_sigma=0.5)
        pattern = [1, 0, 1, 1, 0, 0, 0, 1]
        # Crossings of 0.5 must happen exactly at cycle boundaries.
        binary = trace.values > 0.5
        flips = np.flatnonzero(np.diff(binary.astype(int)) != 0) + 1
        samples_per_cycle = sim.cycle_ps // 100
        assert len(flips) > 0
        assert all(f % samples_per_cycle == 0 for f in flips)
        cyc = (trace.times_ps // sim.cycle_ps).astype(int)
        expected = np.array([pattern[(c - 5) % 8] for c in cyc])
        assert (binary == expected).all()

    def test_constant_zero_net_is_flat(self):
        model = build_shift_model()
        stim = ShiftStimulus("0" * 8)
        sim = build_sim(model, stimulus=stim, sensor_site=SliceCoord(13, 5))
        ff = model.ffs["s3"]
        point = model.slot_position_um(ff.site, ff.slot, "ff")
        trace = eop_probe(sim, point, duration_cycles=16, resolution_ps=100,
                          iterations=4000, noise_sigma=1.0)
        assert abs(trace.values.mean()) < 0.002
        assert np.abs(trace.values).max() < 0.1

    def test_vacant_point_reads_nothing(self, shift_sim):
        sim, model = shift_sim
        trace = eop_probe(sim, (5.0, 155.0), duration_cycles=8,
                          resolution_ps=100, iterations=50, noise_sigma=0.0)
        assert (trace.values == 0).all()

    def test_point_outside_fabric_rejected(self, shift_sim):
        sim, _ = shift_sim
        with pytest.raises(ScenarioError):
            eop_probe(sim, (500.0, 0.0), duration_cycles=8)

    @pytest.mark.parametrize("bad", [
        dict(resolution_ps=0), dict(resolution_ps=-100),
        dict(resolution_ps=240_001), dict(noise_sigma=-1.0), dict(power=-1.0),
    ])
    def test_bad_inputs_rejected(self, shift_sim, bad):
        sim, _ = shift_sim
        with pytest.raises(ScenarioError):
            eop_probe(sim, (150.0, 55.0), duration_cycles=24, **bad)

    def test_trace_writer(self, shift_sim, tmp_path):
        sim, model = shift_sim
        ff = model.ffs["s0"]
        point = model.slot_position_um(ff.site, ff.slot, "ff")
        trace = eop_probe(sim, point, duration_cycles=8, resolution_ps=100,
                          iterations=10, noise_sigma=0.1)
        trace.to_csv(tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "time_ps,value"
        assert len(lines) == 1 + len(trace.times_ps)


class TestDefenseRace:
    def test_trigger_and_relocation_before_targets_scanned(self):
        key = (1, 0, 1, 1, 0, 0, 0, 1)
        model = build_key_model(key)
        policy = DefensePolicy(mode="mtd_inter", pr_latency_us=223.0,
                               allowed_region=region_slices(26, 4, 30, 12),
                               threshold=3.0)
        sim = build_sim(model, key=key, policy=policy)
        original = [model.slot_position_um(model.ffs[n].site,
                                           model.ffs[n].slot, "ff")
                    for n in model.protected]
        scan = small_scan()
        image = eofm_scan(sim, scan)
        assert sim.trigger_time_us is not None
        log = sim.defense_log[0]
        gap_us = log["event_complete_us"] - log["trigger_time_us"]
        assert gap_us == pytest.approx(223.0)
        assert gap_us * 1e6 <= scan.dwell_ps
        # Original sites are dark after the move.
        assert all(image.amplitude_at_um(x, y) < 0.35 for x, y in original)
        sites = {model.ffs[n].site for n in model.protected}
        assert sites <= set(policy.allowed_region)


def per_iteration_eop(sim, point_um, duration_cycles, resolution_ps,
                      iterations, noise_sigma, power=1.0, spot_sigma_um=8.0):
    """Reference EOP loop: one replay, one noise draw and one co-simulation
    step of one probe duration per iteration; returns the averaged values."""
    sim.set_spot(LaserSpot(point_um, power, spot_sigma_um))
    duration_ps = duration_cycles * sim.cycle_ps
    n_samples = duration_ps // resolution_ps
    times = np.arange(n_samples, dtype=np.int64) * resolution_ps
    cycle_of_sample = (times // sim.cycle_ps).astype(int)
    accum = np.zeros(n_samples)
    clean_cache = {}
    warm_net = sim.resolve_probe_net(*point_um)
    if warm_net is not None:
        sim.cycle_trace(warm_net, duration_cycles)
    for _ in range(iterations):
        eid = sim.epoch_id
        clean = clean_cache.get(eid)
        if clean is None:
            net = sim.resolve_probe_net(*point_um)
            if net is None:
                clean = np.zeros(n_samples)
            else:
                clean = sim.cycle_trace(net, duration_cycles)[cycle_of_sample]
            clean_cache[eid] = clean
        accum += clean
        accum += sim.eop_rng.normal(0.0, noise_sigma, n_samples)
        advance_for(sim, duration_ps)
    sim.set_spot(None)
    return accum / iterations


class TestEopRace:
    """EOP against a firing defense, checked against the per-iteration loop.

    The probe heats s0 next to the sensor, so the trigger fires mid-probe
    (at 58.65 us at seed 1); noise is off, so the averaged values are exact
    sums of clean iterations on both sides.
    """

    ITERATIONS = 1000
    DURATION_CYCLES = 24

    def race(self, probe, **policy_kwargs):
        model = build_shift_model()
        policy = DefensePolicy(threshold=3.0, **policy_kwargs)
        sim = build_sim(model, policy=policy, stimulus=ShiftStimulus("10110001"),
                        sensor_site=SliceCoord(13, 5))
        ff = model.ffs["s0"]
        point = model.slot_position_um(ff.site, ff.slot, "ff")
        values = probe(sim, point, self.DURATION_CYCLES, 100,
                       self.ITERATIONS, 0.0)
        return sim, values

    def assert_matches_reference(self, **policy_kwargs):
        ref, ref_values = self.race(per_iteration_eop, **policy_kwargs)
        sim, values = self.race(
            lambda *args: eop_probe(*args).values, **policy_kwargs)
        assert ref.trigger_time_us is not None
        assert ref.trigger_time_us * 1e6 < sim.t_ps  # fired mid-probe
        assert np.array_equal(values, ref_values)
        assert sim.trigger_time_us == ref.trigger_time_us
        assert sim.defense_log == ref.defense_log
        assert sim.windows_done == ref.windows_done
        assert sim.t_ps == ref.t_ps
        return sim, values

    @pytest.mark.parametrize("pr_latency_us", [50.0, 0.1])
    def test_mtd_inter(self, pr_latency_us):
        _, values = self.assert_matches_reference(
            mode="mtd_inter", pr_latency_us=pr_latency_us,
            allowed_region=region_slices(26, 4, 30, 12))
        # The node was vacated mid-probe, so the average is neither the
        # full pattern nor empty.
        assert 0.0 < values.max() < 1.0

    def test_mtd_intra(self):
        self.assert_matches_reference(mode="mtd_intra", pr_latency_us=50.0)

    def test_zeroize(self):
        self.assert_matches_reference(mode="zeroize")

    def test_completion_on_an_iteration_start(self):
        # Pick the latency that puts the completion exactly on the start of
        # the third iteration after the trigger: that iteration and every
        # later one see the relocated placement.
        probe_sim, _ = self.race(lambda *args: eop_probe(*args).values)
        fire_ps = round(probe_sim.trigger_time_us * 1e6)
        duration_ps = self.DURATION_CYCLES * probe_sim.cycle_ps
        landing_ps = (-(-fire_ps // duration_ps) + 2) * duration_ps
        sim, _ = self.assert_matches_reference(
            mode="mtd_inter", pr_latency_us=(landing_ps - fire_ps) / 1e6,
            allowed_region=region_slices(26, 4, 30, 12))
        assert sim._epochs[-1][0] == landing_ps


def point_signal(act, x_um, y_um, psf_sigma_um):
    """Reference lock-in amplitude at one point: one dot product."""
    if act.xs.size == 0:
        return 0.0
    d2 = (act.xs - x_um) ** 2 + (act.ys - y_um) ** 2
    weights = np.exp(-d2 / (psf_sigma_um ** 2))
    return float(abs(np.dot(weights, act.coefs)))


def per_pixel_eofm(sim, scan):
    """Reference raster: one set_spot and one dwell of co-simulation per
    pixel, stepped through advance_to_epoch_change so that each epoch's
    activity is recorded as it is entered; one noise draw per pixel, and
    the signal as one dot product per pixel and epoch."""
    x0, y0, _, _ = scan.region_um
    nx, ny = scan.n_pixels
    image = np.zeros((ny, nx))
    sim.activity()
    for iy in range(ny):
        cy = y0 + (iy + 0.5) * scan.pixel_pitch_um
        for ix in range(nx):
            cx = x0 + (ix + 0.5) * scan.pixel_pitch_um
            sim.set_spot(LaserSpot((cx, cy), scan.power, scan.spot_sigma_um))
            t_start = sim.t_ps
            end = t_start + scan.dwell_ps
            while sim.t_ps < end:
                epoch = sim.epoch_id
                sim.advance_to_epoch_change(end)
                if sim.epoch_id != epoch:
                    sim.activity()
            signal = 0.0
            for s, e, eid in sim.epoch_segments(t_start, end):
                frac = (e - s) / scan.dwell_ps
                signal += frac * point_signal(sim.activity(eid), cx, cy,
                                              scan.psf_sigma_um)
            noisy = signal + sim.image_rng.normal(0.0, scan.noise_sigma)
            image[iy, ix] = max(noisy, 0.0)
    sim.set_spot(None)
    return image


def key_race_sim(seed=1, tau_us=50.0, **policy_kwargs):
    key = (1, 0, 1, 1, 0, 0, 0, 1)
    policy_kwargs.setdefault("threshold", 3.0)
    if policy_kwargs.get("mode", "").startswith("mtd"):
        policy_kwargs.setdefault("allowed_region", region_slices(26, 4, 30, 12))
    sim = build_sim(build_key_model(key), key=key, seed=seed,
                    policy=DefensePolicy(**policy_kwargs))
    sim.thermal.tau_us = tau_us
    return sim


def poly_race_sim(seed=1):
    model = load_netlist(SCENARIOS / "xor4_poly.net")
    stim = stimulus_for_target_freq(100.0, 1.25, {"a0": 1, "a1": 1, "a2": 1,
                                                  "a3": 1})
    policy = DefensePolicy(mode="polymorphic", threshold=3.0)
    return build_sim(model, policy=policy, seed=seed, stimulus=stim,
                     sensor_site=SliceCoord(16, 7))


POLY_SCAN = dict(region_um=(160.0, 40.0, 200.0, 120.0))


class TestRasterSchedule:
    """CoSimulation.raster against the per-pixel reference raster.

    The small scan heats the sensor at (15, 8) from its second row on, so
    the trigger fires in dwell 20 at 20134.8 us at seed 1.
    """

    def assert_matches_reference(self, make_sim, scan):
        ref = make_sim()
        ref_image = per_pixel_eofm(ref, scan)
        sim = make_sim()
        image = eofm_scan(sim, scan).amplitudes
        assert np.array_equal(sim.window_counts, ref.window_counts)
        assert sim.trigger_time_us == ref.trigger_time_us
        assert sim.defense_log == ref.defense_log
        assert sim._epochs == ref._epochs
        # The row sums of EpochActivity.signals and the reference's dot
        # products round differently in the last bit; anything the raster
        # gets wrong (a dwell, an overlap, a noise draw) is far larger.
        np.testing.assert_allclose(image, ref_image, rtol=0, atol=1e-14)
        assert sim.t_ps == ref.t_ps
        assert sim.sensor.site == ref.sensor.site
        assert np.array_equal(sim.thermal.delta_t, ref.thermal.delta_t)
        return sim

    def fire_ps(self, scan, **policy_kwargs):
        sim = key_race_sim(**policy_kwargs)
        eofm_scan(sim, scan)
        return round(sim.trigger_time_us * 1e6)

    @pytest.fixture(params=[cosim.RASTER_CHUNK_WINDOWS, 700])
    def chunk(self, request, monkeypatch):
        # 700-window chunks put the trigger in a later chunk of a stretch.
        monkeypatch.setattr(cosim, "RASTER_CHUNK_WINDOWS", request.param)

    def test_none(self, chunk):
        sim = self.assert_matches_reference(
            lambda: key_race_sim(mode="none"), small_scan())
        assert sim.trigger_time_us == pytest.approx(20134.8)

    @pytest.mark.parametrize("where", ["firing dwell", "next dwell",
                                       "three dwells on", "1 ps on"])
    @pytest.mark.parametrize("move_sensor", [False, True])
    def test_mtd_inter(self, chunk, where, move_sensor):
        scan = small_scan()
        fire = self.fire_ps(scan, mode="mtd_inter", pr_latency_us=223.0)
        dwell_end = -(-fire // scan.dwell_ps) * scan.dwell_ps
        latency_ps = {
            "firing dwell": (dwell_end - fire) // 2,
            "next dwell": dwell_end - fire + scan.dwell_ps // 2,
            "three dwells on": dwell_end - fire + 3 * scan.dwell_ps,
            "1 ps on": 1,  # MTD modes need a latency > 0
        }[where]
        sim = self.assert_matches_reference(
            lambda: key_race_sim(mode="mtd_inter", pr_latency_us=latency_ps / 1e6,
                                 move_sensor=move_sensor),
            scan)
        assert sim.defense_log[0]["placement_diff"]
        assert (sim.sensor.site != SliceCoord(15, 8)) == move_sensor

    def test_mtd_intra(self, chunk):
        self.assert_matches_reference(
            lambda: key_race_sim(mode="mtd_intra", pr_latency_us=223.0),
            small_scan())

    def test_polymorphic(self, chunk):
        sim = self.assert_matches_reference(poly_race_sim, small_scan(**POLY_SCAN))
        assert sim.trigger_time_us is not None

    def test_hold_epoch_is_imaged_dark(self):
        # The hold epoch of a relocation (trigger to completion) is recorded
        # while it is in effect: the protected bits hold, so nothing toggles.
        sim = key_race_sim(mode="mtd_inter", pr_latency_us=223.0)
        eofm_scan(sim, small_scan())
        (_, before), (_, hold), (_, after) = sim._epochs
        assert np.abs(sim.activity(before).coefs).max() == pytest.approx(1.0)
        assert np.abs(sim.activity(hold).coefs).max() == 0.0
        assert np.abs(sim.activity(after).coefs).max() == pytest.approx(1.0)

    def test_past_epoch_without_a_record_is_rejected(self):
        sim = key_race_sim(mode="none")
        sim.invalidate_activity()
        with pytest.raises(ScenarioError, match="not recorded"):
            sim.activity(0)

    def test_no_per_pixel_steps(self, monkeypatch):
        # The raster neither parks the spot nor advances time once per pixel:
        # of its 80 dwells, only the firing one and the one that holds the
        # completion step through advance_to_epoch_change.
        calls = {"set_spot": 0, "advance_to": 0, "advance_to_epoch_change": 0}
        for name, owner in (("set_spot", cosim.ThermalField),
                            ("advance_to", cosim.CoSimulation),
                            ("advance_to_epoch_change", cosim.CoSimulation)):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        sim = key_race_sim(mode="mtd_inter", pr_latency_us=223.0)
        eofm_scan(sim, small_scan())
        assert calls["advance_to"] == 0
        assert calls["advance_to_epoch_change"] <= 4
        assert calls["set_spot"] <= 4  # stretch ends, the firing dwell, the end


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(1, 10_000),
    mode=st.sampled_from(["none", "mtd_inter", "mtd_intra", "zeroize"]),
    move_sensor=st.booleans(),
    latency_us=st.floats(1e-6, 3000.0),
    # 2.55 ms is 1,000 windows: every dwell ends on a window end.
    dwell_ms=st.sampled_from([0.04, 0.3, 1.0, 2.5, 2.55]),
    tau_us=st.sampled_from([5.0, 50.0]),
    threshold=st.sampled_from([2.0, 3.0, 6.0, 300.0]),
    rows=st.tuples(st.integers(3, 11), st.integers(1, 3)),
    cols=st.tuples(st.integers(10, 17), st.integers(1, 6)),
    chunk=st.sampled_from([64, 1000, 16384]),
)
def test_raster_matches_per_pixel_reference(seed, mode, move_sensor, latency_us,
                                            dwell_ms, tau_us, threshold, rows,
                                            cols, chunk):
    # Small rasters near the sensor at (15, 8), under every defense that
    # changes the epoch, and with triggers that fire early, late or never.
    scan = small_scan(region_um=(cols[0] * 10.0, rows[0] * 10.0,
                                 (cols[0] + cols[1]) * 10.0,
                                 (rows[0] + rows[1]) * 10.0),
                      dwell_ms=dwell_ms)

    def make_sim():
        return key_race_sim(seed=seed, tau_us=tau_us, mode=mode,
                            pr_latency_us=latency_us, threshold=threshold,
                            move_sensor=move_sensor)

    original = cosim.RASTER_CHUNK_WINDOWS
    cosim.RASTER_CHUNK_WINDOWS = chunk
    try:
        TestRasterSchedule().assert_matches_reference(make_sim, scan)
    finally:
        cosim.RASTER_CHUNK_WINDOWS = original
