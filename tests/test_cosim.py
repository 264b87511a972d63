import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (DEFAULT_TUNE, advance_for, build_key_model, build_sim,
                      counter_rows, window_counts)
from probesim import cosim, defense
from probesim.cosim import (CoSimulation, ScenarioError, Stimulus,
                            half_period_cycles, stimulus_for_target_freq)
from probesim.defense import DefensePolicy, region_slices
from probesim.fabric import SliceCoord
from probesim.sensor import SensorInstance, TuneValue, window_zero_counts
from probesim.thermal import LaserSpot, ThermalField, relax


KEY = (1, 0, 1, 1, 0, 0, 0, 1)


def mtd_sim(seed=1, region=(26, 4, 30, 12)):
    model = build_key_model(KEY)
    policy = DefensePolicy(mode="mtd_inter", pr_latency_us=223.0,
                           allowed_region=region_slices(*region),
                           threshold=3.0)
    return build_sim(model, key=KEY, policy=policy, seed=seed), model


@pytest.fixture(params=[cosim.RASTER_CHUNK_WINDOWS, 64, 4])
def chunk(request, monkeypatch):
    """A hold draws its windows in chunks too.  Parked on the sensor, the
    trigger fires in window 6: in the first chunk at 64 windows, with later
    chunks after it, and in the second chunk at 4."""
    monkeypatch.setattr(cosim, "RASTER_CHUNK_WINDOWS", request.param)
    return request.param


def park_on_sensor(sim, power=1.0):
    site = sim.sensor.site
    pitch = sim.thermal.site_pitch_um
    sim.set_spot(LaserSpot(((site.x + 0.5) * pitch, (site.y + 0.5) * pitch),
                           power))


class TestStimulus:
    def test_reset_toggle_period(self):
        stim = stimulus_for_target_freq(100.0, 1.25, {"kd0": 1})
        assert stim.period_cycles == 80
        assert stim.bits == (0,) * 40 + (1,) * 40
        assert stim.inputs_at(0) == {"kd0": 1, "rst": 0}
        assert stim.inputs_at(40)["rst"] == 1
        assert stim.inputs_at(80)["rst"] == 0

    @pytest.mark.parametrize("target", [80.0, 30.0, 1e-310])
    def test_target_freq_rejected(self, target):
        # Above clock/2, a toggle every 1.67 cycles, and a half period that
        # overflows to inf.
        with pytest.raises(ScenarioError):
            half_period_cycles(100.0, target)
        with pytest.raises(ScenarioError):
            stimulus_for_target_freq(100.0, target)

    def test_bits_validation(self):
        with pytest.raises(ScenarioError):
            Stimulus("sin", (1, 0, 2, 1))
        with pytest.raises(ScenarioError):
            Stimulus("rst", ())


def test_field_of_another_cell_rejected():
    # The field is the sensor's cell; one built elsewhere would heat the
    # sensor as if it sat there.
    sim, model = mtd_sim()
    with pytest.raises(ScenarioError, match="not the sensor's site"):
        CoSimulation(model, ThermalField(SliceCoord(14, 8)), sim.sensor,
                     sim.policy, sim.stimulus, 1)


class TestActivity:
    def test_set_bits_toggle_at_unit_amplitude(self):
        sim, model = mtd_sim()
        act = sim.activity()
        amp = {n: abs(c) for n, c in zip(act.names, act.coefs)}
        for i, bit in enumerate(KEY):
            if bit:
                assert amp[f"k{i}"] == pytest.approx(1.0, abs=1e-9)
            else:
                assert amp[f"k{i}"] == pytest.approx(0.0, abs=1e-9)

    def test_hold_state_silences_protected_bits(self):
        sim, model = mtd_sim()
        model.hold_protected = True
        sim.invalidate_activity()
        act = sim.activity()
        assert np.abs(act.coefs).max() == pytest.approx(0.0, abs=1e-9)

    def test_idle_stimulus_has_no_activity(self):
        model = build_key_model(KEY)
        sim = build_sim(model, stimulus=Stimulus("rst", (0,)))
        assert np.abs(sim.activity().coefs).max() == 0.0


class TestDefenseTiming:
    def test_trigger_fires_and_event_completes_on_time(self):
        sim, model = mtd_sim()
        park_on_sensor(sim)
        advance_for(sim, 2_000_000_000)  # 2 ms
        assert sim.trigger_time_us is not None
        log = sim.defense_log[0]
        assert log["event_complete_us"] - log["trigger_time_us"] == pytest.approx(223.0)
        assert model.hold_protected is False  # completed within the 2 ms
        sites = {model.ffs[n].site for n in model.protected}
        assert sites <= set(region_slices(26, 4, 30, 12))

    def test_epoch_segments_cover_interval(self):
        sim, _ = mtd_sim()
        park_on_sensor(sim)
        advance_for(sim, 1_000_000_000)
        segs = sim.epoch_segments(0, sim.t_ps)
        assert segs[0][0] == 0
        assert segs[-1][1] == sim.t_ps
        for (s0, e0, _), (s1, e1, _) in zip(segs, segs[1:]):
            assert e0 == s1
        assert len(segs) == 3  # before trigger, holding, after completion

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_relocation_skips_the_sensor_slice(self, seed):
        # The region holds the sensor's slice (15, 8): 4 of its 23 free FF
        # slots.  No bit moves there, and the sensor stays where it is.
        sim, model = mtd_sim(seed, region=(14, 7, 16, 8))
        park_on_sensor(sim)
        advance_for(sim, 2_000_000_000)
        assert sim.defense_log[0]["placement_diff"]
        assert sim.sensor.site == SliceCoord(15, 8)
        assert SliceCoord(15, 8) not in {model.ffs[n].site
                                         for n in model.protected}

    def test_spot_held_past_the_trigger_fires_once(self, monkeypatch):
        # The spot stays on the sensor for 2 ms, long past the trigger and
        # the 223 us reconfiguration, held 10 us at a time so that each
        # hold draws a few windows; later windows reach the threshold
        # again, and the defense still fires and completes once.
        calls = []
        for name in ("on_trigger", "apply_event"):
            def counted(*args, _name=name, _original=getattr(defense, name),
                        **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(defense, name, counted)
        sim, _ = mtd_sim()
        park_on_sensor(sim)
        for _ in range(200):
            advance_for(sim, 10_000_000)
        counts = counter_rows(sim)[:, 1]
        fired_window = sim.trigger_ps // sim.window_ps - 1
        assert (counts[fired_window + 1:] >= sim.policy.threshold).sum() > 1
        assert calls == ["on_trigger", "apply_event"]
        assert len(sim.defense_log) == 1
        assert sim.pending_event is None
        assert sim.latched

    def test_latch_net_follows_trigger(self):
        sim, model = mtd_sim()
        assert model.net_values.get("sensor_latch", 0) == 0
        park_on_sensor(sim)
        advance_for(sim, 2_000_000_000)
        assert model.net_values["sensor_latch"] == 1

    def test_time_cannot_run_backwards(self):
        sim, _ = mtd_sim()
        advance_for(sim, 1_000_000)
        with pytest.raises(ScenarioError):
            sim.advance_to(0)

    def test_trigger_time_non_increasing_in_laser_power(self):
        times = []
        for power in (0.4, 0.7, 1.0, 1.5):
            sim, _ = mtd_sim()
            park_on_sensor(sim, power=power)
            advance_for(sim, 3_000_000_000)
            assert sim.trigger_time_us is not None, f"power {power} never fired"
            times.append(sim.trigger_time_us)
        assert all(b <= a for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize("threshold", [0.5, 1.0, 3.0, 40.0, 300.0])
    def test_fires_at_the_first_window_at_the_threshold(self, chunk,
                                                       threshold):
        # The check reads the non-zero windows alone, and a window that
        # counted no zero is under any threshold above 0, so the trigger is
        # the end of the first window a dense check finds.
        sim = stream_sim(threshold=threshold)
        park_on_sensor(sim, power=0.45)
        advance_for(sim, 3000 * sim.window_ps)
        over = np.flatnonzero(window_counts(sim) >= threshold)
        fire_ps = (over[0] + 1) * sim.window_ps if over.size else None
        assert sim.trigger_ps == fire_ps
        assert (sim.trigger_ps is None) == (threshold > 255)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan])
    def test_a_threshold_not_above_zero_is_rejected(self, threshold):
        # A window that counted no zero is in no record entry, so a check
        # of the entries would never fire at a threshold of 0.
        sim = stream_sim(threshold=threshold)
        with pytest.raises(ScenarioError, match="must be above 0"):
            advance_for(sim, 10 * sim.window_ps)

    def test_seed_rerolls_placement(self):
        placements = []
        for seed in (1, 2):
            sim, model = mtd_sim(seed)
            park_on_sensor(sim)
            advance_for(sim, 2_000_000_000)
            placements.append(tuple((model.ffs[n].site, model.ffs[n].slot)
                                    for n in model.protected))
        assert placements[0] != placements[1]


class TestCounterLog:
    def test_rows_mark_latched_windows(self):
        model = build_key_model(KEY)
        policy = DefensePolicy(mode="none", threshold=3.0)
        sim = build_sim(model, key=KEY, policy=policy)
        park_on_sensor(sim)
        advance_for(sim, 1_000_000_000)
        rows = counter_rows(sim)
        assert len(rows), "no windows logged"
        latched = rows[:, 3].tolist()
        # Latched flag is monotone: once set it stays set.
        assert all(b >= a for a, b in zip(latched, latched[1:]))
        assert latched[-1] == 1
        idx = latched.index(1)
        assert rows[idx][1] >= 3  # the crossing window carries the count

    def test_counts_follow_the_binomial_stream(self, chunk):
        # The zero counts are the sensor stream's binomial draws, also past
        # the trigger; the max pulses come from a stream of their own.
        model = build_key_model(KEY)
        sim = build_sim(model, key=KEY)
        park_on_sensor(sim)
        # One hold of 39 windows, projected from the unheated start.
        ends_us = (np.arange(39) + 1) * sim.window_ps / 1e6
        start, steady = sim.thermal.hold()
        delta_ts = relax(start, steady, np.exp(-ends_us / sim.thermal.tau_us))
        p0 = sim.sensor.zero_probability(1.0 + sim.thermal.alpha_per_k * delta_ts)
        advance_for(sim, 100_000_000)
        rows = counter_rows(sim)
        ref = np.random.default_rng(np.random.SeedSequence(1).spawn(1)[0])
        assert np.array_equal(rows[:, 1], ref.binomial(255, p0))
        assert (rows[:, 2] <= rows[:, 1]).all()
        assert sim.trigger_ps // sim.window_ps == 6

    def test_pulses_do_not_depend_on_when_the_log_is_read(self):
        logs = []
        for read_midway in (False, True):
            model = build_key_model(KEY)
            sim = build_sim(model, key=KEY)
            park_on_sensor(sim, power=0.6)
            advance_for(sim, 300_000_000)
            if read_midway:
                counter_rows(sim)
            advance_for(sim, 300_000_000)
            logs.append(counter_rows(sim))
        assert ((logs[0][:, 1] > 1) & (logs[0][:, 1] < 255)).any()
        assert np.array_equal(logs[0], logs[1])

    @pytest.mark.parametrize("p0", [1e-4, 0.02, 0.5, 0.97])
    @pytest.mark.parametrize("n", [1, 7, 4096, 1_000_003])
    def test_mean_zero_count_from_the_integer_sum(self, p0, n):
        # harness.run takes the mean zero count from the exact integer sum.
        counts = window_zero_counts(p0, n, 255, np.random.default_rng(n))
        assert float(counts.sum()) / len(counts) == counts.mean()


class TestAdvanceToEpochChange:
    def test_stops_at_the_trigger_then_at_the_completion(self, chunk):
        sim, _ = mtd_sim()
        park_on_sensor(sim)
        target = 2_000_000_000
        t_fire = sim.advance_to_epoch_change(target)
        assert sim.trigger_time_us is not None
        assert t_fire == round(sim.trigger_time_us * 1e6) == sim.t_ps
        # The hold's windows are all drawn, up to the target.
        assert t_fire // sim.window_ps == 6
        assert sim.windows_done == target // sim.window_ps
        assert sim.epoch_segments(0, t_fire + 1)[-1][0] == t_fire
        assert sim.pending_event is not None
        t_done = sim.advance_to_epoch_change(target)
        assert t_done == round(sim.defense_log[0]["event_complete_us"] * 1e6)
        assert sim.pending_event is None
        assert sim.epoch_segments(0, t_done + 1)[-1][0] == t_done
        assert sim.advance_to_epoch_change(target) == target

    def test_hold_is_one_dwell_from_the_park_time(self, chunk, monkeypatch):
        # Parked 10 us in, the hold is stopped at the trigger and at the
        # completion, then runs past them.  Its windows are one binomial
        # stream projected from the park time, and the field is advanced
        # once, over the whole hold, when the spot is lifted.
        sim, _ = mtd_sim()
        park_ps, target = 10_000_000, 2_000_000_000
        sim.advance_to(park_ps)
        park_on_sensor(sim)
        advances = []
        advance = cosim.ThermalField.advance

        def counted(field, dt_us):
            advances.append(dt_us)
            advance(field, dt_us)

        monkeypatch.setattr(cosim.ThermalField, "advance", counted)
        start, steady = sim.thermal.hold()
        stops = [sim.advance_to_epoch_change(target) for _ in range(3)]
        completion_ps = round(sim.defense_log[0]["event_complete_us"] * 1e6)
        assert park_ps < sim.trigger_ps < completion_ps < target
        assert stops == [sim.trigger_ps, completion_ps, target]
        assert sim.pending_event is None and len(sim.defense_log) == 1
        assert advances == []
        sim.set_spot(None)
        assert advances == [(target - park_ps) / 1e6]
        # Three unheated windows end before the park time.
        ends_ps = (np.arange(park_ps // sim.window_ps, target // sim.window_ps)
                   + 1) * sim.window_ps
        delta_ts = relax(start, steady,
                         np.exp(-(ends_ps - park_ps) / 1e6 / sim.thermal.tau_us))
        p0 = sim.sensor.zero_probability(1.0 + sim.thermal.alpha_per_k * delta_ts)
        ref = np.random.default_rng(np.random.SeedSequence(1).spawn(1)[0])
        unheated = ref.binomial(255, sim.sensor.zero_probability(np.ones(3)))
        assert np.array_equal(counter_rows(sim)[:, 1],
                              np.concatenate([unheated, ref.binomial(255, p0)]))

    def test_repeated_steps_match_one_advance_to(self):
        target = 2_000_000_000
        sims = []
        for stepped in (False, True):
            sim, _ = mtd_sim()
            park_on_sensor(sim)
            if stepped:
                calls = 1
                while sim.advance_to_epoch_change(target) < target:
                    calls += 1
                assert calls == 3  # trigger, completion, target
            else:
                sim.advance_to(target)
            sims.append(sim)
        a, b = sims
        assert np.array_equal(window_counts(a), window_counts(b))
        assert a.epoch_id == b.epoch_id
        assert a.epoch_segments(0, target) == b.epoch_segments(0, target)
        assert a.defense_log == b.defense_log
        assert a.t_ps == b.t_ps == target

    def test_earlier_epoch_does_not_stop_it(self):
        sim, _ = mtd_sim()
        advance_for(sim, 10_000_000)
        sim.invalidate_activity()
        assert sim.advance_to_epoch_change(50_000_000) == 50_000_000
        assert sim.trigger_time_us is None

    def test_time_cannot_run_backwards(self):
        sim, _ = mtd_sim()
        advance_for(sim, 1_000_000)
        with pytest.raises(ScenarioError):
            sim.advance_to_epoch_change(0)



def stream_sim(seed=1, threshold=3.0, alpha_per_k=0.002, tau_us=50.0,
               t_detect=255, **sensor_fields):
    """A key co-simulation with the sensor's fields and the thermal
    constants given; the stimulus does not follow the sensor's clock."""
    sensor = SensorInstance(**{"site": SliceCoord(15, 8), "tune": DEFAULT_TUNE,
                               **sensor_fields})
    thermal = ThermalField(sensor.site, tau_us=tau_us, alpha_per_k=alpha_per_k)
    return CoSimulation(build_key_model(KEY), thermal, sensor,
                        DefensePolicy(mode="none", threshold=threshold),
                        stimulus_for_target_freq(100.0, 1.25), seed, t_detect)


def sensor_raster(sim, dwell_windows=600, power=0.6):
    """Eight dwells along the sensor's row, across its site: 4,800
    windows, at least cosim.STREAM_CACHE_MIN_WINDOWS."""
    site, pitch = sim.sensor.site, sim.thermal.site_pitch_um
    sim.raster([((site.x - 4 + i + 0.5) * pitch, (site.y + 0.5) * pitch)
                for i in range(8)], dwell_windows * sim.window_ps, power, 8.0)


@pytest.fixture
def draws(monkeypatch):
    """The co-simulations that drew their windows, rather than reading
    them from the stream cache, one entry per schedule drawn."""
    drawn = []
    stretch_p0 = CoSimulation._stretch_p0

    def recorded(sim, *args):
        drawn.append(sim)
        return stretch_p0(sim, *args)

    monkeypatch.setattr(CoSimulation, "_stretch_p0", recorded)
    return drawn


class TestStreamCache:
    def test_a_hit_matches_a_fresh_draw(self, chunk, draws):
        # The same sensor, seed and raster: the second run reads the first's
        # windows and leaves the sensor stream where a fresh draw does, so a
        # hold drawn after the raster matches too.
        sensor_raster(stream_sim())
        hit = stream_sim()
        sensor_raster(hit)
        cosim.STREAM_CACHE.clear()
        fresh = stream_sim()
        sensor_raster(fresh)
        assert hit not in draws and fresh in draws
        for sim in (hit, fresh):
            park_on_sensor(sim, power=0.3)
            advance_for(sim, 30 * sim.window_ps)
        assert hit.trigger_ps == fresh.trigger_ps is not None
        assert hit.defense_log == fresh.defense_log
        assert np.array_equal(counter_rows(hit), counter_rows(fresh))
        assert ((window_counts(fresh) > 0) & (window_counts(fresh) < 255)).any()
        assert (hit.sensor_rng.bit_generator.state
                == fresh.sensor_rng.bit_generator.state)

    def test_the_threshold_alone_hits(self, chunk, draws):
        # The threshold takes no part in the draw: a run at another one
        # reads the same windows and fires where a fresh draw at it fires.
        first = stream_sim(threshold=3.0)
        sensor_raster(first)
        hit = stream_sim(threshold=40.0)
        sensor_raster(hit)
        cosim.STREAM_CACHE.clear()
        fresh = stream_sim(threshold=40.0)
        sensor_raster(fresh)
        assert hit not in draws and fresh in draws
        assert hit.trigger_ps == fresh.trigger_ps
        assert first.trigger_ps < hit.trigger_ps
        assert hit.defense_log == fresh.defense_log

    @pytest.mark.parametrize("t_detect, dtype", [(255, np.uint8),
                                                 (300, np.uint16)])
    def test_entries_are_narrow_and_read_only(self, t_detect, dtype):
        # Counts up to the window's 300 samples need 16 bits.  The hit's
        # record holds the stored arrays themselves, with no copy.
        sensor_raster(stream_sim(t_detect=t_detect), power=1.0)
        hit = stream_sim(t_detect=t_detect)
        sensor_raster(hit, power=1.0)
        assert window_counts(hit).max() == t_detect
        (entry, _), = cosim.STREAM_CACHE.values()
        start, offsets, counts = entry
        (held,) = hit.record
        assert held is entry and held[1] is offsets and held[2] is counts
        assert start == 0
        assert offsets.dtype == np.uint32 and counts.dtype == dtype
        assert np.array_equal(window_counts(hit)[offsets], counts)
        assert np.count_nonzero(window_counts(hit)) == len(offsets)
        for stored in (offsets, counts):
            with pytest.raises(ValueError):
                stored[0] = 1

    def test_bounds(self, monkeypatch, draws):
        # At most STREAM_CACHE_ENTRIES schedules, the oldest dropped first.
        entries = cosim.STREAM_CACHE_ENTRIES
        sims = [stream_sim(seed=seed) for seed in range(entries + 2)]
        for sim in sims:
            sensor_raster(sim)
        assert len(cosim.STREAM_CACHE) == entries
        for seed in (entries + 1, 0):
            sim = stream_sim(seed=seed)
            sensor_raster(sim)
            assert (sim in draws) == (seed == 0), seed
        # A schedule of fewer windows, more dwell bytes or more non-zero
        # windows than the bounds is drawn and not kept; one on the bounds
        # is kept.
        windows = len(window_counts(sims[0]))
        nonzero = np.count_nonzero(window_counts(sims[0]))
        for min_windows, key_bytes, kept_nonzero, kept in [
                (windows + 1, 16 * 8, nonzero, False),
                (windows, 16 * 7, nonzero, False),
                (windows, 16 * 8, nonzero - 1, False),
                (windows, 16 * 8, nonzero, True)]:
            cosim.STREAM_CACHE.clear()
            monkeypatch.setattr(cosim, "STREAM_CACHE_MIN_WINDOWS", min_windows)
            monkeypatch.setattr(cosim, "STREAM_CACHE_KEY_BYTES", key_bytes)
            monkeypatch.setattr(cosim, "STREAM_CACHE_NONZERO", kept_nonzero)
            sensor_raster(stream_sim(seed=0))  # eight dwells
            assert len(cosim.STREAM_CACHE) == kept

    def test_a_stream_over_the_bound_builds_no_offsets(self, monkeypatch):
        # Parked on the sensor, almost every window of a hold counts zeros.
        # Over the non-zero bound the draw keeps nothing in the cache, and
        # its peak is the record's 5 bytes a non-zero window, held once, and
        # a chunk's temporaries (about 1.65 MB).
        monkeypatch.setattr(cosim, "STREAM_CACHE_NONZERO", 1000)
        sim = stream_sim()
        park_on_sensor(sim)
        n = 250_000
        tracemalloc.start()
        try:
            advance_for(sim, n * sim.window_ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(window_counts(sim)) > 0.99 * n
        assert not cosim.STREAM_CACHE
        assert peak < 1.5 * n * 8

    # A change to each field of the sensor that keeps it valid; a float
    # field not listed becomes 1.5 x + 1.
    SENSOR_CHANGES = {
        "site": lambda site: SliceCoord(site.x - 1, site.y),
        "chain_len": lambda n: 2 * n,
        "tune": lambda t: TuneValue(t.data_code, t.clock_code, t.lut_select + 1),
        "lut_arity": lambda n: n + 1,
    }

    def test_each_stream_input_misses(self, draws):
        # Every field of the sensor, the thermal constants, the seed, the
        # dwell and the power take part in the draw, so a change to any one
        # of them draws again.  The raster follows a moved sensor, so only
        # the site field tells the schedules apart.
        base = stream_sim().sensor
        variants = [
            (field.name, {field.name: self.SENSOR_CHANGES.get(
                field.name, lambda v: 1.5 * v + 1.0)(getattr(base, field.name))}, {})
            for field in dataclasses.fields(SensorInstance)]
        variants += [("alpha_per_k", {"alpha_per_k": 0.003}, {}),
                     ("tau_us", {"tau_us": 40.0}, {}), ("seed", {"seed": 2}, {}),
                     ("dwell", {}, {"dwell_windows": 601}),
                     ("power", {}, {"power": 0.5})]
        for name, sim_args, raster_args in variants:
            sensor_raster(stream_sim())  # the base schedule, kept
            sim = stream_sim(**sim_args)
            sensor_raster(sim, **raster_args)
            assert draws[-1] is sim, name
        # A raster's temperatures follow from tau_us, the dwell and the
        # power.  Given as temperatures, each input of a schedule alone, and
        # tau_us, at which the cell relaxes within each dwell, draw again.
        window_ps = stream_sim().window_ps
        base = dict(starts=np.array([0.0, 6.0]), steady=np.array([12.0, 3.0]),
                    begin_ps=0, dwell_ps=2500 * window_ps,
                    end_ps=5000 * window_ps)
        for name, sim_args, schedule in [
                ("tau_us", {"tau_us": 40.0}, {}),
                ("starts", {}, {"starts": np.array([0.0, 6.5])}),
                ("steady", {}, {"steady": np.array([12.0, 3.5])}),
                ("begin_ps", {}, {"begin_ps": 1}),
                ("dwell_ps", {}, {"dwell_ps": 2500 * window_ps + 1}),
                ("end_ps", {}, {"end_ps": 4999 * window_ps})]:
            stream_sim()._run_schedule(**base)  # the base schedule, kept
            sim = stream_sim(**sim_args)
            sim._run_schedule(**{**base, **schedule})
            assert draws[-1] is sim, name


@pytest.fixture
def pulse_draws(monkeypatch):
    """The number of entries in the log cache at each draw of max pulses,
    rather than a read of them from the log cache."""
    drawn = []
    window_pulses = cosim.window_pulses

    def recorded(*args):
        drawn.append(len(cosim.LOG_CACHE))
        return window_pulses(*args)

    monkeypatch.setattr(cosim, "window_pulses", recorded)
    return drawn


def raster_log(sim, **raster_args):
    """The counter log of a raster across the sensor, with the pulse
    generator's state after it."""
    sensor_raster(sim, **raster_args)
    return counter_rows(sim), sim.pulse_rng.bit_generator.state


class TestLogCache:
    @pytest.mark.parametrize("threshold", [3.0, None])
    def test_a_hit_matches_a_fresh_draw(self, pulse_draws, threshold):
        # The same log again: the second run reads the first's pulses and
        # leaves the pulse generator where a fresh draw does.
        first = stream_sim(threshold=threshold)
        raster_log(first)
        hit = stream_sim(threshold=threshold)
        rows, state = raster_log(hit)
        assert len(pulse_draws) == 1 and hit.kept_log is first.kept_log
        cosim.LOG_CACHE.clear()
        fresh = stream_sim(threshold=threshold)
        fresh_rows, fresh_state = raster_log(fresh)
        assert len(pulse_draws) == 2
        assert np.array_equal(rows, fresh_rows) and state == fresh_state
        assert hit.counter_columns()[2].dtype == fresh.counter_columns()[2].dtype
        assert ((rows[:, 2] > 1) & (rows[:, 2] < 255)).any()
        assert (rows[:, 3] == 1).any() == (threshold is not None)

    def test_each_log_input_misses(self, pulse_draws):
        # The trigger window, the counts, the seed, the window count, the
        # window size and the pulse generator's state each take part in the
        # log, so a change to any one of them draws again.
        for name, base_args, sim_args, raster_args in [
                ("threshold", {}, {"threshold": 40.0}, {}),
                ("counts", {"threshold": None}, {"threshold": None},
                 {"power": 0.5}),
                ("seed", {}, {"seed": 2}, {}),
                ("windows", {}, {}, {"dwell_windows": 601}),
                ("t_detect", {}, {"t_detect": 254}, {}),
                ("pulse state", {}, {}, {})]:
            base_rows, _ = raster_log(stream_sim(**base_args))  # kept
            sim = stream_sim(**sim_args)
            if name == "pulse state":
                sim.pulse_rng.random()
            drawn = len(pulse_draws)
            rows, _ = raster_log(sim, **raster_args)
            assert len(pulse_draws) == drawn + 1, name
            assert list(cosim.LOG_CACHE.values()) == [sim.kept_log], name
            if name in ("threshold", "counts", "pulse state"):
                # Each alone: the other inputs are the base log's.
                assert len(rows) == len(base_rows), name
                assert (np.array_equal(rows[:, 1], base_rows[:, 1])
                        == (name != "counts")), name
                assert (np.array_equal(rows[:, 3], base_rows[:, 3])
                        == (name != "threshold")), name

    def test_other_counts_in_the_same_windows_miss(self, pulse_draws):
        # Two holds on the sensor whose non-zero windows are the same ones,
        # with other counts: only the counts tell the logs apart.
        logs = []
        for power in (0.45, 0.5):
            sim = stream_sim(threshold=None)
            park_on_sensor(sim, power=power)
            advance_for(sim, 4200 * sim.window_ps)
            logs.append(counter_rows(sim)[:, 1])
        assert len(pulse_draws) == 2
        assert np.array_equal(np.flatnonzero(logs[0]), np.flatnonzero(logs[1]))
        assert not np.array_equal(logs[0], logs[1])

    def test_the_same_counts_in_another_log_miss(self, pulse_draws):
        # Logs written as one record entry, latched from window 99, with the
        # same non-zero counts: one window later, by the offsets or by the
        # entry's start, one more window or another window size is another
        # log.
        counts = np.random.default_rng(5).integers(1, 255, size=400)

        def log(start=0, shift=0, windows=5000, t_detect=255):
            sim = stream_sim(threshold=None, t_detect=t_detect)
            sim.record = [(start, (shift + 10 * np.arange(400)).astype(np.uint32),
                           counts.astype(np.uint8))]
            sim.windows_done = windows
            sim.trigger_ps = 100 * sim.window_ps
            return counter_rows(sim)

        for name, change in [("offsets", {"shift": 1}),
                             ("start", {"start": 1}),
                             ("windows", {"windows": 5001}),
                             ("t_detect", {"t_detect": 254})]:
            base = log()  # kept
            drawn = len(pulse_draws)
            rows = log(**change)
            assert len(pulse_draws) == drawn + 1, name
            assert np.argmax(rows[:, 3]) == np.argmax(base[:, 3]) == 99, name

    @pytest.mark.parametrize("t_detect, dtype", [(255, np.uint8),
                                                 (300, np.uint16)])
    def test_entries_are_narrow_and_read_only(self, t_detect, dtype):
        # Pulses up to the window's 300 samples need 16 bits.
        rows, _ = raster_log(stream_sim(t_detect=t_detect), power=1.0)
        assert rows[:, 2].max() == t_detect
        (kept,) = cosim.LOG_CACHE.values()
        assert kept.pulses.dtype == dtype
        assert np.array_equal(kept.pulses, rows[rows[:, 1] != 0, 2])
        assert kept.body is None  # formatted at the log's first write
        with pytest.raises(ValueError):
            kept.pulses[0] = 1

    def test_bounds(self, monkeypatch, pulse_draws):
        # One entry: a new log drops the last one before its pulses are
        # drawn, so the cache is empty at the draw.
        sims = [stream_sim(seed=seed) for seed in range(3)]
        for sim in sims:
            raster_log(sim)
        assert pulse_draws == [0, 0, 0]
        assert list(cosim.LOG_CACHE.values()) == [sims[-1].kept_log]
        # A log of fewer windows than the floor, or with more non-zero
        # windows than the bound, has no key; one on the bounds has one.
        windows = len(window_counts(sims[0]))
        nonzero = np.count_nonzero(window_counts(sims[0]))
        for min_windows, kept_nonzero, kept in [(windows + 1, nonzero, False),
                                                (windows, nonzero - 1, False),
                                                (windows, nonzero, True)]:
            cosim.LOG_CACHE.clear()
            monkeypatch.setattr(cosim, "STREAM_CACHE_MIN_WINDOWS", min_windows)
            monkeypatch.setattr(cosim, "STREAM_CACHE_NONZERO", kept_nonzero)
            sim = stream_sim(seed=0)
            raster_log(sim)
            assert len(cosim.LOG_CACHE) == kept
            assert (sim.kept_log is not None) == kept

    def test_a_log_read_before_it_ends_is_not_kept_again(self, pulse_draws):
        # A second read of a grown log draws the new windows' pulses after
        # the kept ones, as a single read does, and has no entry.
        read_midway = stream_sim()
        sensor_raster(read_midway)
        counter_rows(read_midway)
        kept = read_midway.kept_log
        sensor_raster(read_midway)
        rows = counter_rows(read_midway)
        assert kept is not None and read_midway.kept_log is None
        cosim.LOG_CACHE.clear()
        once = stream_sim()
        sensor_raster(once)
        sensor_raster(once)
        assert np.array_equal(rows, counter_rows(once))
        assert (read_midway.pulse_rng.bit_generator.state
                == once.pulse_rng.bit_generator.state)
