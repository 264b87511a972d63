import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (DEFAULT_TUNE, advance_for, assert_pulses_of_one_draw,
                      build_key_model, build_sim, counter_rows, kept_logs,
                      window_counts)
from probesim import cosim, defense, harness
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
        assert (hit.pulse_rng.bit_generator.state
                == fresh.pulse_rng.bit_generator.state)

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
        # Counts and pulses up to the window's 300 samples need 16 bits.
        # The hit's record holds the stored arrays themselves, with no copy.
        sensor_raster(stream_sim(t_detect=t_detect), power=1.0)
        hit = stream_sim(t_detect=t_detect)
        sensor_raster(hit, power=1.0)
        rows = counter_rows(hit)
        assert rows[:, 1].max() == rows[:, 2].max() == t_detect
        (entry, *_), = cosim.STREAM_CACHE.values()
        start, offsets, counts, pulses = entry
        (held,) = hit.record
        assert held is entry and held[1] is offsets and held[2] is counts
        assert held[3] is pulses
        assert start == 0
        assert offsets.dtype == np.uint32
        assert counts.dtype == pulses.dtype == dtype
        assert np.array_equal(rows[offsets, 1], counts)
        assert np.array_equal(rows[offsets, 2], pulses)
        assert np.count_nonzero(rows[:, 1]) == len(offsets)
        for stored in (offsets, counts, pulses):
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


def test_a_hot_hold_draws_its_pulses_as_one_log():
    # Parked on the sensor, a hold of 250,000 windows counts zeros in
    # almost all of them, whose pulses are drawn in blocks of
    # RASTER_CHUNK_WINDOWS non-zero windows.
    sim = stream_sim(seed=1)
    park_on_sensor(sim)
    advance_for(sim, 250_000 * sim.window_ps)
    assert len(sim.record[0][1]) > 60 * cosim.RASTER_CHUNK_WINDOWS
    pulses = assert_pulses_of_one_draw(sim, seed=1)
    assert ((pulses > 1) & (pulses < sim.t_detect)).any()


# The non-zero windows of a made-up record entry: every tenth window from
# its start, with these counts and pulses.
LOG_COUNTS = np.random.default_rng(5).integers(1, 255, size=400).astype(np.uint8)
LOG_PULSES = LOG_COUNTS // 3


def made_up_log(path, start=0, shift=0, windows=5000, latched_from=99,
                counts=LOG_COUNTS, pulses=LOG_PULSES, t_detect=255):
    """Write the counter log of a co-simulation whose record is one entry
    of 400 non-zero windows, latched from a window, and return its bytes."""
    sim = stream_sim(threshold=None, t_detect=t_detect)
    sim.record = [(start, (shift + 10 * np.arange(400)).astype(np.uint32),
                   counts.copy(), pulses.copy())]
    sim.windows_done = windows
    sim.trigger_ps = (latched_from + 1) * sim.window_ps
    harness.write_counter_log(path, sim)
    return path.read_bytes()


class TestLogCache:
    def test_a_hit_writes_the_kept_bytes(self, tmp_path, formats):
        # The same record in other arrays, at another window size: the
        # bytes are a function of the record alone, so the second log is
        # written from the first's kept bytes.
        base = made_up_log(tmp_path / "base.csv")
        assert made_up_log(tmp_path / "hit.csv", t_detect=254) == base
        assert formats == [0] and kept_logs() == [base]

    def test_each_key_part_misses(self, tmp_path, formats):
        # The window count, the first latched window and each part of the
        # record entry take part in the log, so a change to any one of them
        # formats again and writes what a fresh process writes.
        counts, pulses = LOG_COUNTS.copy(), LOG_PULSES.copy()
        counts[7] += 1
        pulses[7] += 1
        for name, change in [("windows", {"windows": 5001}),
                             ("first latched", {"latched_from": 100}),
                             ("start", {"start": 1}),
                             ("offsets", {"shift": 1}),
                             ("counts", {"counts": counts}),
                             ("pulses", {"pulses": pulses})]:
            base = made_up_log(tmp_path / "base.csv")  # kept
            formatted = len(formats)
            log = made_up_log(tmp_path / "changed.csv", **change)
            assert len(formats) == formatted + 1, name
            assert kept_logs() == [log], name
            harness.LOG_CACHE.clear()
            assert made_up_log(tmp_path / "fresh.csv", **change) == log, name
            assert log != base, name

    def test_bounds(self, tmp_path, monkeypatch, formats):
        # One entry: a new log drops the last one before it is formatted,
        # so the cache is empty at the format.
        logs = [made_up_log(tmp_path / "log.csv", start=start)
                for start in range(3)]
        assert formats == [0, 0, 0] and kept_logs() == [logs[-1]]
        # A log of fewer windows than the floor, or with more non-zero
        # windows than the bound, has no key, and one over the body bound
        # is written and not kept; one on the bounds is kept.
        size = len(logs[0])
        for min_windows, kept_nonzero, body_bytes, kept in [
                (5001, 400, size, False), (5000, 399, size, False),
                (5000, 400, size - 1, False), (5000, 400, size, True)]:
            harness.LOG_CACHE.clear()
            monkeypatch.setattr(cosim, "STREAM_CACHE_MIN_WINDOWS", min_windows)
            monkeypatch.setattr(cosim, "STREAM_CACHE_NONZERO", kept_nonzero)
            monkeypatch.setattr(harness, "LOG_BODY_BYTES", body_bytes)
            assert made_up_log(tmp_path / "bound.csv") == logs[0]
            assert kept_logs() == [logs[0]] * kept
