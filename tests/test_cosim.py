import numpy as np
import pytest

from conftest import (DEFAULT_TUNE, advance_for, build_key_model, build_sim,
                      counter_rows)
from probesim import cosim, defense
from probesim.cosim import (CoSimulation, ScenarioError, Stimulus,
                            half_period_cycles, stimulus_for_target_freq)
from probesim.defense import DefensePolicy, region_slices
from probesim.fabric import SliceCoord
from probesim.sensor import window_zero_counts
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

    def test_count_view_keeps_its_windows_as_the_buffer_grows(self):
        # A view taken after a hold still reads the hold's windows once a
        # raster has grown the count buffer past them, and cannot be written.
        model = build_key_model(KEY)
        sim = build_sim(model, key=KEY)
        park_on_sensor(sim, power=0.6)
        advance_for(sim, 20 * sim.window_ps)
        held = sim.window_counts
        drawn = held.copy()
        assert len(held) == 20 and (held > 0).any()
        site, pitch = sim.sensor.site, sim.thermal.site_pitch_um
        sim.raster([((site.x + 0.5) * pitch, (site.y + 0.5) * pitch)] * 64,
                   50 * sim.window_ps, 0.6, 8.0)
        assert len(sim.window_counts) == 20 + 64 * 50
        assert np.array_equal(held, drawn)
        assert np.array_equal(sim.window_counts[:20], drawn)
        for view in (held, sim.window_counts):
            with pytest.raises(ValueError):
                view[0] = 7

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
        assert np.array_equal(a.window_counts, b.window_counts)
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
