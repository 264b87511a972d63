import numpy as np
import pytest

from conftest import (DEFAULT_TUNE, advance_for, build_key_model, build_sim,
                      counter_rows)
from probesim.cosim import (ResetToggleStimulus, ScenarioError, ShiftStimulus,
                            stimulus_for_target_freq)
from probesim.defense import DefensePolicy, region_slices
from probesim.fabric import SliceCoord
from probesim.thermal import LaserSpot


KEY = (1, 0, 1, 1, 0, 0, 0, 1)


def mtd_sim(move_sensor=False, mid_pr_state="hold"):
    model = build_key_model(KEY)
    policy = DefensePolicy(mode="mtd_inter", pr_latency_us=223.0,
                           allowed_region=region_slices(26, 4, 30, 12),
                           threshold=3.0, move_sensor=move_sensor,
                           mid_pr_state=mid_pr_state)
    return build_sim(model, key=KEY, policy=policy), model


def park_on_sensor(sim, power=1.0):
    site = sim.sensor.site
    pitch = sim.thermal.site_pitch_um
    sim.set_spot(LaserSpot(((site.x + 0.5) * pitch, (site.y + 0.5) * pitch),
                           power))


class TestStimulus:
    def test_reset_toggle_period(self):
        stim = stimulus_for_target_freq(100.0, 1.25)
        assert stim.period_cycles == 80
        assert stim.inputs_at(0)["rst"] == 0
        assert stim.inputs_at(40)["rst"] == 1
        assert stim.inputs_at(80)["rst"] == 0

    def test_target_freq_above_nyquist_rejected(self):
        with pytest.raises(ScenarioError):
            stimulus_for_target_freq(100.0, 80.0)

    def test_shift_pattern_validation(self):
        with pytest.raises(ScenarioError):
            ShiftStimulus("10a1")
        with pytest.raises(ScenarioError):
            ResetToggleStimulus(0)


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

        class Idle:
            period_cycles = 1
            static = {}

            def inputs_at(self, cycle):
                return {}

        sim = build_sim(model, stimulus=Idle())
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

    def test_mid_pr_zero_clears_state_immediately(self):
        sim, model = mtd_sim(mid_pr_state="zero")
        # Load the key, then fire.
        sim.activity()
        park_on_sensor(sim)
        advance_for(sim, 100_000_000)  # 0.1 ms: fired, not yet complete
        assert sim.trigger_time_us is not None
        if model.hold_protected:
            assert all(model.state[n] == 0 for n in model.protected)

    def test_move_sensor_follows_relocation(self):
        sim, model = mtd_sim(move_sensor=True)
        old_site = sim.sensor.site
        park_on_sensor(sim)
        advance_for(sim, 2_000_000_000)
        assert sim.trigger_time_us is not None
        assert sim.sensor.site != old_site
        assert sim.sensor.site in region_slices(26, 4, 30, 12)

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

    def test_policy_rng_seed_rerolls_placement(self):
        placements = []
        for rng_seed in (0, 1):
            model = build_key_model(KEY)
            policy = DefensePolicy(mode="mtd_inter", pr_latency_us=223.0,
                                   allowed_region=region_slices(26, 4, 30, 12),
                                   threshold=3.0, rng_seed=rng_seed)
            sim = build_sim(model, key=KEY, policy=policy)
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

    def test_counts_follow_the_binomial_stream(self):
        # The zero counts are the sensor stream's binomial draws; the max
        # pulses come from a stream of their own.
        model = build_key_model(KEY)
        sim = build_sim(model, key=KEY)
        park_on_sensor(sim)
        # One batch of 39 windows, projected from the unheated start.
        ends_us = (np.arange(39) + 1) * sim.window_ps / 1e6
        p0 = sim.sensor.zero_probability(
            1.0 + sim.thermal.alpha_per_k * sim.thermal.project(sim.sensor.site, ends_us))
        advance_for(sim, 100_000_000)
        rows = counter_rows(sim)
        ref = np.random.default_rng(np.random.SeedSequence(1).spawn(1)[0])
        assert np.array_equal(rows[:, 1], ref.binomial(255, p0))
        assert (rows[:, 2] <= rows[:, 1]).all()

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


class TestAdvanceToEpochChange:
    def test_stops_at_the_trigger_then_at_the_completion(self):
        sim, _ = mtd_sim()
        park_on_sensor(sim)
        target = 2_000_000_000
        t_fire = sim.advance_to_epoch_change(target)
        assert sim.trigger_time_us is not None
        assert t_fire == round(sim.trigger_time_us * 1e6) == sim.t_ps
        assert sim.epoch_segments(0, t_fire + 1)[-1][0] == t_fire
        assert sim.pending_event is not None
        t_done = sim.advance_to_epoch_change(target)
        assert t_done == round(sim.defense_log[0]["event_complete_us"] * 1e6)
        assert sim.pending_event is None
        assert sim.epoch_segments(0, t_done + 1)[-1][0] == t_done
        assert sim.advance_to_epoch_change(target) == target

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
        assert a.window_counts == b.window_counts
        assert a._epochs == b._epochs
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
