"""Acceptance suite: one test per release criterion.

Each criterion prints a single pass/fail line (visible with ``pytest -s``
or ``-rA``) and asserts its stated runtime budget.  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from conftest import build_key_model
from probesim.defense import permute_intra, apply_intra_permutation
from probesim.fabric import FabricModel, FlipFlop, SliceCoord
from probesim.harness import load_scenario, report_resources, run
from probesim.sensor import (SensorInstance, TuneValue, chain_code_bits,
                             chain_delay, decode_chain_taps, is_metastable,
                             max_zero_count, probe_zero_rate, read_counters,
                             tune)
from probesim.thermal import LaserSpot, ThermalField

SCENARIOS = Path(__file__).resolve().parents[1] / "src/probesim/scenarios"


@contextmanager
def criterion(number, budget_s, description):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\ncriterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\ncriterion {number}: PASS ({elapsed:.2f}s of {budget_s:.0f}s) "
          f"- {description}")
    assert elapsed < budget_s, f"criterion {number} exceeded runtime budget"


def test_criterion_1_chain_encoding_oracle():
    with criterion(1, 1.0, "chain encoding matches per-element sum for "
                           "m=4 and m=8, worked example decodes correctly"):
        for chain_len in (4, 8):
            bits = chain_code_bits(chain_len)
            for code in range(2 ** bits):
                n_max = code >> 5
                taps = [min(code & 0x1F, 30)] + [30] * n_max
                taps += [0] * (chain_len - 1 - n_max)
                # One 600 ps element plus 78 ps per tap, per element.
                oracle = 0.0
                for tap in taps:
                    oracle += 600.0 + tap * 78.0
                assert chain_delay(code, chain_len) == oracle
        taps = decode_chain_taps(0b1010111, 4)
        assert taps[0] == 0b10111
        assert taps.count(30) == 2
        assert taps.count(0) == 1


def test_criterion_2_tuner_optimality():
    with criterion(2, 30.0, "search tune matches the exhaustive optimum on "
                            "the reduced space (m=2) for 10 seeds"):
        t_sense_ms = 10.0
        for seed in range(1, 11):
            searcher = SensorInstance(chain_len=2)
            found = tune(searcher, seed, t_sense_ms)
            found_score = max_zero_count(searcher, found, seed, t_sense_ms)
            oracle = SensorInstance(chain_len=2)
            best = None
            for d in range(32):
                for c in range(2 ** oracle.clock_code_bits):
                    for s in range(oracle.lut_arity):
                        cand = TuneValue(d, c, s)
                        if not is_metastable(probe_zero_rate(oracle, cand, seed)):
                            continue
                        score = max_zero_count(oracle, cand, seed, t_sense_ms)
                        if best is None or score < best:
                            best = score
            assert best is not None
            assert found_score == best, f"seed {seed}: {found_score} != {best}"


def test_criterion_3_trigger_margin():
    with criterion(3, 30.0, "laser-off and laser-on zero-count distributions "
                            "over 1000 windows are separable with 0 FP/FN"):
        sensor = SensorInstance(site=SliceCoord(15, 8))
        tune(sensor, seed=1)
        field = ThermalField(sensor.site)
        rng = np.random.default_rng(31)
        off_counts = [read_counters(sensor, field, rng, 255).zero_count
                      for _ in range(1000)]
        # Park the beam on the sensor and let heating reach steady state.
        x = (sensor.site.x + 0.5) * field.site_pitch_um
        y = (sensor.site.y + 0.5) * field.site_pitch_um
        field.set_spot(LaserSpot((x, y), power=1.0))
        for _ in range(20):
            field.advance(50.0)
        on_counts = [read_counters(sensor, field, rng, 255).zero_count
                     for _ in range(1000)]
        gap_lo, gap_hi = max(off_counts), min(on_counts)
        assert gap_lo < gap_hi, "distributions overlap"
        threshold = (gap_lo + gap_hi) / 2.0
        false_pos = sum(c >= threshold for c in off_counts)
        false_neg = sum(c < threshold for c in on_counts)
        assert false_pos == 0 and false_neg == 0


def test_criterion_4_timing_race_and_key_recovery():
    with criterion(4, 300.0, "223us relocation beats the 1ms dwell; "
                             "unprotected recovers 8/8, protected sites go "
                             "dark and accuracy sits at 0.5 +- 0.15"):
        unprot = run(load_scenario(SCENARIOS / "unprotected_key.scn"))
        assert unprot.summary.bits_correct == 8
        assert unprot.summary.bits_total == 8

        prot = run(load_scenario(SCENARIOS / "mtd_inter_key.scn"))
        assert prot.summary.trigger_time_us is not None
        log = prot.sim.defense_log[0]
        gap_us = log["event_complete_us"] - log["trigger_time_us"]
        assert gap_us == pytest.approx(223.0)
        assert gap_us * 1e3 <= 1e6  # completes within one 1 ms pixel dwell
        # Original register sites show no above-threshold pixel (the sites
        # the image was scanned against are the pre-relocation ones).
        scn = load_scenario(SCENARIOS / "mtd_inter_key.scn")
        model_sites = []
        from probesim.netlist import load_netlist
        model = load_netlist(scn.netlist_path)
        for name in model.protected:
            ff = model.ffs[name]
            model_sites.append(model.slot_position_um(ff.site, ff.slot, "ff"))
        for sx, sy in model_sites:
            assert prot.image.amplitude_at_um(sx, sy) < scn.bit_threshold

        accuracies = []
        for seed in range(1, 21):
            result = run(load_scenario(SCENARIOS / "mtd_inter_key.scn", seed))
            assert result.summary.trigger_time_us is not None
            accuracies.append(result.summary.bits_correct
                              / result.summary.bits_total)
        mean_acc = float(np.mean(accuracies))
        assert 0.35 <= mean_acc <= 0.65, f"mean accuracy {mean_acc}"


def test_criterion_5_eop_shift_register():
    with criterion(5, 60.0, "EOP reconstructs the shift pattern with "
                            "edge-aligned transitions and 1/sqrt(N) noise"):
        result = run(load_scenario(SCENARIOS / "eop_shift.scn"))
        pattern = [1, 0, 1, 1, 0, 0, 0, 1]
        cycle_ps = 10_000
        for cell, stage in (("s2", 2), ("s5", 5)):
            trace = result.traces[cell]
            cyc = (trace.times_ps // cycle_ps).astype(int)
            clean = np.array([pattern[(c - stage) % 8] for c in cyc])
            # Thresholded trace equals the programmed pattern sample-exact,
            # so every transition lands on its clock edge.
            binary = (trace.values > 0.5).astype(int)
            assert (binary == clean).all()
            flips = np.flatnonzero(np.diff(binary) != 0) + 1
            samples_per_cycle = cycle_ps // trace.resolution_ps
            assert len(flips) > 0
            assert all(f % samples_per_cycle == 0 for f in flips)
            resid = trace.values - clean
            predicted = 1.0 / math.sqrt(trace.iterations)
            assert abs(resid.std() - predicted) / predicted < 0.10


def test_criterion_6_function_recovery_and_defeat():
    with criterion(6, 120.0, "unprotected scan reconstructs bitwise XOR "
                             "exactly; polymorphic defense zeroes every "
                             "recovered output"):
        unprot = run(load_scenario(SCENARIOS / "xor_unprotected.scn"))
        table = unprot.summary.function_table
        for (a, b), out in table.items():
            assert out == f"{(a ^ b):04b}", f"({a},{b}) -> {out}"
        assert table[(0b0101, 0b1010)] == "1111"
        # Per-bit truth table from the single-bit vectors matches XOR.
        per_bit = {(0, 0): table[(0, 0)][-1], (1, 0): table[(15, 0)][-1],
                   (0, 1): table[(0, 15)][-1], (1, 1): table[(15, 15)][-1]}
        assert per_bit == {(0, 0): "0", (1, 0): "1", (0, 1): "1", (1, 1): "0"}

        prot = run(load_scenario(SCENARIOS / "xor_polymorphic.scn"))
        assert prot.summary.trigger_time_us is not None
        for out in prot.summary.function_table.values():
            assert out == "0000"


def test_criterion_7_stability():
    with criterion(7, 120.0, "30-minute idle run: no trigger, running max "
                             "plateaus inside 10 minutes, rolling average "
                             "below 1"):
        result = run(load_scenario(SCENARIOS / "stability.scn"))
        report = result.stability
        assert report.duration_min == 30.0
        assert report.triggered is False
        assert report.plateau_time_us <= 10.0 * 6e7
        assert report.rolling_max < 1.0


def test_criterion_8_resource_accounting():
    with criterion(8, 10.0, "default sensor costs exactly 1 LUT, 9 delay "
                            "elements, and 1 FF"):
        scn = load_scenario(SCENARIOS / "unprotected_key.scn")
        from probesim.defense import DefensePolicy
        from probesim.netlist import load_netlist
        model = load_netlist(scn.netlist_path)
        sensor = SensorInstance(chain_len=8)
        res = report_resources(model, sensor, DefensePolicy(mode="none"))
        assert res["sensor_luts"] == 1
        assert res["sensor_delay_elements"] == 9
        assert res["sensor_ffs"] == 1


def test_criterion_9_permutation_space():
    with criterion(9, 30.0, "3-bit permutations hit all 3! outcomes "
                            "uniformly; logical readback is invariant"):
        rng = np.random.default_rng(99)
        counts = {}
        draws = 10_000
        for _ in range(draws):
            p = permute_intra(3, rng)
            counts[p.mapping] = counts.get(p.mapping, 0) + 1
        assert len(counts) == 6
        _, pvalue = stats.chisquare(list(counts.values()))
        assert pvalue > 0.01
        # Readback invariance under every one of the six permutations.
        key = (1, 0, 1)
        for mapping in counts:
            model = build_key_model(key=key, x0=4, y=4)
            inputs = {f"kd{i}": b for i, b in enumerate(key)}
            inputs["rst"] = 0
            model.step_clock(inputs)
            from probesim.defense import Permutation
            apply_intra_permutation(model, Permutation(mapping))
            model.step_clock(inputs)
            assert model.read_protected_bits() == list(key)
