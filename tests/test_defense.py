import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from probesim.defense import (CapacityError, DefenseError, DefensePolicy,
                              Permutation, apply_event,
                              apply_intra_permutation, apply_placement,
                              current_placement, free_ff_slots, on_trigger,
                              permute_intra, region_slices, relocate_inter)
from probesim.fabric import (LATCH_NET, FabricModel, FlipFlop, SliceCoord,
                             evaluate_lut)
from probesim.netlist import load_netlist

SCENARIOS = Path(__file__).resolve().parents[1] / "src/probesim/scenarios"


def key_model(key=(1, 0, 1, 1, 0, 0, 0, 1), x0=16, y=8):
    model = FabricModel()
    model.add_input("rst")
    for i, bit in enumerate(key):
        model.add_input(f"kd{i}")
        model.add_ff(FlipFlop(f"k{i}", d=f"kd{i}", q=f"k{i}_q", rst="rst",
                              site=SliceCoord(x0 + i, y), slot=1))
    model.set_protected([f"k{i}" for i in range(len(key))])
    model.validate()
    return model


def load_key(model, key):
    inputs = {f"kd{i}": b for i, b in enumerate(key)}
    inputs["rst"] = 0
    model.step_clock(inputs)
    return inputs


class TestPermutation:
    def test_identity_for_single_bit(self):
        rng = np.random.default_rng(0)
        assert permute_intra(1, rng).mapping == (0,)

    def test_bijectivity(self):
        rng = np.random.default_rng(1)
        for n in (2, 3, 5, 8):
            p = permute_intra(n, rng)
            assert sorted(p.mapping) == list(range(n))
            assert sorted(p(i) for i in range(n)) == list(range(n))

    @given(st.integers(2, 8), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_always_a_permutation(self, n, seed):
        p = permute_intra(n, np.random.default_rng(seed))
        assert sorted(p.mapping) == list(range(n))

    def test_all_factorial_outcomes_uniform(self):
        # 3! = 6 permutations, each about 1/6 of 10^4 draws (chi-square).
        rng = np.random.default_rng(1234)
        counts = {}
        draws = 10_000
        for _ in range(draws):
            p = permute_intra(3, rng)
            counts[p.mapping] = counts.get(p.mapping, 0) + 1
        assert len(counts) == 6
        observed = [counts[p] for p in sorted(counts)]
        _, pvalue = stats.chisquare(observed)
        assert pvalue > 0.01
        expected = draws / 6
        sigma = (draws * (1 / 6) * (5 / 6)) ** 0.5
        assert all(abs(c - expected) <= 3 * sigma for c in observed)

    def test_rejects_non_bijection(self):
        with pytest.raises(DefenseError):
            Permutation((0, 0, 1))

    def test_cycle_notation(self):
        assert Permutation((1, 2, 0)).cycle_notation() == "(0 1 2)"
        assert Permutation((0, 1, 2)).cycle_notation() == "(0)(1)(2)"


class TestPolymorphicLut:
    def test_bundled_luts_switch_to_zero_on_the_latch(self):
        # Each XOR LUT of xor4_poly.net computes a ^ b while the sensor
        # latch net is 0 and a constant 0 once it is 1.
        model = load_netlist(SCENARIOS / "xor4_poly.net")
        luts = [lut for lut in model.luts.values()
                if lut.input_nets[-1] == LATCH_NET]
        assert len(luts) == 4
        for lut, (a, b) in itertools.product(
                luts, itertools.product((0, 1), repeat=2)):
            assert evaluate_lut(lut, [a, b, 0]) == a ^ b
            assert evaluate_lut(lut, [a, b, 1]) == 0


class TestRelocateInter:
    def test_degenerate_region_shuffles_slots_only(self):
        model = key_model()
        region = [SliceCoord(16 + i, 8) for i in range(8)]
        placement = relocate_inter(model, region, np.random.default_rng(0))
        for name, (site, slot) in placement.items():
            assert site in region

    def test_slice_choice_uniform_over_seeds(self):
        # 8 bits, 8 candidate slices with equal capacity: each bit's slice
        # choice is uniform at 1/8 (chi-square over 10^4 seeds).
        model = key_model()
        region = region_slices(26, 4, 29, 5)  # 8 slices
        assert len(region) == 8
        counts = {site: 0 for site in region}
        draws = 10_000
        rng = np.random.default_rng(777)
        for _ in range(draws):
            placement = relocate_inter(model, region, rng)
            site, _ = placement["k0"]
            counts[site] += 1
        observed = list(counts.values())
        _, pvalue = stats.chisquare(observed)
        assert pvalue > 0.01
        sigma = (draws * (1 / 8) * (7 / 8)) ** 0.5
        assert all(abs(c - draws / 8) <= 4 * sigma for c in observed)

    def test_injectivity_preserved(self):
        model = key_model()
        region = region_slices(26, 4, 30, 12)
        for seed in range(20):
            placement = relocate_inter(model, region,
                                       np.random.default_rng(seed))
            slots = list(placement.values())
            assert len(set(slots)) == len(slots)
            apply_placement(model, placement)
            model.check_placement()

    def test_capacity_error(self):
        model = key_model()
        region = [SliceCoord(26, 4)]  # 4 slots for 8 bits
        with pytest.raises(CapacityError):
            relocate_inter(model, region, np.random.default_rng(0))

    def test_one_time_randomness(self):
        model = key_model()
        region = region_slices(26, 4, 30, 12)
        p1 = relocate_inter(model, region, np.random.default_rng(1))
        p2 = relocate_inter(model, region, np.random.default_rng(2))
        assert p1 != p2


class TestOnTrigger:
    def test_mtd_inter_schedules_after_latency(self):
        model = key_model()
        policy = DefensePolicy(mode="mtd_inter", pr_latency_us=223.0,
                               allowed_region=region_slices(26, 4, 30, 12))
        event = on_trigger(policy, model, 0.0, np.random.default_rng(0))
        assert event is not None
        assert event.completes_at_us == pytest.approx(223.0)
        assert model.hold_protected is True
        apply_event(model, event)
        assert model.hold_protected is False
        sites = {model.ffs[n].site for n in model.protected}
        assert sites <= set(policy.allowed_region)

    def test_mode_none_does_nothing(self):
        model = key_model()
        policy = DefensePolicy(mode="none")
        assert on_trigger(policy, model, 0.0, np.random.default_rng(0)) is None
        assert model.hold_protected is False

    def test_capacity_fallback_zeroizes(self):
        model = key_model()
        key = (1, 0, 1, 1, 0, 0, 0, 1)
        load_key(model, key)
        policy = DefensePolicy(mode="mtd_inter",
                               allowed_region=[SliceCoord(26, 4)])
        event = on_trigger(policy, model, 0.0, np.random.default_rng(0))
        assert event is None
        assert policy.mode == "zeroize"
        model.step_clock(load_key(model, key))
        assert model.read_protected_bits() == [0] * 8

    def test_zeroize_clears_only_protected(self):
        model = key_model()
        model.add_input("other_d")
        model.add_ff(FlipFlop("bystander", d="other_d", q="by_q",
                              site=SliceCoord(0, 0), init=1))
        model.validate()
        key = (1, 1, 1, 1, 1, 1, 1, 1)
        inputs = load_key(model, key)
        inputs["other_d"] = 1
        model.step_clock(inputs)
        assert model.read_protected_bits() == list(key)
        policy = DefensePolicy(mode="zeroize")
        assert on_trigger(policy, model, 0.0, np.random.default_rng(0)) is None
        model.step_clock(inputs)
        assert model.read_protected_bits() == [0] * 8
        assert model.state["bystander"] == 1

    def test_mtd_modes_need_positive_latency(self):
        with pytest.raises(DefenseError):
            DefensePolicy(mode="mtd_inter", pr_latency_us=0.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(DefenseError):
            DefensePolicy(mode="teleport")


class TestFunctionalTransparency:
    def test_inter_relocation_preserves_logical_readback(self):
        key = (1, 0, 1, 1, 0, 0, 0, 1)
        model = key_model(key)
        inputs = load_key(model, key)
        before = model.read_protected_bits()
        policy = DefensePolicy(mode="mtd_inter",
                               allowed_region=region_slices(26, 4, 30, 12))
        event = on_trigger(policy, model, 0.0, np.random.default_rng(3))
        apply_event(model, event)
        # Cycle-by-cycle equivalence once the reconfiguration completes.
        for _ in range(5):
            model.step_clock(inputs)
            assert model.read_protected_bits() == before == list(key)

    def test_intra_permutation_preserves_logical_readback(self):
        key = (1, 0, 1, 1, 0, 0, 0, 1)
        for seed in range(10):
            model = key_model(key)
            inputs = load_key(model, key)
            perm = permute_intra(8, np.random.default_rng(seed))
            apply_intra_permutation(model, perm)
            for _ in range(3):
                model.step_clock(inputs)
                assert model.read_protected_bits() == list(key)

    def test_intra_permutation_moves_physical_contents(self):
        key = (1, 0, 1, 1, 0, 0, 0, 1)
        model = key_model(key)
        inputs = load_key(model, key)
        perm = Permutation((7, 6, 5, 4, 3, 2, 1, 0))
        apply_intra_permutation(model, perm)
        model.step_clock(inputs)
        # The FF at bit 0's original slot now stores bit 7's value.
        by_site = {model.ffs[n].site.x: model.state[n] for n in model.ffs}
        assert [by_site[16 + i] for i in range(8)] == list(reversed(key))
