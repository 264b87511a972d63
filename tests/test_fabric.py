import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probesim.fabric import (CombinationalCycleError, FabricError,
                             FabricModel, FlipFlop, Lut, SliceCoord,
                             evaluate_lut)


def make_lut(init_bits, k=None, name="l0", site=SliceCoord(0, 0)):
    k = k if k is not None else max((len(init_bits) - 1).bit_length(), 1)
    return Lut(name, tuple(init_bits), tuple(f"i{j}" for j in range(k)),
               "out", site)


class TestEvaluateLut:
    def test_four_input_and(self):
        # One hot bit at index 15: output is 1 only for inputs 1111.
        lut = make_lut([0] * 15 + [1], k=4)
        assert evaluate_lut(lut, [1, 1, 1, 1]) == 1
        assert evaluate_lut(lut, [1, 1, 1, 0]) == 0
        assert evaluate_lut(lut, [0, 0, 0, 0]) == 0

    def test_constant_zero_table(self):
        lut = make_lut([0] * 16, k=4)
        for pattern in range(16):
            inputs = [(pattern >> i) & 1 for i in range(4)]
            assert evaluate_lut(lut, inputs) == 0

    def test_random_init_reproduces_table_in_order(self):
        rng = np.random.default_rng(7)
        init = [int(b) for b in rng.integers(0, 2, size=16)]
        lut = make_lut(init, k=4)
        got = []
        for index in range(16):
            inputs = [(index >> i) & 1 for i in range(4)]
            got.append(evaluate_lut(lut, inputs))
        assert got == init

    def test_input_zero_is_least_significant(self):
        # Table [0, 1, 0, 0]: only input pattern (i0=1, i1=0) -> index 1.
        lut = make_lut([0, 1, 0, 0], k=2)
        assert evaluate_lut(lut, [1, 0]) == 1
        assert evaluate_lut(lut, [0, 1]) == 0

    def test_arity_mismatch_rejected(self):
        lut = make_lut([0, 1, 1, 0], k=2)
        with pytest.raises(FabricError):
            evaluate_lut(lut, [1, 0, 1])

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_exhaustive_purity(self, k, data):
        bits = data.draw(st.lists(st.integers(0, 1), min_size=2 ** k,
                                  max_size=2 ** k))
        lut = make_lut(bits, k=k)
        for index in range(2 ** k):
            inputs = [(index >> i) & 1 for i in range(k)]
            first = evaluate_lut(lut, inputs)
            assert first == bits[index]
            assert evaluate_lut(lut, inputs) == first

    def test_bad_init_length_rejected(self):
        with pytest.raises(FabricError):
            make_lut([0, 1, 1], k=2)


def build_shift_register(n=8):
    model = FabricModel()
    model.add_input("sin")
    model.add_input("rst")
    prev = "sin"
    for i in range(n):
        model.add_ff(FlipFlop(f"s{i}", d=prev, q=f"s{i}_q", rst="rst",
                              site=SliceCoord(i, 0), slot=0))
        prev = f"s{i}_q"
    model.validate()
    return model


class TestStepClock:
    def test_shift_register_loads_serial_pattern(self):
        model = build_shift_register(8)
        pattern = [1, 0, 1, 1, 0, 0, 0, 1]
        for bit in pattern:
            model.step_clock({"sin": bit, "rst": 0})
        # After 8 clocks the first-in bit has reached the last stage.
        state = [model.state[f"s{i}"] for i in range(8)]
        assert state == pattern[::-1]

    def test_sync_reset_beats_data_and_enable(self):
        model = FabricModel()
        model.add_input("d")
        model.add_input("rst")
        model.add_input("ce")
        model.add_ff(FlipFlop("f", d="d", q="q", ce="ce", rst="rst", init=1))
        model.validate()
        model.step_clock({"d": 1, "ce": 1, "rst": 1})
        assert model.state["f"] == 0

    def test_clock_enable_low_holds(self):
        model = FabricModel()
        model.add_input("d")
        model.add_input("ce")
        model.add_ff(FlipFlop("f", d="d", q="q", ce="ce", init=1))
        model.validate()
        model.step_clock({"d": 0, "ce": 0})
        assert model.state["f"] == 1
        model.step_clock({"d": 0, "ce": 1})
        assert model.state["f"] == 0

    def test_xor_block_settles_combinationally(self):
        model = FabricModel()
        a_bits, b_bits = [0, 1, 0, 1], [1, 0, 1, 0]  # a=0101, b=1010 msb-first
        inputs = {}
        for i in range(4):
            model.add_input(f"a{i}")
            model.add_input(f"b{i}")
            model.add_lut(Lut(f"x{i}", (0, 1, 1, 0), (f"a{i}", f"b{i}"),
                              f"c{i}", SliceCoord(i, 1)))
            inputs[f"a{i}"] = a_bits[3 - i]
            inputs[f"b{i}"] = b_bits[3 - i]
        model.validate()
        values = model.settle(inputs)
        assert [values[f"c{i}"] for i in range(4)] == [1, 1, 1, 1]

    def test_deterministic_next_state(self):
        m1 = build_shift_register(4)
        m2 = build_shift_register(4)
        seq = [{"sin": b, "rst": 0} for b in (1, 0, 1, 1)]
        for inp in seq:
            s1 = m1.step_clock(inp)
            s2 = m2.step_clock(inp)
            assert s1 == s2

    def test_combinational_cycle_rejected(self):
        model = FabricModel()
        model.add_lut(Lut("g0", (0, 1), ("n1",), "n0", SliceCoord(0, 0), 0))
        model.add_lut(Lut("g1", (0, 1), ("n0",), "n1", SliceCoord(0, 0), 1))
        with pytest.raises(CombinationalCycleError):
            model.validate()

    def test_unknown_input_net_rejected(self):
        model = build_shift_register(2)
        with pytest.raises(FabricError):
            model.step_clock({"bogus": 1})


class TestPlacement:
    def test_duplicate_slot_rejected(self):
        model = FabricModel()
        model.add_input("d")
        model.add_ff(FlipFlop("f0", d="d", q="q0", site=SliceCoord(1, 1), slot=2))
        with pytest.raises(FabricError):
            model.add_ff(FlipFlop("f1", d="d", q="q1", site=SliceCoord(1, 1),
                                  slot=2))
            model.check_placement()

    def test_off_grid_site_rejected(self):
        model = FabricModel(grid_width=4, grid_height=4)
        model.add_input("d")
        with pytest.raises(FabricError):
            model.add_ff(FlipFlop("f", d="d", q="q", site=SliceCoord(4, 0)))

    def test_two_drivers_rejected(self):
        model = FabricModel()
        model.add_input("d")
        model.add_ff(FlipFlop("f0", d="d", q="q", site=SliceCoord(0, 0)))
        with pytest.raises(FabricError):
            model.add_ff(FlipFlop("f1", d="d", q="q", site=SliceCoord(0, 1)))
