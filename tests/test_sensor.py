import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import bdtr
from scipy.stats import chi2_contingency, chisquare

from probesim.fabric import SliceCoord
from probesim.sensor import (PROBE, SCORE, SensorInstance, SensorReadout,
                             TuneValue, TuningError, _smallest,
                             _smallest_near, _splitmix64, chain_code_bits,
                             chain_delay, decode_chain_taps, is_metastable,
                             longest_run, max_count,
                             max_zero_count, probe_count, probe_zero_rate,
                             pulse_cdf, read_counters, ro_calibration,
                             tap_from_code, tune, tune_uniform, window_pulses,
                             window_zero_counts)
from probesim.thermal import LaserSpot, ThermalField


# Sample-level reference models.  No scenario path uses them; the tests
# check the sensor's closed forms and window statistics against them.


def one_probability(sensor: SensorInstance, factor=1.0):
    return 1.0 - sensor.zero_probability(factor)


def sample(sensor: SensorInstance, thermal, rng) -> int:
    """Draw one sensor output bit under the current thermal state."""
    p1 = one_probability(sensor, thermal.delay_factor(thermal.delta_t))
    return int(rng.random() < p1)


def counters_from_stream(bits: np.ndarray, window: int) -> SensorReadout:
    """Readout over an explicit sample stream (1s and 0s) of length window."""
    bits = np.asarray(bits)
    if bits.size != window:
        raise ValueError(f"stream has {bits.size} samples, window is {window}")
    zeros = bits == 0
    return SensorReadout(int(zeros.sum()), longest_run(zeros), window)


def update_latch(latched: bool, readout: SensorReadout,
                 threshold: float) -> bool:
    """Sticky trigger: the latch after one window, given the latch before
    it; it sets once the window zero count reaches threshold."""
    if not 0 < threshold <= readout.window:
        raise ValueError(f"threshold {threshold} outside (0, {readout.window}]")
    return latched or readout.zero_count >= threshold


def brute_force_chain_delay(code, chain_len, per_tap=78.0, base=600.0):
    """Independent oracle: build one delay element per decoded tap and sum.

    Decode per the chain definition: 5 LSBs set one element (the top code
    addresses the top tap), the MSBs count elements at maximum delay, the
    rest stay at minimum.
    """
    n = int(math.log2(chain_len))
    fine_code = code & 0x1F
    n_max = code >> 5
    taps = [min(fine_code, 30)] + [30] * n_max + [0] * (chain_len - 1 - n_max)
    total = 0.0
    for tap in taps:
        total += base + tap * per_tap
    return total


class TestChainDelay:
    def test_minimum_code_is_all_elements_at_base(self):
        assert chain_delay(0, 4, 78.0, 600.0) == 4 * 600.0

    def test_worked_example_decomposition(self):
        # Code 1010111 on a 4-long chain: one element at tap 10111, two at
        # maximum delay, one at minimum.
        taps = decode_chain_taps(0b1010111, 4)
        assert sorted(taps) == sorted([0b10111, 30, 30, 0])
        assert taps[0] == 0b10111

    @pytest.mark.parametrize("chain_len", [2, 4, 8])
    def test_matches_per_element_sum_exhaustively(self, chain_len):
        bits = chain_code_bits(chain_len)
        for code in range(2 ** bits):
            assert chain_delay(code, chain_len) == brute_force_chain_delay(
                code, chain_len)

    def test_code_width_enforced(self):
        with pytest.raises(ValueError):
            chain_delay(2 ** 7, 4)
        with pytest.raises(ValueError):
            chain_delay(-1, 4)

    def test_chain_length_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            chain_delay(0, 3)

    def test_top_code_addresses_top_tap(self):
        assert tap_from_code(31) == 30
        assert tap_from_code(30) == 30
        assert tap_from_code(17) == 17

    def test_monotone_nondecreasing_in_code(self):
        delays = [chain_delay(c, 8) for c in range(256)]
        assert all(b >= a for a, b in zip(delays, delays[1:]))


def make_field(site=SliceCoord(0, 0)):
    """The thermal field of a sensor at ``site``."""
    return ThermalField(site)


def sensor_with_slack(slack_ps, jitter=15.0):
    """Sensor whose ambient slack is forced through the offset knob."""
    s = SensorInstance(jitter_sigma_ps=jitter)
    s.tune = TuneValue(16, 2, 2)
    s.ambient_offset_ps = slack_ps - s.slack_ps(1.0)
    assert s.slack_ps(1.0) == pytest.approx(slack_ps)
    return s


class TestSample:
    def test_deep_positive_slack_is_constant_one(self):
        s = sensor_with_slack(10 * 15.0)
        assert one_probability(s, 1.0) > 1 - 1e-15
        rng = np.random.default_rng(0)
        field = make_field()
        assert all(sample(s, field, rng) == 1 for _ in range(1000))

    def test_zero_slack_is_balanced(self):
        s = sensor_with_slack(0.0)
        assert one_probability(s, 1.0) == pytest.approx(0.5)

    def test_deep_negative_slack_is_constant_zero(self):
        s = sensor_with_slack(-10 * 15.0)
        assert s.zero_probability(1.0) > 1 - 1e-15

    def test_heated_zero_rate_matches_closed_form(self):
        # Monte-Carlo zero rate against the analytic boundary model at a
        # heated site, within three standard errors.
        s = SensorInstance(site=SliceCoord(4, 4))
        s.tune = TuneValue(16, 2, 2)
        field = make_field(s.site)
        # A long hold over the site settles its cell at power * 0.4 * 50,
        # which is 8 K.
        field.set_spot(LaserSpot(((4 + 0.5) * 10.0, (4 + 0.5) * 10.0), 0.4))
        field.advance(5000.0)
        delta_t = field.delta_t
        assert delta_t == pytest.approx(8.0, rel=1e-12)
        factor = field.delay_factor(delta_t)
        p0 = s.zero_probability(factor)
        assert 0.01 < p0 < 0.99  # meaningful test point
        rng = np.random.default_rng(42)
        n = 100_000
        zeros = sum(1 - sample(s, field, rng) for _ in range(n))
        se = math.sqrt(p0 * (1 - p0) / n)
        assert abs(zeros / n - p0) < 3 * se

    def test_zero_probability_monotone_in_delta_t(self):
        s = SensorInstance()
        s.tune = TuneValue(16, 2, 2)
        field = make_field()
        p0s = [s.zero_probability(field.delay_factor(dt))
               for dt in np.linspace(0.0, 25.0, 26)]
        assert all(b >= a for a, b in zip(p0s, p0s[1:]))

    def test_slack_affine_in_delay_factor(self):
        s = SensorInstance()
        s.tune = TuneValue(20, 40, 3)
        s0, s1, s2 = (s.slack_ps(f) for f in (1.0, 1.01, 1.02))
        assert s1 - s0 == pytest.approx(s2 - s1)
        assert s1 < s0  # heating must shift toward the zero side


class TestCounters:
    def test_all_ones_stream(self):
        r = counters_from_stream(np.ones(10, dtype=int), 10)
        assert (r.zero_count, r.max_pulse_len) == (0, 0)

    def test_documented_stream(self):
        bits = np.array([1, 1, 1, 0, 0, 1, 1, 1, 0, 1])
        r = counters_from_stream(bits, 10)
        assert (r.zero_count, r.max_pulse_len) == (3, 2)

    def test_pulse_length_bounded_by_zero_count(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            bits = rng.integers(0, 2, size=255)
            r = counters_from_stream(bits, 255)
            assert r.max_pulse_len <= r.zero_count <= r.window

    def test_longest_run_edges(self):
        assert longest_run(np.array([], dtype=bool)) == 0
        assert longest_run(np.array([True] * 5)) == 5
        assert longest_run(np.array([True, False, True, True])) == 2

    def test_read_counters_window_size(self):
        s = sensor_with_slack(0.0)
        field = make_field()
        r = read_counters(s, field, np.random.default_rng(1), window=255)
        assert r.window == 255
        assert 0 <= r.max_pulse_len <= r.zero_count <= 255

    def test_window_zero_counts_matches_stream_distribution(self):
        # The binomial fast path and the sample-level reference draw from
        # the same distribution.
        s = sensor_with_slack(20.0)
        field = make_field()
        p0 = s.zero_probability(1.0)
        rng = np.random.default_rng(5)
        fast = window_zero_counts(p0, 4000, 255, rng)
        slow = np.array([read_counters(s, field, rng, 255).zero_count
                         for _ in range(4000)])
        assert abs(fast.mean() - slow.mean()) < 4 * math.sqrt(
            2 * 255 * p0 / 4000)


class TestZeroProbability:
    def test_vectorised_over_factors(self):
        s = SensorInstance(tune=TuneValue(16, 2, 2))
        factors = np.linspace(1.0, 1.05, 11)
        p0 = s.zero_probability(factors)
        assert p0.shape == factors.shape
        assert p0 == pytest.approx([s.zero_probability(f) for f in factors],
                                   rel=1e-12)
        assert isinstance(s.zero_probability(1.0), float)

    def test_matches_slack_at_every_factor(self):
        s = SensorInstance(tune=TuneValue(20, 40, 3))
        for f in (1.0, 1.01, 1.03):
            expected = 0.5 * math.erfc(s.slack_ps(f) / (15.0 * math.sqrt(2)))
            assert s.zero_probability(f) == pytest.approx(expected, rel=1e-9)
            assert one_probability(s, f) == pytest.approx(1.0 - expected)

    def test_offset_shifts_the_slack(self):
        s = sensor_with_slack(20.0)
        shifted = sensor_with_slack(5.0)
        assert s.zero_probability(1.0, offset_ps=-15.0) == pytest.approx(
            shifted.zero_probability(1.0), rel=1e-12)

    def test_zero_jitter_zero_slack_samples_one(self):
        s = SensorInstance(jitter_sigma_ps=0.0, tune=TuneValue(16, 2, 2))
        s.ambient_offset_ps = -s.slack_ps(1.0)
        assert s.slack_ps(1.0) == 0.0
        assert s.zero_probability(1.0) == 0.0
        assert one_probability(s, 1.0) == 1.0

    def test_zero_jitter_is_a_step_without_warnings(self):
        s = SensorInstance(jitter_sigma_ps=0.0, tune=TuneValue(16, 2, 2))
        s.ambient_offset_ps = -s.slack_ps(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p0 = s.zero_probability(np.array([1.0, 1.001, 1.01]))
        # Heating shifts the slack below zero: zeros every sample.
        assert p0.tolist() == [0.0, 1.0, 1.0]


def window_counts_strategy():
    return st.integers(2, 300).flatmap(lambda w: st.tuples(
        st.just(w), st.lists(st.integers(0, w), max_size=40)))


class TestWindowPulses:
    def test_longest_runs_per_row(self):
        rows = np.array([[0, 0, 0, 0, 0],
                         [1, 1, 0, 1, 0],
                         [1, 1, 1, 1, 1],
                         [0, 1, 1, 1, 0]], dtype=bool)
        assert [longest_run(row) for row in rows] == [0, 2, 5, 3]

    def test_fixed_counts(self):
        pulses = window_pulses(np.array([0, 1, 255]), 255,
                               np.random.default_rng(0))
        assert pulses.tolist() == [0, 1, 255]

    @settings(max_examples=200, deadline=None)
    @given(window_counts_strategy(), st.integers(0, 2 ** 32 - 1))
    def test_pulse_bounded_by_count(self, window_counts, seed):
        window, counts = window_counts
        counts = np.array(counts, dtype=np.int64)
        pulses = window_pulses(counts, window, np.random.default_rng(seed))
        assert (pulses <= counts).all()
        assert (pulses[counts == window] == window).all()
        assert (pulses[counts == 0] == 0).all()
        # k zeros fall into the window - k + 1 gaps between the ones.
        mixed = counts > 0
        assert (pulses[mixed] * (window - counts[mixed] + 1)
                >= counts[mixed]).all()

    def test_split_calls_draw_the_same_pulses(self):
        counts = np.random.default_rng(3).binomial(255, 0.2, size=900)
        whole = window_pulses(counts, 255, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        parts = [window_pulses(counts[:301], 255, rng),
                 window_pulses(counts[301:], 255, rng)]
        assert np.array_equal(whole, np.concatenate(parts))

    def test_zero_windows_draw_nothing(self):
        # A kept counter log draws the pulses of its non-zero windows alone
        # (CoSimulation.counter_columns): they and the generator's end state
        # are those of a draw over every window.
        counts = np.random.default_rng(4).binomial(255, 0.004, size=5000)
        counts[:3] = [255, 1, 0]
        full, alone = np.random.default_rng(9), np.random.default_rng(9)
        whole = window_pulses(counts, 255, full)
        nonzero = np.flatnonzero(counts)
        assert 0 < len(nonzero) < len(counts)
        assert np.array_equal(window_pulses(counts[nonzero], 255, alone),
                              whole[nonzero])
        assert full.bit_generator.state == alone.bit_generator.state

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    @pytest.mark.parametrize("p0", [0.0, 0.001, 0.2, 0.995, 1.0])
    def test_matches_dense_reference(self, p0, dtype):
        # The same pulses, from the same uniforms in the same order, as the
        # pass over every window that window_pulses once made; windows of
        # count 0 consume no uniform, so the generators end level.  The
        # counts of a co-simulation's record are uint8 or uint16, and give
        # the pulses of their int64 values, in their own dtype.
        counts = np.random.default_rng(4).binomial(255, p0, size=900)
        rng, dense_rng = np.random.default_rng(9), np.random.default_rng(9)
        pulses = window_pulses(counts.astype(dtype), 255, rng)
        assert pulses.dtype == dtype
        dense = np.where(counts >= 255, 255, np.minimum(counts, 1))
        mixed = np.flatnonzero((counts > 1) & (counts < 255))
        if mixed.size:
            u = 1.0 - dense_rng.random(mixed.size)
            cdf = pulse_cdf(255, 255)
            for i, k, ui in zip(mixed, counts[mixed], u):
                row = cdf[k * (k + 1) // 2:][:k + 1]
                dense[i] = np.argmax(row >= ui)
        assert np.array_equal(pulses, dense)
        assert rng.random() == dense_rng.random()

    def test_joint_distribution_matches_read_counters(self):
        # The binomial count plus the conditional pulse draw against the
        # sample-level reference, over the joint (zero_count, max_pulse)
        # cells; sparse cells are pooled so every kept cell expects >= 20.
        s = sensor_with_slack(28.2)
        field = make_field()
        p0 = s.zero_probability(1.0)
        assert 0.025 < p0 < 0.035
        n = 40_000
        rng = np.random.default_rng(2024)
        oracle = [read_counters(s, field, rng, 255) for _ in range(n)]
        slow = [(r.zero_count, r.max_pulse_len) for r in oracle]
        counts = window_zero_counts(p0, n, 255, rng)
        fast = list(zip(counts.tolist(),
                        window_pulses(counts, 255, rng).tolist()))
        tallies = [Counter(slow), Counter(fast)]
        cells = sorted(set(slow) | set(fast))
        table = np.array([[tally[c] for c in cells] for tally in tallies])
        dense = table.sum(axis=0) >= 40
        table = np.column_stack([table[:, dense],
                                 table[:, ~dense].sum(axis=1)])
        assert dense.sum() >= 20
        _, p_value, _, _ = chi2_contingency(table)
        assert p_value > 1e-3


def exact_pulse_counts(window: int, k: int) -> list[int]:
    """Zero placements of k in the window with longest pulse <= r, per r.

    Inclusion-exclusion over the parts of k into m = window - k + 1 gaps
    that exceed r, in exact integers.
    """
    m = window - k + 1
    return [sum((-1) ** i * math.comb(m, i)
                * math.comb(k - i * (r + 1) + m - 1, m - 1)
                for i in range(k // (r + 1) + 1))
            for r in range(window + 1)]


def cdf_rows(window: int, top: int) -> list[np.ndarray]:
    """The rows k = 0..top of pulse_cdf(window, top), each over r = 0..k."""
    cdf = pulse_cdf(window, top)
    assert cdf.size == (top + 1) * (top + 2) // 2
    return [cdf[k * (k + 1) // 2:(k + 1) * (k + 2) // 2] for k in range(top + 1)]


class FixedUniforms:
    """A stand-in generator whose random() gives one value throughout."""

    def __init__(self, value: float):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


class TestPulseCdf:
    @pytest.mark.parametrize("window", [2, 3, 16, 64])
    def test_matches_exact_counts_at_every_count(self, window):
        self.check_rows(window, range(window + 1))

    def test_matches_exact_counts_at_sampled_counts(self):
        self.check_rows(255, [0, 1, 2, 3, 7, 60, 127, 128, 129, 200, 250,
                              253, 254, 255])

    @staticmethod
    def check_rows(window, ks):
        rows = cdf_rows(window, window)
        for k in ks:
            counts = exact_pulse_counts(window, k)
            assert counts[-1] == math.comb(window, k)
            exact = np.array([c / counts[-1] for c in counts[:k + 1]])
            assert np.abs(rows[k] - exact).max() <= 1e-14, k
            # Impossible pulses are exact zeros, a certain one exactly 1.
            assert (rows[k][exact == 0.0] == 0.0).all(), k
            assert rows[k][k] == 1.0, k

    @pytest.mark.parametrize("window", [1, 2, 17, 255, 300])
    def test_rows_rise_to_exactly_one(self, window):
        for row in cdf_rows(window, window):
            assert (np.diff(row) >= 0).all()
            assert row[-1] == 1.0 and row[0] >= 0
        assert not pulse_cdf(window, window).flags.writeable

    @pytest.mark.parametrize("window, top", [(0, 0), (1024, 3), (16, -1),
                                             (16, 17)])
    def test_window_outside_the_table_range(self, window, top):
        with pytest.raises(ValueError):
            pulse_cdf(window, top)

    @pytest.mark.parametrize("window", [1, 2, 5, 64, 255])
    def test_a_smaller_table_is_a_prefix(self, window):
        full = pulse_cdf(window, window)
        for top in sorted({0, 1, 2, 3, 7, window // 2, window - 1}):
            if 0 <= top <= window:
                small = pulse_cdf(window, top)
                assert np.array_equal(small, full[:small.size]), top

    def test_pulses_do_not_depend_on_the_table_size(self):
        # Small counts alone build a small table; among large ones they
        # draw the same pulses.
        counts = np.tile([2, 3, 2, 3, 0, 1], 500)
        small = window_pulses(counts, 255, np.random.default_rng(6))
        with_large = np.concatenate([counts, [200]])
        large = window_pulses(with_large, 255, np.random.default_rng(6))
        assert np.array_equal(small, large[:-1])

    @pytest.mark.parametrize("k", [2, 7, 60, 128, 250])
    def test_drawn_pulses_follow_the_exact_pmf(self, k):
        # Chi-square of 100,000 draws at one count against the pmf from
        # exact counts; cells expecting fewer than 5 are pooled.
        n = 100_000
        pulses = window_pulses(np.full(n, k), 255, np.random.default_rng(k))
        counts = exact_pulse_counts(255, k)
        pmf = np.diff([0.0] + [c / counts[-1] for c in counts])
        observed = np.bincount(pulses, minlength=256).astype(float)
        expected = n * pmf
        dense = expected >= 5
        assert dense.sum() >= 2
        assert observed[expected == 0].sum() == 0
        f_obs = np.append(observed[dense], observed[~dense].sum())
        f_exp = np.append(expected[dense], expected[~dense].sum())
        if f_exp[-1] < 5:  # pool the sparse cells with the last dense one
            f_obs = np.append(f_obs[:-2], f_obs[-2:].sum())
            f_exp = np.append(f_exp[:-2], f_exp[-2:].sum())
        _, p_value = chisquare(f_obs, f_exp * (n / f_exp.sum()))
        assert p_value > 1e-3

    def test_uniform_at_both_ends_of_its_interval(self):
        # random() lies in [0, 1), so u = 1 - random() lies in (0, 1]: its
        # largest value gives the longest pulse with a nonzero table step
        # and its smallest the shortest, never below ceil(k / m).
        window = 255
        rows = cdf_rows(window, window)
        ks = np.arange(2, window)
        m = window - ks + 1
        for value in (0.0, 1.0 - 2.0 ** -53):
            u = 1.0 - value
            pulses = window_pulses(ks, window, FixedUniforms(value))
            assert (pulses >= -(-ks // m)).all()
            assert (pulses <= ks).all()
            for k, pulse in zip(ks, pulses):
                assert rows[k][pulse] >= u > rows[k][pulse - 1], k
        # Every pulse has a probability far above 2**-53 in a short window,
        # so the ends reach the least and the greatest possible pulse.
        ks = np.arange(2, 16)
        m = 16 - ks + 1
        assert window_pulses(ks, 16, FixedUniforms(0.0)).tolist() == ks.tolist()
        assert (window_pulses(ks, 16, FixedUniforms(1.0 - 2.0 ** -53))
                == -(-ks // m)).all()

    def test_one_uniform_per_mixed_window(self):
        counts = np.array([0, 1, 2, 255, 40, 254, 1, 0, 3])
        rng = np.random.default_rng(4)
        window_pulses(counts, 255, rng)
        reference = np.random.default_rng(4)
        reference.random(4)
        assert rng.bit_generator.state == reference.bit_generator.state


class TestLatch:
    def test_below_threshold_stays_clear(self):
        assert update_latch(False, SensorReadout(2, 1, 255), threshold=5) is False

    def test_sticky_after_one_crossing(self):
        latched = update_latch(False, SensorReadout(40, 10, 255), threshold=5)
        assert latched is True
        assert update_latch(latched, SensorReadout(0, 0, 255), threshold=5) is True

    def test_threshold_range_enforced(self):
        with pytest.raises(ValueError):
            update_latch(False, SensorReadout(0, 0, 255), threshold=0)
        with pytest.raises(ValueError):
            update_latch(False, SensorReadout(0, 0, 255), threshold=256)


@st.composite
def tune_sensors(draw):
    """Sensor parameters for the tuner's property test: every chain length
    from 2 to 16, jitter from none (a step) to far wider than one tap, and
    offset, tap, pin and route delays around the defaults, with the data
    route near the chain's base delay so that most draws can be tuned."""
    chain_len = draw(st.sampled_from([2, 4, 8, 16]))
    return {
        "chain_len": chain_len,
        "jitter_sigma_ps": draw(st.floats(0.0, 200.0)),
        "ambient_offset_ps": draw(st.floats(-400.0, 400.0)),
        "per_tap_ps": draw(st.floats(40.0, 120.0)),
        "lut_pin_step_ps": draw(st.floats(0.0, 40.0)),
        "data_route_ps": chain_len * 600.0 + draw(st.floats(-2500.0, 1000.0)),
        "clock_route_ps": draw(st.floats(0.0, 1000.0)),
    }


class TestTune:
    @pytest.mark.parametrize("tune_value", [TuneValue(16, 2, 2),
                                            TuneValue(15, 1, 5),
                                            TuneValue(16, 1, 0)])
    def test_score_inverts_the_maximum_cdf(self, tune_value):
        # The score is the smallest s with F(s)**n >= u, where F is the
        # Binomial(255, p0) CDF, n the characterization windows and u the
        # tune's keyed uniform; F**n is evaluated directly here.
        s = SensorInstance()
        p0 = s.zero_probability(1.0, tune_value)
        assert 0.0 < p0 < 1.0
        score = max_zero_count(s, tune_value, 3, 100.0)
        u = tune_uniform(3, tune_value, SCORE)
        n = 39_215
        below = bdtr(score - 1, 255, p0) ** n if score > 0 else 0.0
        assert below < u <= bdtr(score, 255, p0) ** n

    @pytest.mark.parametrize("clock_code", [0, 2, 20, 255])
    def test_probe_rate_at_a_certain_outcome(self, clock_code):
        # Zero probabilities of exactly 0 or 1 give a rate of 0 or 1; other
        # rates invert the binomial CDF at the keyed uniform.
        s = SensorInstance(jitter_sigma_ps=0.0 if clock_code != 2 else 15.0)
        cand = TuneValue(16, clock_code, 0)
        p0 = s.zero_probability(1.0, cand)
        rate = probe_zero_rate(s, cand, 3)
        if p0 in (0.0, 1.0):
            assert rate == p0
        else:
            k, u = round(rate * 10_000), tune_uniform(3, cand, PROBE)
            assert probe_cdf(k - 1, p0) < u <= probe_cdf(k, p0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_probe_inverts_the_binomial_cdf(self, seed):
        # Every uncertain candidate of one data code's neighbourhood: the
        # probe count k satisfies bdtr(k - 1) < u <= bdtr(k).
        s = SensorInstance()
        checked = 0
        for clock in range(8):
            for select in range(s.lut_arity):
                cand = TuneValue(16, clock, select)
                p0 = s.zero_probability(1.0, cand)
                if p0 in (0.0, 1.0):
                    continue
                k = round(probe_zero_rate(s, cand, seed) * 10_000)
                u = tune_uniform(seed, cand, PROBE)
                assert probe_cdf(k - 1, p0) < u <= probe_cdf(k, p0)
                checked += 1
        assert checked >= 10

    def test_probe_count_matches_binomial_draws(self):
        # Keyed uniforms over the m=2 code grid (12,288 keys), inverted at
        # fixed zero probabilities, against numpy's binomial sampler.
        d, c, sel = np.meshgrid(np.arange(32), np.arange(64), np.arange(6),
                                indexing="ij")
        u = tune_uniform(5, TuneValue(d.ravel(), c.ravel(), sel.ravel()), PROBE)
        rng = np.random.default_rng(11)
        for p0 in (3e-4, 0.2):
            keyed = probe_count(p0, u, 10_000)
            drawn = rng.binomial(10_000, p0, size=u.size)
            assert contingency_p_value(keyed, drawn) > 1e-3

    def test_score_matches_maximum_of_binomial_draws(self):
        # The inverted maximum of n windows against the maximum of n
        # explicit Binomial(255, p0) draws, over 10,000 keys.
        n_keys, n_windows = 10_000, 200
        keys = np.arange(n_keys)
        u = tune_uniform(5, TuneValue(keys % 32, keys // 32, keys % 6), SCORE)
        rng = np.random.default_rng(12)
        for p0 in (5e-3, 0.3):
            keyed = max_count(p0, u, n_windows, 255)
            drawn = rng.binomial(255, p0, size=(n_keys, n_windows)).max(axis=1)
            assert contingency_p_value(keyed, drawn) > 1e-3

    def test_array_zero_probability_equals_scalar(self):
        # The tuner's array p0 over the full m=8 grid is the scalar
        # zero_probability of each candidate, bit for bit.
        s = SensorInstance()
        d, c, sel = (a.ravel() for a in np.meshgrid(
            np.arange(32), np.arange(256), np.arange(6), indexing="ij"))
        p0 = s.zero_probability(1.0, TuneValue(d, c, sel))
        scalar = [s.zero_probability(1.0, TuneValue(int(a), int(b), int(e)))
                  for a, b, e in zip(d, c, sel)]
        assert np.array_equal(p0, scalar)
        assert 0 < np.count_nonzero((p0 > 0) & (p0 < 1)) < p0.size

    def test_keyed_uniform_arrays_equal_scalars(self):
        d, c, sel = (a.ravel() for a in np.meshgrid(
            np.arange(32), np.arange(64), np.arange(6), indexing="ij"))
        for seed, purpose in ((1, PROBE), (2**40 + 7, SCORE), (-3, PROBE)):
            u = tune_uniform(seed, TuneValue(d, c, sel), purpose)
            scalar = [tune_uniform(seed, TuneValue(int(a), int(b), int(e)),
                                   purpose) for a, b, e in zip(d, c, sel)]
            assert np.array_equal(u, scalar)
            assert ((u > 0) & (u < 1)).all()
        # Only the low 32 bits of the seed key the uniform.
        assert tune_uniform(2**32 + 9, TuneValue(1, 2, 3), SCORE) == \
            tune_uniform(9, TuneValue(1, 2, 3), SCORE)
        assert tune_uniform(9, TuneValue(1, 2, 3), SCORE) != \
            tune_uniform(9, TuneValue(1, 2, 3), PROBE)

    def test_keyed_uniform_paths_agree_at_the_edges(self):
        # The int and uint64 array paths give the same bits at the ends of
        # the 64-bit range, for negative and wide seeds and the top codes,
        # and neither warns: a uint64 scalar on the int path would.
        edges = [0, 1, 2**32 - 1, 2**63 - 1, 2**63, 2**64 - 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _splitmix64(np.array(edges, dtype=np.uint64)).tolist() == \
                [_splitmix64(x) for x in edges]
            for chain_len in (2, 16):
                clock_top = 2 ** chain_code_bits(chain_len) - 1
                d, c, sel = (a.ravel() for a in np.meshgrid(
                    [0, 31], [0, clock_top - 1, clock_top], [0, 5],
                    indexing="ij"))
                for seed in (-1, -2**31, -2**63, 2**32, 2**64 + 3, 2**80 - 1):
                    for purpose in (PROBE, SCORE):
                        u = tune_uniform(seed, TuneValue(d, c, sel), purpose)
                        assert u.tolist() == [
                            tune_uniform(seed, TuneValue(int(a), int(b), int(e)),
                                         purpose)
                            for a, b, e in zip(d, c, sel)]
                        assert ((u > 0) & (u < 1)).all()

    @settings(deadline=None, database=None, derandomize=True)
    @given(params=tune_sensors(), seed=st.integers(-2**40, 2**40))
    def test_tune_equals_scalar_reference(self, params, seed):
        # The table-driven tuner against the one-candidate-at-a-time search
        # through the oracles, over drawn sensors: both give one tune or
        # both raise TuningError.  A zero jitter is the step path, where
        # no candidate is metastable.
        try:
            expected = scalar_reference_tune(SensorInstance(**params), seed)
        except TuningError:
            with pytest.raises(TuningError):
                tune(SensorInstance(**params), seed)
        else:
            assert tune(SensorInstance(**params), seed) == expected

    @pytest.mark.parametrize("params", [{}, {"chain_len": 2}, {"chain_len": 4},
                                        {"jitter_sigma_ps": 40.0},
                                        {"jitter_sigma_ps": 150.0}],
                             ids=["m8", "m2", "chain4", "jitter40", "jitter150"])
    def test_lockstep_tune_equals_scalar_reference(self, params):
        # At 150 ps of jitter the boundary searches' own probes are random,
        # so a search that drew them from another stream would show.
        for seed in range(1, 41):
            found = tune(SensorInstance(**params), seed)
            assert found == scalar_reference_tune(SensorInstance(**params),
                                                  seed), seed

    def test_identical_seed_gives_identical_tune(self):
        t1 = tune(SensorInstance(), seed=9, t_sense_ms=10.0)
        t2 = tune(SensorInstance(), seed=9, t_sense_ms=10.0)
        assert t1 == t2

    def test_found_tune_is_metastable(self):
        s = SensorInstance()
        tv = tune(s, seed=3, t_sense_ms=10.0)
        assert is_metastable(probe_zero_rate(s, tv, 3))

    def test_quiet_bound_after_tuning(self):
        # Post-condition replay: laser off, the tuned sensor's zero counts
        # over 100 windows stay at or below a small quiet bound.
        s = SensorInstance()
        tune(s, seed=4, t_sense_ms=10.0)
        field = make_field()
        rng = np.random.default_rng(44)
        counts = [read_counters(s, field, rng, 255).zero_count
                  for _ in range(100)]
        assert max(counts) <= 3

    def test_budgeted_samples_match_t_sense(self):
        # 100 ms at 100 MHz budgets 1e7 samples, i.e. 39215 full windows.
        s = SensorInstance()
        cycles = int(100.0 * 1e3 * s.clock_mhz)
        assert cycles == 10_000_000
        assert cycles // 255 == 39_215

    def test_detection_window_duration(self):
        # 255 cycles at 100 MHz span 2.55 us (the one-cycle discrepancy
        # against a 256-cycle reading is documented in the README).
        assert SensorInstance().cycle_ps * 255 == 2_550_000

    def test_tuning_failure_reported(self):
        # A chain too slow to ever match the data path has no boundary.
        s = SensorInstance(chain_len=2, element_base_ps=50_000.0)
        with pytest.raises(TuningError):
            tune(s, seed=1, t_sense_ms=1.0)

    def test_exhaustive_optimality_small_space(self):
        # Reduced space (m=2): the search must match brute force over all
        # (data, clock, select) triples that pass the same band test.
        seed = 6
        s = SensorInstance(chain_len=2)
        tv = tune(s, seed=seed, t_sense_ms=5.0)
        got = max_zero_count(s, tv, seed, 5.0)
        best = None
        probe = SensorInstance(chain_len=2)
        for d in range(32):
            for c in range(64):
                for sel in range(probe.lut_arity):
                    cand = TuneValue(d, c, sel)
                    if not is_metastable(probe_zero_rate(probe, cand, seed)):
                        continue
                    score = max_zero_count(probe, cand, seed, 5.0)
                    if best is None or score < best:
                        best = score
        assert got == best


class TestSearch:
    @pytest.mark.parametrize("top", [0, 1, 2, 7, 16, 255])
    def test_lockstep_bisection_finds_every_threshold(self, top):
        thresholds = np.arange(top + 1)
        assert np.array_equal(
            _smallest(lambda k: k >= thresholds, top, thresholds.shape),
            thresholds)

    @pytest.mark.parametrize("top", [0, 1, 2, 7, 16, 255])
    def test_search_near_a_guess_finds_every_threshold(self, top):
        # Every answer from every guess, including guesses outside 0..top:
        # the answer is exact, ok() is only asked inside 0..top, and an
        # answer d from the clipped guess costs at most 2 (d + 1).bit_length()
        # calls, two for a correct guess.
        for answer in range(top + 1):
            for guess in range(-3, top + 4):
                calls = []

                def ok(k):
                    calls.append(k)
                    return k >= answer

                assert _smallest_near(ok, top, guess) == answer
                assert all(0 <= k <= top for k in calls)
                d = abs(answer - min(max(guess, 0), top))
                assert len(calls) <= 2 * (d + 1).bit_length()

    def test_scalar_and_array_inversions_agree(self):
        # The oracles' scalar searches and the tuner's array searches give
        # the same counts for the same inputs.
        keys = np.arange(600)
        u = tune_uniform(7, TuneValue(keys % 32, keys // 32, keys % 6), SCORE)
        p0 = np.geomspace(1e-7, 0.999, keys.size)
        probes = probe_count(p0, u, 10_000)
        scores = max_count(p0, u, 39_215, 255)
        assert np.array_equal(probes, [probe_count(float(p), float(v), 10_000)
                                       for p, v in zip(p0, u)])
        assert np.array_equal(scores, [max_count(float(p), float(v), 39_215)
                                       for p, v in zip(p0, u)])
        assert len(np.unique(probes)) > 100 and len(np.unique(scores)) > 50


def probe_cdf(k, p0, batch=10_000):
    """Binomial(batch, p0) CDF at k; 0 below the support."""
    return bdtr(k, batch, p0) if k >= 0 else 0.0


def contingency_p_value(a, b, min_cell=40):
    """Chi-square p-value that two integer samples share one distribution.

    Cells with fewer than ``min_cell`` pooled counts are merged into one.
    """
    cells = np.union1d(a, b)
    table = np.array([[np.count_nonzero(x == v) for v in cells] for x in (a, b)])
    dense = table.sum(axis=0) >= min_cell
    table = np.column_stack([table[:, dense], table[:, ~dense].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    assert dense.sum() >= 3
    return chi2_contingency(table)[1]


def scalar_reference_tune(sensor, seed, t_sense_ms=100.0, window=255):
    """The tuner's search, one candidate at a time through the oracles.

    For each data code, binary-search the clock code with LUT select 0 on
    whether probe_zero_rate() saw a zero, then score every metastable
    candidate of the four clock codes around the boundary with
    max_zero_count(); the lowest (score, clock, data, select) wins.
    """
    clock_max = 2 ** sensor.clock_code_bits - 1
    best = None
    for data in range(32):
        lo, hi = 0, clock_max
        while lo < hi:
            mid = (lo + hi) // 2
            if probe_zero_rate(sensor, TuneValue(data, mid, 0), seed) > 0.0:
                lo = mid + 1
            else:
                hi = mid
        for clock in range(max(lo - 2, 0), min(lo + 2, clock_max + 1)):
            for select in range(sensor.lut_arity):
                cand = TuneValue(data, clock, select)
                if not is_metastable(probe_zero_rate(sensor, cand, seed)):
                    continue
                score = max_zero_count(sensor, cand, seed, t_sense_ms, window)
                key = (score, clock, data, select)
                if best is None or key < best[0]:
                    best = (key, cand)
    if best is None:
        raise TuningError("no metastable candidate")
    return best[1]


class TestRoCalibration:
    def test_code_zero_is_minimum_period(self):
        periods = ro_calibration(np.arange(256), 8)
        assert periods[0] == periods.min()

    def test_period_formula(self):
        # 11 stages at 350 ps plus the chain, doubled, in ns.
        expected = 2.0 * (11 * 350.0 + chain_delay(0, 8)) / 1000.0
        assert ro_calibration(0, 8) == pytest.approx(expected)

    def test_adjacent_lsb_codes_step_two_taps(self):
        per_tap = 78.0
        for code in range(0, 30):
            step = ro_calibration(code + 1, 8) - ro_calibration(code, 8)
            assert step == pytest.approx(2.0 * per_tap / 1000.0)

    def test_monotone_against_per_element_oracle(self):
        # Within every LSB segment the period strictly increases and always
        # equals the brute-force per-element sum.
        for code in range(256):
            oracle = 2.0 * (11 * 350.0 + brute_force_chain_delay(code, 8)) / 1e3
            assert ro_calibration(code, 8) == pytest.approx(oracle)
        for base in (0, 32, 64, 128, 224):
            seg = [ro_calibration(base + k, 8) for k in range(31)]
            assert all(b > a for a, b in zip(seg, seg[1:]))
