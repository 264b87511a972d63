"""Single-LUT delay sensor: a clock edge races itself into a register.

The data path runs through one calibrated delay element plus one LUT pin;
the clock path runs through a chain of calibrated delay elements.  The
register output is 1 when the data edge beats the clock edge by more than
the sampling jitter, 0 when it loses, and metastable statistics in between.
Local heating slows the uncalibrated (routing and LUT) portions of both
paths; because the data path carries more of them, heating shifts the race
toward zero outputs.  A zero counter over fixed windows plus a sticky latch
turn those statistics into a defense trigger.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import bdtr, bdtrc, ndtr, ndtri

from .fabric import TAP_MAX, SliceCoord


class TuningError(Exception):
    """No metastable operating point was found."""


def _check_codes(code, top: int, what: str) -> None:
    """Raise ValueError unless every code lies in 0..top-1."""
    if isinstance(code, np.ndarray):
        ok = code.size == 0 or (code.min() >= 0 and code.max() < top)
    else:
        ok = 0 <= code < top
    if not ok:
        raise ValueError(f"{what} {code} outside {top.bit_length() - 1} bits")


def tap_from_code(code):
    """Map a 5-bit delay code to a physical tap.

    The top code (0b11111) addresses the top calibrated tap; wraparound
    applies only to raw tap writes, which tuning never performs.  An
    integer array of codes maps element by element.
    """
    _check_codes(code, 32, "delay code")
    if isinstance(code, np.ndarray):
        return np.minimum(code, TAP_MAX)
    return min(code, TAP_MAX)


def chain_code_bits(chain_len: int) -> int:
    n = int(math.log2(chain_len))
    if 2 ** n != chain_len or chain_len < 1:
        raise ValueError(f"chain length {chain_len} is not a power of two")
    return n + 5


def chain_delay(code, chain_len: int, per_tap_ps: float = 78.0,
                base_ps: float = 600.0):
    """Total delay of a 2^n-element chain for an (n+5)-bit code, in ps.

    The five least significant bits set one element's tap; the n most
    significant bits count elements held at the maximum tap; the remaining
    elements sit at the minimum tap.  An integer array of codes gives an
    array of delays.
    """
    bits = chain_code_bits(chain_len)
    _check_codes(code, 2 ** bits, "chain code")
    n_max = code >> 5
    fine = tap_from_code(code & 0x1F)
    return chain_len * base_ps + per_tap_ps * (n_max * TAP_MAX + fine)


def decode_chain_taps(code: int, chain_len: int) -> list[int]:
    """Per-element tap settings for a chain code (fine, max..., min...)."""
    _check_codes(code, 2 ** chain_code_bits(chain_len), "chain code")
    n_max = code >> 5
    taps = [tap_from_code(code & 0x1F)]
    taps += [TAP_MAX] * n_max
    taps += [0] * (chain_len - 1 - n_max)
    return taps


@dataclass(frozen=True)
class TuneValue:
    """Sensor operating point: data tap code, clock chain code, LUT pin."""

    data_code: int
    clock_code: int
    lut_select: int

    def __str__(self) -> str:
        return f"data={self.data_code} clock={self.clock_code} select={self.lut_select}"


@dataclass
class SensorReadout:
    """Zero statistics of one detection window."""

    zero_count: int
    max_pulse_len: int
    window: int


@dataclass
class SensorInstance:
    """One delay sensor placed on a slice, with its tuning state.

    Path delays split into a calibrated part (the programmable delay
    elements, immune to temperature) and an uncalibrated part (routing and
    the LUT) that scales with the local delay factor.
    """

    site: SliceCoord = SliceCoord(0, 0)
    clock_mhz: float = 100.0
    chain_len: int = 8
    jitter_sigma_ps: float = 15.0
    tune: TuneValue | None = None
    element_base_ps: float = 600.0
    per_tap_ps: float = 78.0
    lut_pin_base_ps: float = 124.0
    lut_pin_step_ps: float = 9.0
    lut_arity: int = 6
    data_route_ps: float = 3200.0
    clock_route_ps: float = 300.0
    ambient_offset_ps: float = 0.0

    @property
    def clock_code_bits(self) -> int:
        return chain_code_bits(self.chain_len)

    @property
    def cycle_ps(self) -> int:
        return round(1e6 / self.clock_mhz)

    @property
    def heated_path_ps(self) -> float:
        """The longest path delay that scales with the delay factor, at any
        LUT select: the clock route, or the data route and LUT pin."""
        return max(self.clock_route_ps, self.data_route_ps + self.lut_pin_base_ps
                   + (self.lut_arity - 1) * self.lut_pin_step_ps)

    def validate_tune(self, tune: TuneValue) -> TuneValue:
        if not 0 <= tune.data_code <= 31:
            raise ValueError(f"data code {tune.data_code} outside 5 bits")
        if not 0 <= tune.clock_code < 2 ** self.clock_code_bits:
            raise ValueError(
                f"clock code {tune.clock_code} outside {self.clock_code_bits} bits"
            )
        if not 0 <= tune.lut_select < self.lut_arity:
            raise ValueError(f"LUT select {tune.lut_select} outside arity")
        return tune

    def data_arrival_ps(self, tune: TuneValue, factor: float = 1.0) -> float:
        element = self.element_base_ps + tap_from_code(tune.data_code) * self.per_tap_ps
        pin = self.lut_pin_base_ps + tune.lut_select * self.lut_pin_step_ps
        return element + (pin + self.data_route_ps) * factor

    def clock_arrival_ps(self, tune: TuneValue, factor: float = 1.0) -> float:
        chain = chain_delay(tune.clock_code, self.chain_len,
                            self.per_tap_ps, self.element_base_ps)
        return chain + self.clock_route_ps * factor

    def slack_ps(self, factor: float = 1.0, tune: TuneValue | None = None) -> float:
        """Clock-path arrival minus data-path arrival; positive samples 1."""
        t = tune or self.tune
        if t is None:
            raise TuningError("sensor has no tune value")
        return (self.clock_arrival_ps(t, factor)
                - self.data_arrival_ps(t, factor)
                + self.ambient_offset_ps)

    def zero_probability(self, factor: float | np.ndarray = 1.0,
                         tune: TuneValue | None = None,
                         offset_ps: float | np.ndarray = 0.0) -> float | np.ndarray:
        """Probability that one sample reads 0, vectorised over ``factor``.

        Slack is affine in the delay factor, so it is evaluated exactly as
        the ambient slack plus the heated share of the race; ``offset_ps``
        adds an extra slack term such as slow ambient drift.  With zero
        jitter the race is a step: a slack >= 0 always samples 1.  The
        fields of ``tune`` may also be integer arrays, one candidate per
        element, as in tuning; each element equals the candidate's scalar
        value.  Returns a float for scalar inputs and an array otherwise.
        """
        t = tune or self.tune
        ambient = self.slack_ps(1.0, t)
        shift = (self.clock_route_ps - self.data_route_ps - self.lut_pin_base_ps
                 - t.lut_select * self.lut_pin_step_ps)
        return self.slack_zero_probability(
            ambient + (factor - 1.0) * shift + offset_ps)

    def slack_zero_probability(self, slack: float | np.ndarray) -> float | np.ndarray:
        """zero_probability()'s last step: the probability that one sample
        reads 0 at a slack in ps; a float for a scalar, an array otherwise."""
        if self.jitter_sigma_ps > 0:
            # A jitter so small that slack / jitter overflows is a step too:
            # ndtr(+-inf) is exactly 1 or 0.
            with np.errstate(over="ignore"):
                z = slack / self.jitter_sigma_ps
            p0 = 1.0 - ndtr(z)
        else:
            p0 = np.less(slack, 0.0).astype(float)
        return float(p0) if np.ndim(p0) == 0 else p0


def read_counters(sensor: SensorInstance, thermal, rng,
                  window: int = 255) -> SensorReadout:
    """Zero count and longest zero pulse over `window` consecutive samples,
    with the sensor at the temperature of the field's cell."""
    p0 = sensor.zero_probability(thermal.delay_factor(thermal.delta_t))
    zeros = rng.random(window) < p0
    return SensorReadout(
        zero_count=int(zeros.sum()),
        max_pulse_len=longest_run(zeros),
        window=window,
    )


def longest_run(zeros: np.ndarray) -> int:
    """Length of the longest run of True values in a boolean vector."""
    padded = np.concatenate(([0], np.asarray(zeros, dtype=np.int8), [0]))
    edges = np.flatnonzero(np.diff(padded))  # rising, falling, rising, ...
    return int((edges[1::2] - edges[0::2]).max(initial=0))


# Largest detection window: C(n, k), the largest count the pulse table
# divides by, overflows float64 beyond n = 1029.
MAX_WINDOW = 1023


# Columns r of the pulse table computed per pass; bounds its scratch memory.
PULSE_TABLE_COLUMNS = 64


@functools.lru_cache(maxsize=8)
def pulse_cdf(window: int, top: int) -> np.ndarray:
    """P(longest zero pulse <= r | k zeros) for k in 0..top, read-only.

    Row k holds r = 0..k at offset k (k + 1) / 2 of the result, the rows
    laid end to end; it is exactly 1 from r = k on.  Given k zeros in
    ``window`` samples, the zero runs are a uniform weak composition of k
    into m = window - k + 1 parts (the gaps around the ones), so the
    probability is the share of the C(window, k) compositions whose parts
    are all at most r.  With Q[r, j] the compositions of j into the current
    number of parts, each at most r, one more part gives Q[r, j] = sum of
    Q[r, j - i] for i in 0..r: a running sum less the same sum lagged by
    r + 1, read through one strided view.  Step m completes row
    k = window + 1 - m, and later steps need only smaller j and r, so rows
    up to ``top`` need only j, r <= top, and an entry does not depend on
    ``top``: a smaller table is a prefix of a larger one.  Each column r
    evolves alone, so the columns are computed a block at a time.  The
    counts are integer-valued floats, exact zeros below the least possible
    pulse ceil(k / m), and are divided by the unconstrained count
    C(window, k) from the same recurrence.
    """
    if not 1 <= window <= MAX_WINDOW or not 0 <= top <= window:
        raise ValueError(f"window {window} outside 1..{MAX_WINDOW} "
                         f"or top {top} outside 0..window")
    c = top + 1
    start = np.arange(c + 1) * np.arange(1, c + 2) // 2  # row k at start[k]
    cdf = np.ones(start[c])
    if top == window:
        cdf[start[top]:start[top + 1] - 1] = 0.0  # one part of the window
    j = np.arange(c)
    for r0 in range(0, top, PULSE_TABLE_COLUMNS):
        rs = np.arange(r0, min(r0 + PULSE_TABLE_COLUMNS, top))
        buf = np.zeros((rs.size, 2 * c))  # row i: c zeros, then sums
        sums = buf[:, c:]
        row, col = buf.strides
        lagged = as_strided(  # [i, j] = sums[i, j - rs[i] - 1]
            buf.ravel()[c - r0 - 1:], shape=(rs.size, c), strides=(row - col, col))
        q = (j <= rs[:, None]).astype(float)  # one part: Q[r, j] = [j <= r]
        free = np.ones(c)  # and with no bound on the part
        for k in range(window - 1, r0, -1):
            size = min(k + 1, c)
            np.cumsum(q[:, :size], axis=1, out=sums[:, :size])
            q = np.subtract(sums[:, :size], lagged[:, :size], out=q[:, :size])
            free = np.cumsum(free[:size])
            if k <= top:
                r1 = min(rs[-1] + 1, k)
                cdf[start[k] + r0:start[k] + r1] = q[:r1 - r0, k] / free[k]
    for k in range(2, c):  # no fall from rounding
        np.maximum.accumulate(cdf[start[k]:start[k + 1]],
                              out=cdf[start[k]:start[k + 1]])
    cdf.flags.writeable = False
    return cdf


def window_pulses(counts: np.ndarray, window: int, rng) -> np.ndarray:
    """Longest zero pulse of each window, drawn given its zero count.

    Within a window the samples are i.i.d., so given k zeros their
    positions are a uniform k-subset of the window, and the pulse has the
    distribution pulse_cdf() tabulates, the one read_counters() gives for
    that count.  Windows with 1 < k < window draw one uniform u in (0, 1]
    each, in window order, and take the smallest r with
    P(pulse <= r | k) >= u; as u > 0, the pulse is at least
    ceil(k / (window - k + 1)).  The others have a pulse of min(k, 1) or,
    when every sample is zero, of the whole window.  The table covers the
    counts up to the largest one present, rounded up to 2**b - 1, so a run
    whose counts stay small builds a small one; its entries and so the
    pulses are the same for any size.  The result does not depend on how
    the counts are split across calls.
    """
    counts = np.asarray(counts)
    pulses = np.zeros(counts.shape, dtype=counts.dtype)
    # Most windows count no zeros, so only the others are indexed.
    nonzero = counts != 0
    k = counts[nonzero]
    nonzero_pulses = np.where(k >= window, window, 1)
    mixed = np.flatnonzero((k > 1) & (k < window))
    if mixed.size:
        k = k[mixed]
        u = 1.0 - rng.random(mixed.size)
        top = min((1 << int(k.max()).bit_length()) - 1, window)
        cdf = pulse_cdf(window, top)
        start = k * (k + 1) // 2
        nonzero_pulses[mixed] = _smallest(
            lambda r: cdf[start + np.minimum(r, k)] >= u, top, k.shape)
    pulses[nonzero] = nonzero_pulses
    return pulses


def window_zero_counts(p0, n_windows: int, window: int, rng) -> np.ndarray:
    """Zero counts of ``n_windows`` windows, drawn in window order.

    ``p0`` is one zero probability for every window or an array of one per
    window.  Within a window the samples are i.i.d. Bernoulli, so its count
    is exactly binomial; read_counters() remains the sample-level
    reference.  Every window count of a run, idle or co-simulated, is drawn
    here.
    """
    return rng.binomial(window, p0, size=n_windows)


# -- tuning -----------------------------------------------------------------

METASTABLE_BAND = (1e-4, 0.5)
PROBE_BATCH = 10_000
# Purposes of a candidate's keyed uniform.
PROBE, SCORE = 0, 1
_MASK64 = 2 ** 64 - 1
_SPLITMIX = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_SPLITMIX_U64 = tuple(np.uint64(c) for c in _SPLITMIX)


def _splitmix64(x):
    """One splitmix64 step on a Python int or a uint64 array.

    uint64 array arithmetic wraps modulo 2**64, and the masks truncate a
    Python int to the same bits, so both give the same values.  The int
    path keeps Python ints throughout: numpy uint64 scalars would warn on
    the overflow.
    """
    if isinstance(x, np.ndarray):
        add, mul1, mul2 = _SPLITMIX_U64
        x = x + add
        x ^= x >> 30
        x *= mul1
        x ^= x >> 27
        x *= mul2
        return x ^ (x >> 31)
    add, mul1, mul2 = _SPLITMIX
    x = (x + add) & _MASK64
    x = ((x ^ (x >> 30)) * mul1) & _MASK64
    x = ((x ^ (x >> 27)) * mul2) & _MASK64
    return x ^ (x >> 31)


def _fold(x, fields):
    """Fold each field into the key ``x`` by one splitmix64 step.

    A field is an int or an integer array; an array makes the key a uint64
    array, broadcast over the fields.
    """
    for field in fields:
        field = (field.astype(np.uint64) if isinstance(field, np.ndarray)
                 else int(field))
        x = _splitmix64(x ^ field)
    return x


def _unit(x):
    """The uniform of a folded key: its top 52 bits, offset by half a step."""
    return ((x >> 12) + 0.5) / 2.0 ** 52


def tune_uniform(seed: int, tune: TuneValue, purpose: int):
    """One uniform in (0, 1) per candidate, keyed by seed, tune and purpose.

    The fields of ``tune`` are ints, giving a float, or integer arrays that
    broadcast together, one candidate per element, giving an array; a
    candidate's uniform is the same either way.  Starting from the low 32
    bits of the seed, the purpose, data code, clock code and LUT select are
    each folded in by one splitmix64 step; the top 52 bits of the last step,
    offset by half a step, give the uniform, so it is exact and lies
    strictly inside (0, 1).
    """
    return _unit(_fold(seed & 0xFFFFFFFF, (purpose, tune.data_code,
                                           tune.clock_code, tune.lut_select)))


def _smallest(ok, top: int, shape) -> np.ndarray:
    """Smallest k in 0..top with ``ok(k)``, per element of an array ``shape``.

    ``ok`` must be false below the answer, true from it on, and true at
    ``top``, so the answer depends on nothing but ``ok``.  The elements
    bisect 0..top in lock-step, one call of ``ok`` per step for them all.
    """
    lo = np.zeros(shape, dtype=np.int64)
    hi = np.full(shape, top, dtype=np.int64)
    while (lo < hi).any():
        mid = (lo + hi) // 2
        hit = ok(mid)  # a finished element probes its answer, which holds
        hi = np.where(hit, mid, hi)
        lo = np.where(hit, lo, mid + 1)
    return lo


def _smallest_near(ok, top: int, guess: int) -> int:
    """_smallest() for one element, searched outward from ``guess``.

    It steps away from the guess by 1, 2, 4, ... until ``ok`` changes, then
    bisects the bracket, so an answer d away from the guess takes about
    2 log2(d) calls of ``ok`` and a correct guess two.  The scalar oracles
    use it: a lock-step bisection of one element costs 14 calls of ``ok``
    over a probe batch's 0..10000 and 8 over a window's 0..255, each
    through 0-d arrays.
    """
    lo, hi = 0, top  # ok(lo - 1) is false, ok(hi) is true
    k, step = min(max(guess, 0), top), 1
    if ok(k):
        hi = k
        while lo < hi:
            k = max(hi - step, lo)
            if not ok(k):
                lo = k + 1
                break
            hi, step = k, 2 * step
    else:
        lo = k + 1
        while lo < hi:
            k = min(lo + step - 1, hi)
            if ok(k):
                hi = k
                break
            lo, step = k + 1, 2 * step
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def probe_count(p0, u, batch: int = PROBE_BATCH):
    """Zeros in a probe batch: the smallest k with bdtr(k, batch, p0) >= u.

    This inverts the Binomial(batch, p0) CDF at ``u``, so a uniform ``u``
    gives a binomial count.  Arrays give an array.  Scalars give an int,
    searched from the normal approximation of the count.
    """
    def ok(k):
        return bdtr(k, batch, p0) >= u

    if np.ndim(p0) or np.ndim(u):
        return _smallest(ok, batch, np.broadcast(p0, u).shape)
    mean = batch * p0
    return _smallest_near(ok, batch, math.floor(
        mean + math.sqrt(mean * (1.0 - p0)) * ndtri(u)))


def max_count(p0, u, n_windows: int, window: int = 255):
    """Largest zero count of ``n_windows`` windows, by inverting its CDF.

    The windows' counts are i.i.d. Binomial(window, p0) with CDF F, so
    their maximum has CDF F(k)**n.  The result is the smallest k with
    F(k)**n >= u, tested as bdtrc(k) <= -expm1(log(u) / n), which keeps the
    precision of both tails.  Arrays give an array.  Scalars give an int,
    searched upward from 0, as the counts of a tuned sensor are small.
    """
    tail = -np.expm1(np.log(u) / n_windows)

    def ok(k):
        return bdtrc(k, window, p0) <= tail

    if np.ndim(p0) or np.ndim(tail):
        return _smallest(ok, window, np.broadcast(p0, tail).shape)
    return _smallest_near(ok, window, 0)


def characterization_windows(sensor: SensorInstance, t_sense_ms: float,
                             window: int = 255) -> int:
    """Whole windows in the characterization interval (at least one)."""
    cycles = int(t_sense_ms * 1e3 * sensor.clock_mhz)
    return max(cycles // window, 1)


def probe_zero_rate(sensor: SensorInstance, tune: TuneValue, seed: int,
                    batch: int = PROBE_BATCH) -> float:
    """Observed zero rate of a probe batch at ambient conditions.

    The count is probe_count() at the tune's keyed uniform.  A zero
    probability of exactly 0 or 1 is its own rate, the count it gives.
    """
    p0 = sensor.zero_probability(1.0, tune)
    if p0 == 0.0 or p0 == 1.0:
        return p0
    k = probe_count(p0, tune_uniform(seed, tune, PROBE), batch)
    return float(k) / batch


def max_zero_count(sensor: SensorInstance, tune: TuneValue, seed: int,
                   t_sense_ms: float, window: int = 255) -> int:
    """Largest window zero count over the characterization interval.

    The count is max_count() at the tune's keyed uniform.
    """
    p0 = sensor.zero_probability(1.0, tune)
    n_windows = characterization_windows(sensor, t_sense_ms, window)
    return int(max_count(p0, tune_uniform(seed, tune, SCORE), n_windows, window))


def is_metastable(rate: float, band=METASTABLE_BAND) -> bool:
    return band[0] <= rate <= band[1]


@functools.lru_cache(maxsize=8)
def _band_counts(batch: int, band: tuple) -> tuple[int, int] | None:
    """The run k_lo..k_hi of probe counts whose rate k / batch lies in the
    band, or None when no count's does."""
    k = np.arange(batch + 1)
    inside = np.flatnonzero((band[0] <= k / batch) & (k / batch <= band[1]))
    return (int(inside[0]), int(inside[-1])) if inside.size else None


def _probe_in_band(p0, u, batch: int, band) -> np.ndarray:
    """is_metastable() of probe_count(p0, u, batch) / batch, per element of
    the arrays ``p0`` and ``u``.

    The counts whose rate lies in the band are one run k_lo..k_hi, so the
    test needs two CDF values, bdtr(k_lo - 1) < u <= bdtr(k_hi), and no
    inversion.  The upper one, the costly one, is evaluated only where the
    lower test holds.
    """
    counts = _band_counts(batch, tuple(band))
    if counts is None:
        return np.zeros(u.shape, dtype=bool)
    k_lo, k_hi = counts
    ok = (bdtr(k_lo - 1, batch, p0) < u if k_lo > 0
          else np.ones(u.shape, dtype=bool))
    ok[ok] = u[ok] <= bdtr(k_hi, batch, p0[ok])
    return ok


def tune(sensor: SensorInstance, seed: int, t_sense_ms: float = 100.0,
         window: int = 255, probe_batch: int = PROBE_BATCH,
         band=METASTABLE_BAND) -> TuneValue:
    """Find the operating point with the lowest maximum zero count.

    For every data code, binary-search the clock code for the metastable
    boundary with LUT select 0, then try the adjacent clock codes with every
    LUT select.  Candidates whose probe zero rate falls inside the
    metastability band are scored by their maximum window zero count over
    the characterization interval; ties break toward the smallest clock
    code.  Raises TuningError when no candidate is metastable.

    A candidate's probe and score are probe_count() and max_count() at its
    keyed uniforms, as in probe_zero_rate() and max_zero_count(); the
    searches only ask whether the probe saw a zero, u > bdtr(0), or lies in
    the band, which needs no inversion.  Candidates are read from tables
    built once per call: the clock arrival of every clock code and the data
    arrival of every (data code, LUT select), whose difference plus the
    ambient offset is slack_ps(1.0) to the bit, and the keys of the seed,
    each purpose and each data code, folded as tune_uniform() folds them.
    The 32 searches run in lock-step over the select-0 probe outcomes of
    every clock code, and the neighbourhoods are scored as one array.
    """
    clock_max = 2 ** sensor.clock_code_bits - 1
    data, clocks = np.arange(32), np.arange(clock_max + 1)
    clock_at = sensor.clock_arrival_ps(TuneValue(0, clocks, 0))
    data_at = sensor.data_arrival_ps(
        TuneValue(data[:, None], 0, np.arange(sensor.lut_arity)))

    def zero_probability(d, c, s):  # sensor.zero_probability(1.0, cand)
        return sensor.slack_zero_probability(
            clock_at[c] - data_at[d, s] + sensor.ambient_offset_ps)

    probe_key, score_key = (_fold(seed & 0xFFFFFFFF, (purpose, data))
                            for purpose in (PROBE, SCORE))
    searched = _unit(_fold(probe_key[:, None], (clocks, 0)))
    lo = np.zeros(32, dtype=np.int64)
    hi = np.full(32, clock_max, dtype=np.int64)
    while (active := lo < hi).any():
        mid = (lo + hi) // 2
        zeros = (searched[data, mid]
                 > bdtr(0, probe_batch, zero_probability(data, mid, 0)))
        lo = np.where(active & zeros, mid + 1, lo)  # zeros: clock too early
        hi = np.where(active & ~zeros, mid, hi)

    d, c, s = np.broadcast_arrays(data[:, None, None],
                                  lo[:, None, None] + np.arange(-2, 2)[:, None],
                                  np.arange(sensor.lut_arity))
    keep = (c >= 0) & (c <= clock_max)
    d, c, s = d[keep], c[keep], s[keep]
    p0 = zero_probability(d, c, s)
    ok = _probe_in_band(p0, _unit(_fold(probe_key[d], (c, s))), probe_batch, band)
    if not ok.any():
        raise TuningError(
            "no metastable tune found; check path delay parameters"
        )
    d, c, s, p0 = d[ok], c[ok], s[ok], p0[ok]
    n_windows = characterization_windows(sensor, t_sense_ms, window)
    score = max_count(p0, _unit(_fold(score_key[d], (c, s))), n_windows, window)
    best = np.lexsort((s, d, c, score))[0]
    sensor.tune = TuneValue(int(d[best]), int(c[best]), int(s[best]))
    return sensor.tune


# -- ring-oscillator characterization ---------------------------------------

def ro_calibration(code: int, chain_len: int = 8, stages: int = 11,
                   stage_delay_ps: float = 350.0, per_tap_ps: float = 78.0,
                   base_ps: float = 600.0) -> float:
    """Ring-oscillator period in ns for a chain code, or for each of an
    integer array of codes.

    The oscillator loops `stages` inverting stages in series with the delay
    chain; the period is twice the loop delay.
    """
    loop_ps = stages * stage_delay_ps + chain_delay(code, chain_len,
                                                    per_tap_ps, base_ps)
    return 2.0 * loop_ps / 1000.0
