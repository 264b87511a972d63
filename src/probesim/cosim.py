"""Shared simulated-time loop for fabric, heating, sensor, and defense.

Time is integer picoseconds.  The sensor samples every fabric clock cycle
and its zero counter is read out every ``t_detect`` cycles on a fixed global
window grid; the thermal field follows the laser spot with exact
exponential updates; defense events fire when the latch sets and complete
after the configured reconfiguration latency.  Functional fabric activity
is summarized per *epoch*: between defense state changes the stimulus is
periodic, so one period of cycle-accurate simulation yields every
primitive's toggle amplitude at the lock-in frequency.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import defense as defense_mod
from .fabric import FabricModel
from .sensor import SensorInstance, window_pulses, window_zero_counts
from .thermal import LaserSpot, ThermalField, relax

# Sensor windows per vectorised pass of a spot schedule.  At 16,384 the
# pass is no faster, and its 128 kB temporaries raise the peak RSS of a
# run of the five EOFM scenarios by about 0.7 MB over 4,096.
RASTER_CHUNK_WINDOWS = 4096

# The windows of each distinct schedule draw, by everything the draw reads
# (_stream_key): a process that runs one sensor, seed and scan in several
# scenarios (probesim batch, a sweep) draws each window stream once.  The
# bundled eofm scenarios at one seed draw six streams, one key raster and
# five XOR rasters, which the other three scenarios repeat.  Each value is
# the schedule's read-only entry of CoSimulation.record, which a hit adds
# to its own record as it is, and the sensor generator's state after the
# draw.  Bounds: at most STREAM_CACHE_ENTRIES entries, the oldest dropped
# first; a schedule of more than STREAM_CACHE_KEY_BYTES of dwell
# temperatures (4,096 dwells, against 512 in the largest bundled raster) or
# with more than STREAM_CACHE_NONZERO non-zero windows (7,285 in the
# largest bundled run, mtd_inter_key at seed 1, whose tune leaves about
# 0.58 million of harness.MAX_WINDOWS ambient windows non-zero) is drawn
# and not kept.  So the cache holds at most 8 x (64 kB + 384 kB), 3.5 MB.
# A schedule of fewer than STREAM_CACHE_MIN_WINDOWS windows, such as each
# of eop_shift's two 941-window holds, is not kept either: keying and
# keeping it took about 10 us, as much as a draw of its windows at one p0,
# and a run of short holds would push the rasters out.
STREAM_CACHE_ENTRIES = 8
STREAM_CACHE_KEY_BYTES = 2 ** 16
STREAM_CACHE_NONZERO = 2 ** 16
STREAM_CACHE_MIN_WINDOWS = 4096
STREAM_CACHE: dict[tuple, tuple] = {}

# The last counter log, by everything it is a function of: a process that
# runs one sensor, seed and scan in several scenarios draws its max pulses
# and formats its counters.csv once.  The key (counter_columns) is the
# window size, the window count, the first latched window, the pulse
# generator's state and the bytes of the run's record.  The bundled key
# scenarios at one seed write one log, and the two XOR scenarios another.
# The value is a KeptLog.  Bounds: one entry, dropped before a log that
# misses draws and formats, so at most one log is held; a log of fewer
# than STREAM_CACHE_MIN_WINDOWS windows (eop_shift's 1,882) or with more
# than STREAM_CACHE_NONZERO non-zero windows has no key; a body over
# LOG_BODY_BYTES is written and not kept (mtd_inter_key writes 2.5 MB at
# seed 1).  So the cache holds at most 4 MiB of body and 512 kB of key and
# pulses.
LOG_BODY_BYTES = 4 * 2 ** 20
LOG_CACHE: dict[tuple, KeptLog] = {}

# A raster dwell is ambient when |alpha| * max(|start|, |steady|) of the
# sensor cell is below this; every window in it then has a delay factor
# 1.0 + alpha * dT of exactly 1.0.  That holds for |alpha * dT| <= 2**-54
# of either sign, and the factor 2 left over covers the rounding of relax(),
# whose result lies between start and steady up to a few ulps.
AMBIENT_LIMIT = 2.0 ** -55


class ScenarioError(Exception):
    """Scenario-level contract violation (bad region, bad stimulus, ...)."""


@dataclass
class KeptLog:
    """A LOG_CACHE entry: the max pulses of the log's non-zero windows, in
    record order (uint8, or uint16 for a window over 255 samples),
    read-only, the pulse generator's state after their draw, and the bytes
    of counters.csv as written, a tuple of chunks, which
    harness.write_artifacts sets at the log's first write."""

    pulses: np.ndarray
    state: dict
    body: tuple[bytes, ...] | None = None


def _rng_key(rng) -> tuple:
    """A generator's full state as a hashable tuple."""
    state = rng.bit_generator.state
    return (state["bit_generator"], *state["state"].values(),
            state["has_uint32"], state["uinteger"])


def _narrow(t_detect: int):
    """The narrowest unsigned dtype that holds a count of t_detect."""
    return np.uint8 if t_detect <= 255 else np.uint16


@dataclass
class Stimulus:
    """Periodic external input program: ``net`` is driven with ``bits``,
    repeating from cycle 0, and each ``static`` input holds its value.

    A reset toggle drives ``rst`` low for half a period, then high; this is
    the profiling stimulus, under which registers that hold a 1 toggle at
    the lock-in frequency and registers that hold a 0 stay dark.  A shift
    stimulus feeds a serial pattern into a shift register's input.
    """

    net: str
    bits: tuple[int, ...]
    static: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.bits or set(self.bits) - {0, 1}:
            raise ScenarioError(f"bad stimulus bits {self.bits!r}")

    @property
    def period_cycles(self) -> int:
        return len(self.bits)

    def inputs_at(self, cycle: int) -> dict[str, int]:
        return {**self.static, self.net: self.bits[cycle % len(self.bits)]}

    def input_program(self, n_cycles: int) -> tuple[tuple[int, ...], list[dict]]:
        """Input id of each of cycles 0..n_cycles-1, and the distinct input
        dicts by id: the driven bit is the id."""
        ids = (self.bits * -(-n_cycles // len(self.bits)))[:n_cycles]
        return ids, [{**self.static, self.net: bit} for bit in (0, 1)]


def half_period_cycles(clock_mhz: float, target_freq_mhz: float) -> int:
    """Clock cycles per half period of a reset toggle at the target
    frequency, which must be a whole number (to 1e-9 relative)."""
    if target_freq_mhz > clock_mhz / 2.0:
        raise ScenarioError(
            f"target frequency {target_freq_mhz} MHz above clock/2"
        )
    half = clock_mhz / (2.0 * target_freq_mhz)
    if not math.isfinite(half) or abs(half - round(half)) > 1e-9 * half:
        raise ScenarioError(
            f"target frequency {target_freq_mhz} MHz toggles every "
            f"{half:g} clock cycles, not a whole number"
        )
    return round(half)


def stimulus_for_target_freq(clock_mhz: float, target_freq_mhz: float,
                             static=None) -> Stimulus:
    """Reset toggle at the target frequency, plus static inputs."""
    half = half_period_cycles(clock_mhz, target_freq_mhz)
    return Stimulus("rst", (0,) * half + (1,) * half, dict(static or {}))


@dataclass
class EpochActivity:
    """Positions and lock-in coefficients of every primitive in one epoch."""

    xs: np.ndarray
    ys: np.ndarray
    coefs: np.ndarray  # complex, normalized so a full 0/1 toggle is 1.0
    names: list[str]

    def signals(self, x_um: np.ndarray, y_um: np.ndarray,
                psf_sigma_um: float) -> np.ndarray:
        """Lock-in amplitude at each probe point: the magnitude of the
        point-spread-weighted sum of the coefficients.  Each point's sum is
        a row reduction, so a point's value does not depend on how many
        points are asked for at once."""
        if self.xs.size == 0:
            return np.zeros(len(x_um))
        d2 = (self.xs - x_um[:, None]) ** 2 + (self.ys - y_um[:, None]) ** 2
        weights = np.exp(-d2 / (psf_sigma_um ** 2))
        return np.abs((weights * self.coefs).sum(axis=1))


class CoSimulation:
    """One scenario's simulated timeline."""

    def __init__(self, model: FabricModel, thermal: ThermalField,
                 sensor: SensorInstance, policy: defense_mod.DefensePolicy,
                 stimulus: Stimulus, seed: int, t_detect: int = 255):
        if thermal.site != sensor.site:
            raise ScenarioError(f"thermal cell {thermal.site} is not the "
                                f"sensor's site {sensor.site}")
        self.model = model
        self.thermal = thermal
        self.sensor = sensor
        self.policy = policy
        self.stimulus = stimulus
        self.t_detect = t_detect
        self.cycle_ps = sensor.cycle_ps
        self.window_ps = t_detect * self.cycle_ps
        self.t_ps = 0
        self.windows_done = 0
        ss = np.random.SeedSequence(seed)
        streams = ss.spawn(4)
        self.sensor_rng = np.random.default_rng(streams[0])
        self.image_rng = np.random.default_rng(streams[1])
        self.eop_rng = np.random.default_rng(streams[2])
        self.pulse_rng = np.random.default_rng(streams[3])
        # The defense stream keys on the scenario seed; the middle word of
        # the key is fixed, and changing it would re-draw every placement.
        self.defense_rng = np.random.default_rng([seed & 0xFFFFFFFF, 0, 0xDEF])
        # The reconfiguration under way, until it completes.
        self.pending_event: defense_mod.ReconfigEvent | None = None
        # Time of the trigger, a window end, once it has fired: the sensor's
        # sticky latch.
        self.trigger_ps: int | None = None
        # The windows so far, one entry per schedule in window order:
        # (start, offsets, counts), the schedule's first window, and the
        # offsets from it (uint32) and zero counts (uint8, or uint16 for a
        # window over 255 samples) of its non-zero windows, read-only.  A
        # window in no entry counted no zero.  counter_columns() builds the
        # full counter log from them.
        self.record: list[tuple[int, np.ndarray, np.ndarray]] = []
        # The max pulses of the record's first non-zero windows, in record
        # order, drawn by counter_columns() over its first _logged windows.
        self._nonzero_pulses = np.zeros(0, dtype=_narrow(t_detect))
        self._logged = 0
        # The LOG_CACHE entry of the log counter_columns() last returned, or
        # None if that log has no key or grew after its first call.
        self.kept_log: KeptLog | None = None
        self.defense_log: list[dict] = []
        # Start time of each epoch, by epoch id; starts never decrease.
        self._epochs: list[int] = [0]
        # Time the current spot was parked: the field is up to date to then,
        # and a hold projects the sensor cell from then.
        self._parked_ps = 0
        self._activity_cache: dict[int, EpochActivity] = {}
        model.set_latch_net(0)
        model.settle(stimulus.inputs_at(0))

    # -- time --------------------------------------------------------------

    @property
    def t_us(self) -> float:
        return self.t_ps / 1e6

    @property
    def trigger_time_us(self) -> float | None:
        return None if self.trigger_ps is None else self.trigger_ps / 1e6

    @property
    def latched(self) -> bool:
        return self.trigger_ps is not None

    def set_spot(self, spot: LaserSpot | None) -> None:
        """Park the spot, or lift it with None, from now on."""
        self._settle_field()
        self.thermal.set_spot(spot)

    def _settle_field(self) -> None:
        """Bring the field up to now with one advance of the time the spot
        has been parked, and count the parked time from now."""
        if self.t_ps > self._parked_ps:
            self.thermal.advance((self.t_ps - self._parked_ps) / 1e6)
        self._parked_ps = self.t_ps

    def _pending_completion_ps(self) -> int | None:
        if self.pending_event is None:
            return None
        return round(self.pending_event.completes_at_us * 1e6)

    def advance_to(self, t_target_ps: int) -> None:
        """Run sensor windows and defense events up to the target time."""
        while self.advance_to_epoch_change(t_target_ps) < t_target_ps:
            pass

    def advance_to_epoch_change(self, t_target_ps: int) -> int:
        """Advance towards the target, stopping at the first new epoch.

        The parked spot's windows are drawn up to the target as one dwell
        from the time the spot was parked, so they do not depend on where
        time stops; they stay drawn if the spot moves before the target is
        reached.  Time stops at the trigger if this draw fired it, or else
        at a pending completion due by the target.  A completion due
        by the time reached is applied before returning, so the epoch in
        effect afterwards has every event at or before the returned time
        applied.  Epochs started before the call (``invalidate_activity``)
        do not stop it.  Returns the time reached in ps.
        """
        if t_target_ps < self.t_ps:
            raise ScenarioError("time cannot run backwards")
        if t_target_ps // self.window_ps > self.windows_done:
            self._run_schedule(*self.thermal.hold(),
                               self._parked_ps, t_target_ps - self._parked_ps,
                               t_target_ps)
        stops = [t_target_ps]
        if self.trigger_ps is not None and self.trigger_ps > self.t_ps:
            stops.append(self.trigger_ps)
        ev_ps = self._pending_completion_ps()
        if ev_ps is not None:
            stops.append(ev_ps)
        self.t_ps = min(stops)
        if ev_ps is not None and ev_ps <= self.t_ps:
            self._complete_event()
        return self.t_ps

    def raster(self, centers_um, dwell_ps: int, power: float,
               sigma_um: float) -> int:
        """Park the spot at each center for one dwell in turn; returns the
        raster's start time in ps.

        Gives the same windows, events and field as set_spot() plus
        advance_to() the dwell's end per center, from one pass: the sensor
        cell's schedule (ThermalField.raster) and its windows
        (_run_schedule).
        The defense events of the pass only mark times.  After it, the
        raster enters the trigger's epoch, and then the completion's if it
        is due by the raster's end.  Each epoch's activity is recorded as
        it is entered, so a short-lived epoch such as the hold state of a
        relocation is imaged as it was, not as the fabric is after it.
        """
        centers = np.asarray(centers_um, dtype=float).reshape(-1, 2)
        LaserSpot((0.0, 0.0), power, sigma_um)  # validates power and sigma
        t0 = self.t_ps
        end_ps = t0 + len(centers) * dwell_ps
        self.activity()
        self._settle_field()
        epoch = self.epoch_id
        self._run_schedule(*self.thermal.raster(centers, power, sigma_um,
                                                dwell_ps / 1e6),
                           t0, dwell_ps, end_ps)
        self.t_ps = self._parked_ps = end_ps
        if self.epoch_id != epoch:  # the pass fired the trigger
            self.activity()
        ev_ps = self._pending_completion_ps()
        if ev_ps is not None and ev_ps <= end_ps:
            self._complete_event()
            self.activity()
        return t0

    # -- sensor window stream ------------------------------------------------

    def _run_schedule(self, starts, steady, begin_ps: int, dwell_ps: int,
                      end_ps: int) -> None:
        """Draw the windows of a spot schedule that end by end_ps.

        The schedule is dwells of dwell_ps from begin_ps, in which the
        sensor cell relaxes from starts[d] towards steady[d].  Every sensor
        window is drawn here, a chunk at a time, and only the non-zero ones
        are kept, as the schedule's record entry.  The trigger is checked
        only here, on the entry: the first window at or over the threshold
        latches the sensor and fires the defense at its end.  The sensor
        never moves and the defense draws from its own stream, so the
        response the trigger starts changes no window, and checking the
        whole schedule after its draw fires where a check per window does.

        A schedule drawn before in this process with the same inputs
        (STREAM_CACHE) adds the stored entry to the record as it is, and
        the sensor generator is left as the draw left it.  The threshold
        and the latch take no part in the draw, so the trigger check runs
        on either path.
        """
        w0 = self.windows_done
        n = end_ps // self.window_ps - w0
        key = self._stream_key(starts, steady, begin_ps, dwell_ps, n)
        drawn = STREAM_CACHE.get(key) if key is not None else None
        if drawn is not None:
            entry, state = drawn
            self.sensor_rng.bit_generator.state = state
        else:
            # Sized for n non-zero windows and shrunk in place to the ones
            # drawn, so they are held once: a hold on the sensor counts
            # zeros in almost every window.
            offsets = np.empty(n, dtype=np.uint32)
            nonzero = np.empty(n, dtype=_narrow(self.t_detect))
            w = kept = 0
            for runs in self._stretch_p0(starts, steady, begin_ps, dwell_ps, n):
                counts = np.concatenate([window_zero_counts(
                    p0, m, self.t_detect, self.sensor_rng) for p0, m in runs])
                # Found in a bool mask: np.flatnonzero of the int64 counts
                # took five times as long (0.50 against 0.10 ms for 200,784
                # windows).
                hits = np.flatnonzero(counts != 0)
                offsets[kept:kept + len(hits)] = hits + w
                nonzero[kept:kept + len(hits)] = counts[hits]
                w += len(counts)
                kept += len(hits)
            offsets.resize(kept)
            nonzero.resize(kept)
            offsets.flags.writeable = nonzero.flags.writeable = False
            entry = (w0, offsets, nonzero)
            if key is not None and kept <= STREAM_CACHE_NONZERO:
                if len(STREAM_CACHE) >= STREAM_CACHE_ENTRIES:
                    del STREAM_CACHE[next(iter(STREAM_CACHE))]  # the oldest
                STREAM_CACHE[key] = (entry, self.sensor_rng.bit_generator.state)
        self.record.append(entry)
        self.windows_done = w0 + n
        self._check_trigger(entry)

    def _stream_key(self, starts, steady, begin_ps: int, dwell_ps: int,
                    n: int) -> tuple | None:
        """Everything the draw of the next n windows of a spot schedule
        reads, or None for a schedule too short or too large to keep: the
        sensor generator's state, the sensor's fields with its tune, the
        thermal constants, the window grid and the schedule.  The sensor's
        fields and the thermal constants are read at each call, as the
        field's attributes may be set after the CoSimulation is built."""
        if n < STREAM_CACHE_MIN_WINDOWS:
            return None
        starts = np.asarray(starts, dtype=float)
        steady = np.asarray(steady, dtype=float)
        if starts.nbytes + steady.nbytes > STREAM_CACHE_KEY_BYTES:
            return None
        return (*_rng_key(self.sensor_rng),
                *vars(self.sensor).values(), self.thermal.alpha_per_k,
                self.thermal.tau_us, self.t_detect, self.window_ps,
                self.windows_done, n, begin_ps, dwell_ps,
                starts.tobytes(), steady.tobytes())

    def _check_trigger(self, entry: tuple) -> None:
        """Latch the sensor and fire the defense at the end of the entry's
        first window at or over the threshold, unless it has latched
        before.  A window not in the entry counted no zero, so the
        threshold must be above 0."""
        threshold = self.policy.threshold
        if threshold is not None and not threshold > 0:
            raise ScenarioError(f"threshold {threshold} must be above 0")
        if threshold is None or self.latched:
            return
        start, offsets, counts = entry
        over = counts >= threshold
        if over.any():
            self.model.set_latch_net(1)
            hit = int(offsets[np.argmax(over)])
            self._fire_defense((start + hit + 1) * self.window_ps)

    def _stretch_p0(self, starts, steady, begin_ps: int, dwell_ps: int, n: int):
        """Zero probabilities of the next n windows of a spot schedule that
        begins at begin_ps, in window order and without draws.

        Window w ends at (w + 1) * window_ps, in the dwell d of the schedule
        that holds that end, and its temperature is projected from the
        dwell's start: relax(starts[d], steady[d], exp(-dt / tau)).  Yields
        one list per chunk of RASTER_CHUNK_WINDOWS windows, of (p0, m) per
        run of m windows.  In a run of ambient dwells p0 is one float, the
        sensor's zero probability at a delay factor of 1.0; elsewhere it is
        an array of m values.
        """
        alpha, window_ps = self.thermal.alpha_per_k, self.window_ps
        ambient = (abs(alpha) * np.maximum(np.abs(starts), np.abs(steady))
                   < AMBIENT_LIMIT)
        p_ambient = (float(self.sensor.zero_probability(np.ones(1))[0])
                     if ambient.any() else None)
        # A dwell of the other class than the dwell before starts a run, at
        # the first window that ends in it.
        switches = np.flatnonzero(ambient[1:] != ambient[:-1]) + 1
        run_starts = ((begin_ps + switches * dwell_ps) // window_ps).tolist()
        w0 = self.windows_done
        for chunk in range(w0, w0 + n, RASTER_CHUNK_WINDOWS):
            end = min(chunk + RASTER_CHUNK_WINDOWS, w0 + n)
            bounds = [chunk, *run_starts[bisect_right(run_starts, chunk):
                                         bisect_left(run_starts, end)], end]
            runs = []
            for a, b in zip(bounds, bounds[1:]):
                if a == b:  # a switch in a dwell that no window ends in
                    continue
                dwell = ((a + 1) * window_ps - begin_ps - 1) // dwell_ps
                if ambient[dwell]:
                    runs.append((p_ambient, b - a))
                    continue
                ends_ps = (np.arange(a, b) + 1) * window_ps
                dwell = (ends_ps - begin_ps - 1) // dwell_ps
                dts_us = (ends_ps - (begin_ps + dwell * dwell_ps)) / 1e6
                delta_ts = relax(starts[dwell], steady[dwell],
                                 np.exp(-dts_us / self.thermal.tau_us))
                runs.append((self.sensor.zero_probability(
                    1.0 + alpha * delta_ts), b - a))
            yield runs

    def counter_columns(self) -> tuple:
        """The counter log as four columns: window index (a range), zero
        count, max pulse and latched flag (a bool array), from the record.

        Only the zero counts feed back into the run; the rest follows from
        them.  A window is latched when it ends at or after the trigger.
        Max pulses are drawn here, for the record's non-zero windows alone,
        in one batch for the windows logged since the last call: a zero
        window draws none (window_pulses), and the pulse stream is consumed
        in window order, so the pulses do not depend on when or how often
        this is called.

        A first call whose log an earlier run of this process drew
        (LOG_CACHE) takes the pulses from the kept log and leaves the pulse
        generator as that draw left it.
        """
        n = self.windows_done
        # Window i ends at (i + 1) * window_ps.
        first = (n if self.trigger_ps is None
                 else max(-(-self.trigger_ps // self.window_ps) - 1, 0))
        if self._logged < n:
            nonzero = np.concatenate([counts for _, _, counts in self.record])
            key = kept = None
            if (not self._logged and n >= STREAM_CACHE_MIN_WINDOWS
                    and len(nonzero) <= STREAM_CACHE_NONZERO):
                key = (self.t_detect, n, first, *_rng_key(self.pulse_rng),
                       *(part for start, offsets, counts in self.record
                         for part in (start, offsets.tobytes(), counts.tobytes())))
                kept = LOG_CACHE.get(key)
                if kept is None:
                    LOG_CACHE.clear()  # before the draw: at most one log is held
            if kept is not None:
                self.pulse_rng.bit_generator.state = kept.state
                self._nonzero_pulses = kept.pulses
            else:
                new = window_pulses(nonzero[len(self._nonzero_pulses):],
                                    self.t_detect, self.pulse_rng)
                self._nonzero_pulses = np.concatenate([self._nonzero_pulses, new])
                if key is not None:
                    self._nonzero_pulses.flags.writeable = False
                    kept = LOG_CACHE[key] = KeptLog(
                        self._nonzero_pulses, self.pulse_rng.bit_generator.state)
            self.kept_log = kept
            self._logged = n
        counts = np.zeros(n, dtype=np.int64)
        pulses = np.zeros(n, dtype=np.int64)
        done = 0
        for start, offsets, entry_counts in self.record:
            counts[start:][offsets] = entry_counts
            pulses[start:][offsets] = self._nonzero_pulses[done:done + len(offsets)]
            done += len(offsets)
        latched = np.zeros(n, dtype=bool)
        latched[first:] = True
        return range(n), counts, pulses, latched

    # -- defense ---------------------------------------------------------------

    def _fire_defense(self, fire_ps: int) -> None:
        if self.trigger_ps is not None:
            return
        self.trigger_ps = fire_ps
        event = defense_mod.on_trigger(
            self.policy, self.model, self.trigger_time_us, self.defense_rng,
            exclude_sites=[self.sensor.site],
        )
        entry = {
            "trigger_time_us": self.trigger_time_us,
            "mode": self.policy.mode,
            "event_complete_us": self.trigger_time_us,
            "placement_diff": "",
            "permutation": "",
        }
        if event is not None:
            # Hold state until it completes: protected bits stop toggling.
            self.pending_event = event
            entry["event_complete_us"] = event.completes_at_us
        # An immediate response (none, polymorphic, zeroize or a capacity
        # fallback) changes activity right away, as does a hold.
        self._new_epoch(fire_ps)
        self.defense_log.append(entry)

    def _complete_event(self) -> None:
        event = self.pending_event
        defense_mod.apply_event(self.model, event)
        self._new_epoch(round(event.completes_at_us * 1e6))
        if self.defense_log:
            self.defense_log[-1]["placement_diff"] = event.placement_diff()
            if event.permutation is not None:
                self.defense_log[-1]["permutation"] = event.permutation.cycle_notation()
        self.pending_event = None

    # -- epochs and activity ------------------------------------------------

    @property
    def epoch_id(self) -> int:
        return len(self._epochs) - 1

    def _new_epoch(self, t_ps: int) -> None:
        self._epochs.append(t_ps)

    def invalidate_activity(self) -> None:
        """Force a new epoch after an external change (e.g. input vector)."""
        self._new_epoch(self.t_ps)

    def epoch_segments(self, t0_ps: int, t1_ps: int) -> list[tuple[int, int, int]]:
        """(start, end, epoch_id) cover of the half-open interval [t0, t1).

        The search starts at the last epoch that starts by t0, so a call
        does not grow with the epochs before it.
        """
        starts = self._epochs
        segs = []
        for eid in range(max(bisect_right(starts, t0_ps) - 1, 0), len(starts)):
            if starts[eid] >= t1_ps:
                break
            end = starts[eid + 1] if eid + 1 < len(starts) else t1_ps
            s, e = max(starts[eid], t0_ps), min(end, t1_ps)
            if s < e:
                segs.append((s, e, eid))
        return segs

    def activity(self, epoch_id: int | None = None) -> EpochActivity:
        """Primitive toggle amplitudes of an epoch, the current one by default.

        An epoch's activity is simulated from the fabric as it is, so a past
        epoch can only be read if it was recorded while it was in effect.
        """
        eid = self.epoch_id if epoch_id is None else epoch_id
        cached = self._activity_cache.get(eid)
        if cached is not None:
            return cached
        if eid != self.epoch_id:
            raise ScenarioError(
                f"activity of epoch {eid} was not recorded while it was in effect")
        act = self._simulate_activity()
        self._activity_cache[eid] = act
        return act

    def _simulate_activity(self) -> EpochActivity:
        """One steady periodic stimulus cycle, cycle-accurate.

        Runs two stimulus periods (the first settles the pipeline into its
        periodic orbit) and correlates every primitive's waveform with the
        fundamental of the stimulus period.  Normalization makes an ideal
        0/1 square toggle come out at amplitude 1.
        """
        model = self.model
        period = self.stimulus.period_cycles
        names = [*model.ffs, *model.luts]
        xs, ys = np.array([model.cell_position_um(name) for name in names],
                          dtype=float).reshape(-1, 2).T
        outputs = [lut.output_net for lut in model.luts.values()]
        edges, after = self._replay(2 * period)
        if period == 1:
            coefs = np.zeros(len(names), dtype=complex)
        else:
            # One row of primitive values per distinct edge.
            rows = np.array([[state[name] for name in model.ffs]
                             + [values[net] for net in outputs]
                             for state, values in after], dtype=float)
            waves = rows[edges[period:]].T
            phases = np.exp(-2j * np.pi * np.arange(period) / period)
            coefs = waves @ phases * math.sin(math.pi / period)
        return EpochActivity(xs, ys, coefs, names)

    # -- probing helpers -------------------------------------------------------

    def resolve_probe_net(self, x_um: float, y_um: float) -> str | None:
        """Output net of the primitive closest to a probe point, within
        half a site pitch, if any."""
        model = self.model
        radius = model.site_pitch_um / 2
        best, best_d2 = None, radius * radius
        # Flip-flops first, then LUTs: a later primitive at the same
        # distance wins the tie.
        nets = [ff.q for ff in model.ffs.values()]
        nets += [lut.output_net for lut in model.luts.values()]
        for name, net in zip([*model.ffs, *model.luts], nets):
            px, py = model.cell_position_um(name)
            d2 = (px - x_um) ** 2 + (py - y_um) ** 2
            if d2 <= best_d2:
                best, best_d2 = net, d2
        return best

    def cycle_trace(self, net: str, n_cycles: int) -> np.ndarray:
        """Net value per cycle for one stimulus replay from phase zero."""
        edges, after = self._replay(n_cycles)
        return np.array([values[net] for _, values in after], dtype=float)[edges]

    def _replay(self, n_cycles: int) -> tuple[list[int], list[tuple[dict, dict]]]:
        """Clock the fabric through stimulus cycles 0..n_cycles-1; returns
        the edge id of each cycle and the (register state, net values)
        after each distinct edge, by edge id.

        Within one replay the logic, the latch net and the hold state are
        fixed, so an edge's outcome depends only on the register state and
        the inputs before it.  Edge 0 is the fabric before the replay.  A
        table maps (edge, input id) to the next edge, so a cycle that
        follows a known pair is one lookup; a new pair whose (state,
        inputs) an earlier edge has met takes that edge's outcome, and
        only a new (state, inputs) pair calls step_clock.  The fabric ends
        as a plain replay leaves it.
        """
        model, stim = self.model, self.stimulus
        model.set_latch_net(int(self.latched))
        ids, inputs = stim.input_program(n_cycles)
        ffs = list(model.ffs)
        after = [(model.state, model.net_values)]
        nxt: dict[tuple[int, int], int] = {}
        seen: dict[tuple, int] = {}
        edges = []
        edge = 0
        for i in ids:
            new = nxt.get((edge, i))
            if new is None:
                state = after[edge][0]
                key = (tuple([state[name] for name in ffs]), i)
                new = seen.get(key)
                if new is None:
                    model.state, model.net_values = after[edge]
                    model.step_clock(inputs[i])
                    new = seen[key] = len(after)
                    after.append((model.state, model.net_values))
                nxt[edge, i] = new
            edge = new
            edges.append(edge)
        model.state, model.net_values = after[edge]
        return edges, after
