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
from array import array
from dataclasses import dataclass

import numpy as np

from . import defense as defense_mod
from .fabric import FabricModel
from .sensor import SensorInstance, window_pulses
from .thermal import LaserSpot, ThermalField, relax

# Sensor windows per vectorised pass of a raster stretch.  At 16,384 the
# pass is no faster, and its 128 kB temporaries raise the peak RSS of a
# run of the five EOFM scenarios by about 0.7 MB over 4,096.
RASTER_CHUNK_WINDOWS = 4096


class ScenarioError(Exception):
    """Scenario-level contract violation (bad region, bad stimulus, ...)."""


class Stimulus:
    """Periodic external input program; cycle 0 is the phase reference."""

    period_cycles: int = 1

    def inputs_at(self, cycle: int) -> dict[str, int]:
        raise NotImplementedError


class ResetToggleStimulus(Stimulus):
    """Global reset alternating every half period, plus static inputs.

    This is the profiling stimulus: registers that hold a 1 toggle at the
    lock-in frequency, registers that hold a 0 stay dark.
    """

    def __init__(self, half_period_cycles: int, static: dict[str, int] | None = None):
        if half_period_cycles < 1:
            raise ScenarioError("reset half period must be >= 1 cycle")
        self.half_period_cycles = half_period_cycles
        self.period_cycles = 2 * half_period_cycles
        self.static = dict(static or {})

    def inputs_at(self, cycle: int) -> dict[str, int]:
        inputs = dict(self.static)
        inputs["rst"] = (cycle // self.half_period_cycles) % 2
        return inputs


class ShiftStimulus(Stimulus):
    """Serial pattern fed into a shift register input, repeating."""

    def __init__(self, pattern: str, input_net: str = "sin",
                 static: dict[str, int] | None = None):
        if not pattern or set(pattern) - {"0", "1"}:
            raise ScenarioError(f"bad shift pattern {pattern!r}")
        self.pattern = [int(b) for b in pattern]
        self.period_cycles = len(self.pattern)
        self.input_net = input_net
        self.static = dict(static or {})

    def inputs_at(self, cycle: int) -> dict[str, int]:
        inputs = dict(self.static)
        inputs[self.input_net] = self.pattern[cycle % self.period_cycles]
        return inputs


def stimulus_for_target_freq(clock_mhz: float, target_freq_mhz: float,
                             static=None) -> ResetToggleStimulus:
    """Reset toggle at the target frequency, whose half period must be a
    whole number of sensor clock cycles (to 1e-9 relative)."""
    if target_freq_mhz > clock_mhz / 2.0:
        raise ScenarioError(
            f"target frequency {target_freq_mhz} MHz above clock/2"
        )
    half = clock_mhz / (2.0 * target_freq_mhz)
    if abs(half - round(half)) > 1e-9 * half:
        raise ScenarioError(
            f"target frequency {target_freq_mhz} MHz toggles every "
            f"{half:g} clock cycles, not a whole number"
        )
    return ResetToggleStimulus(round(half), static)


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
        self.model = model
        self.thermal = thermal
        self.sensor = sensor
        self.policy = policy
        self.stimulus = stimulus
        self.seed = seed
        self.t_detect = t_detect
        self.cycle_ps = sensor.cycle_ps
        self.window_ps = t_detect * self.cycle_ps
        self.t_ps = 0
        self.windows_done = 0
        self.threshold: float | None = policy.threshold
        ss = np.random.SeedSequence(seed)
        streams = ss.spawn(4)
        self.sensor_rng = np.random.default_rng(streams[0])
        self.image_rng = np.random.default_rng(streams[1])
        self.eop_rng = np.random.default_rng(streams[2])
        self.pulse_rng = np.random.default_rng(streams[3])
        # The defense stream also keys on the policy's own seed so one-time
        # randomness can be re-rolled independently of the scenario seed.
        self.defense_rng = np.random.default_rng(
            [seed & 0xFFFFFFFF, policy.rng_seed & 0xFFFFFFFF, 0xDEF]
        )
        self.pending_event: defense_mod.ReconfigEvent | None = None
        # Time of the trigger, a window end, once it has fired.
        self.trigger_ps: int | None = None
        # Zero count of every window so far, in window order, 8 bytes each;
        # counter_columns() builds the full counter log from them.
        self.window_counts = array("q")
        self._pulses = np.zeros(0, dtype=np.int64)
        self.defense_log: list[dict] = []
        self._epochs: list[tuple[int, int]] = [(0, 0)]
        self._epoch_id = 0
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

    def set_spot(self, spot: LaserSpot | None) -> None:
        self.thermal.set_spot(spot)

    def _pending_completion_ps(self) -> int | None:
        if self.pending_event is None or self.pending_event.applied:
            return None
        return round(self.pending_event.completes_at_us * 1e6)

    def advance_to(self, t_target_ps: int) -> None:
        """Run sensor windows and defense events up to the target time."""
        while self.advance_to_epoch_change(t_target_ps) < t_target_ps:
            pass

    def advance_to_epoch_change(self, t_target_ps: int) -> int:
        """Advance towards the target, stopping at the first new epoch.

        One window batch runs up to the target or the pending completion,
        whichever comes first.  If the batch fires the trigger, time stops
        at the trigger instead; windows already drawn past it stay drawn,
        which is exact while the spot stays put.  A completion due by the
        time reached is applied before returning, so the epoch in effect
        afterwards has every event at or before the returned time applied.
        Epochs started before the call (``invalidate_activity``) do not
        stop it.  Returns the time reached in ps.
        """
        if t_target_ps < self.t_ps:
            raise ScenarioError("time cannot run backwards")
        epoch_before = self._epoch_id
        stop = t_target_ps
        ev_ps = self._pending_completion_ps()
        if ev_ps is not None and ev_ps <= t_target_ps:
            stop = max(ev_ps, self.t_ps)
        self._run_windows_until(stop)
        if self._epoch_id != epoch_before:
            stop = self._epochs[-1][0]  # the trigger's time
        self._advance_field(stop)
        self.t_ps = stop
        ev_ps = self._pending_completion_ps()
        if ev_ps is not None and ev_ps <= self.t_ps:
            self._complete_event()
        return self.t_ps

    def raster(self, centers_um, dwell_ps: int, power: float,
               sigma_um: float) -> int:
        """Park the spot at each center for one dwell in turn; returns the
        raster's start time in ps.

        Gives the same windows, events and field as set_spot() plus
        advance_to() the dwell's end per center.  Event-free stretches of
        dwells run as one vectorised window pass (_raster_stretch); the
        dwell that fires the trigger or holds a pending completion steps
        through advance_to_epoch_change().  Each epoch's activity is
        recorded as it is entered, so a short-lived epoch such as the hold
        state of a relocation is imaged as it was, not as the fabric is
        after it.
        """
        centers = np.asarray(centers_um, dtype=float).reshape(-1, 2)
        LaserSpot((0.0, 0.0), power, sigma_um)  # validates power and sigma
        t0 = self.t_ps
        self.activity()
        i = 0
        while i < len(centers):
            last = len(centers)
            ev_ps = self._pending_completion_ps()
            if ev_ps is not None:
                # Dwells before the one whose end reaches the completion.
                last = min(last, (ev_ps - t0 - 1) // dwell_ps)
            i = self._raster_stretch(centers, i, last, t0, dwell_ps, power,
                                     sigma_um)
            if i == len(centers):
                break
            self.thermal.set_spot(LaserSpot(tuple(centers[i]), power, sigma_um))
            end_ps = t0 + (i + 1) * dwell_ps
            while self.t_ps < end_ps:
                epoch = self._epoch_id
                self.advance_to_epoch_change(end_ps)
                if self._epoch_id != epoch:
                    self.activity()
            i += 1
        return t0

    def _raster_stretch(self, centers, first: int, last: int, t0: int,
                        dwell_ps: int, power: float, sigma_um: float) -> int:
        """Dwells first..last-1 of a raster, none of which holds a pending
        completion, in one pass; returns the first dwell not run.

        Window ends are projected from each dwell's start with the cell
        temperatures of ThermalField.raster_cell, and the counts are drawn
        RASTER_CHUNK_WINDOWS at a time; batched binomial draws equal the
        per-dwell ones.  If a chunk fires the trigger, the stream is rewound
        to the chunk's start, the windows before the firing dwell are
        redrawn, and the stretch ends there: that dwell is left to
        advance_to_epoch_change().
        """
        if last <= first:
            return first
        dwell_us = dwell_ps / 1e6
        starts, steady = self.thermal.raster_cell(
            self.sensor.site, centers[first:last], power, sigma_um, dwell_us)
        begin_ps = t0 + first * dwell_ps
        n = (t0 + last * dwell_ps) // self.window_ps - self.windows_done
        armed = self.threshold is not None and not self.sensor.latched
        stop = last
        for done in range(0, n, RASTER_CHUNK_WINDOWS):
            index = self.windows_done + np.arange(min(RASTER_CHUNK_WINDOWS, n - done))
            ends_ps = (index + 1) * self.window_ps
            dwell = (ends_ps - begin_ps - 1) // dwell_ps
            dts_us = (ends_ps - (begin_ps + dwell * dwell_ps)) / 1e6
            delta_ts = relax(starts[dwell], steady[dwell],
                             np.exp(-dts_us / self.thermal.tau_us))
            p0 = self.sensor.zero_probability(1.0 + self.thermal.alpha_per_k * delta_ts)
            if armed:
                state = self.sensor_rng.bit_generator.state
            counts = self.sensor_rng.binomial(self.t_detect, p0)
            hits = np.flatnonzero(counts >= self.threshold) if armed else ()
            if len(hits):
                fired = int(dwell[hits[0]])
                keep = int(np.searchsorted(dwell, fired))
                self.sensor_rng.bit_generator.state = state
                counts = self.sensor_rng.binomial(self.t_detect, p0[:keep])
                stop = first + fired
            self.window_counts.frombytes(counts.astype(np.int64, copy=False).tobytes())
            self.windows_done += len(counts)
            if stop < last:
                break
        self.thermal.advance_raster(centers[first:stop], power, sigma_um, dwell_us)
        self.t_ps = t0 + stop * dwell_ps
        return stop

    def _advance_field(self, t_target_ps: int) -> None:
        dt_us = (t_target_ps - self.t_ps) / 1e6
        if dt_us > 0:
            self.thermal.advance(dt_us)

    # -- sensor window stream ------------------------------------------------

    def _run_windows_until(self, t_ps: int) -> None:
        n = t_ps // self.window_ps - self.windows_done
        if n <= 0:
            return
        ends_ps = (self.windows_done + 1 + np.arange(n)) * self.window_ps
        # Sensor-site temperature at each window end, projected from now.
        delta_ts = self.thermal.project(self.sensor.site, (ends_ps - self.t_ps) / 1e6)
        p0 = self.sensor.zero_probability(1.0 + self.thermal.alpha_per_k * delta_ts)
        counts = self.sensor_rng.binomial(self.t_detect, p0)
        if self.threshold is not None and not self.sensor.latched:
            hits = np.flatnonzero(counts >= self.threshold)
            if hits.size:
                self.sensor.latched = True
                self.model.set_latch_net(1)
                self._fire_defense(int(ends_ps[hits[0]]))
        self.window_counts.frombytes(counts.astype(np.int64, copy=False).tobytes())
        self.windows_done += n

    def counter_columns(self) -> tuple:
        """The counter log as four columns: window index (a range), zero
        count, max pulse and latched flag (a bool array).

        Only the zero counts feed back into the run; the rest follows from
        them.  The count column is a view of window_counts, which cannot
        grow while the view is held, so drop it before advancing again.  A
        window is latched when it ends at or after the trigger.  Max pulses
        are drawn here, in one batch for the windows logged since the last
        call; the pulse stream is consumed in window order, so the pulses
        do not depend on when or how often this is called.
        """
        counts = np.frombuffer(self.window_counts, dtype=np.int64)
        n = len(counts)
        drawn = len(self._pulses)
        if drawn < n:
            new = window_pulses(counts[drawn:], self.t_detect, self.pulse_rng)
            self._pulses = np.concatenate([self._pulses, new]) if drawn else new
        latched = np.zeros(n, dtype=bool)
        if self.trigger_ps is not None:
            # Window i ends at (i + 1) * window_ps.
            latched[max(-(-self.trigger_ps // self.window_ps) - 1, 0):] = True
        return range(n), counts, self._pulses, latched

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
        if event is None:
            # Immediate response (none/polymorphic/zeroize or capacity
            # fallback): activity changes right away.
            self._new_epoch(fire_ps)
        else:
            self.pending_event = event
            entry["event_complete_us"] = event.completes_at_us
            self._new_epoch(fire_ps)  # hold state: protected stop toggling
        self.defense_log.append(entry)

    def _complete_event(self) -> None:
        event = self.pending_event
        defense_mod.apply_event(self.model, event)
        if self.policy.move_sensor and event.new_placement:
            # Optionally carry the sensor into the reconfigured region.
            slots = defense_mod.free_ff_slots(self.model,
                                              self.policy.allowed_region)
            if slots:
                pick = slots[int(self.defense_rng.integers(len(slots)))]
                self.sensor.site = pick[0]
        self._new_epoch(round(event.completes_at_us * 1e6))
        if self.defense_log:
            self.defense_log[-1]["placement_diff"] = event.placement_diff()
            if event.permutation is not None:
                self.defense_log[-1]["permutation"] = event.permutation.cycle_notation()
        self.pending_event = None

    # -- epochs and activity ------------------------------------------------

    @property
    def epoch_id(self) -> int:
        return self._epoch_id

    def _new_epoch(self, t_ps: int) -> None:
        self._epoch_id += 1
        self._epochs.append((t_ps, self._epoch_id))

    def invalidate_activity(self) -> None:
        """Force a new epoch after an external change (e.g. input vector)."""
        self._new_epoch(self.t_ps)

    def epoch_segments(self, t0_ps: int, t1_ps: int) -> list[tuple[int, int, int]]:
        """(start, end, epoch_id) cover of the half-open interval [t0, t1)."""
        segs = []
        for i, (start, eid) in enumerate(self._epochs):
            end = (self._epochs[i + 1][0]
                   if i + 1 < len(self._epochs) else t1_ps)
            s, e = max(start, t0_ps), min(end, t1_ps)
            if s < e:
                segs.append((s, e, eid))
        return segs

    def activity(self, epoch_id: int | None = None) -> EpochActivity:
        """Primitive toggle amplitudes of an epoch, the current one by default.

        An epoch's activity is simulated from the fabric as it is, so a past
        epoch can only be read if it was recorded while it was in effect.
        """
        eid = self._epoch_id if epoch_id is None else epoch_id
        cached = self._activity_cache.get(eid)
        if cached is not None:
            return cached
        if eid != self._epoch_id:
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
        names, xs, ys = [], [], []
        for name, ff in model.ffs.items():
            names.append(name)
            x, y = model.slot_position_um(ff.site, ff.slot, "ff")
            xs.append(x)
            ys.append(y)
        lut_names = list(model.luts)
        for name in lut_names:
            lut = model.luts[name]
            x, y = model.slot_position_um(lut.site, lut.slot, "lut")
            names.append(name)
            xs.append(x)
            ys.append(y)
        waves = np.zeros((len(names), period))
        for cycle in self._replay(2 * period):
            if cycle >= period:
                t = cycle - period
                for i, ff_name in enumerate(model.ffs):
                    waves[i, t] = model.state[ff_name]
                for j, lut_name in enumerate(lut_names):
                    out = model.luts[lut_name].output_net
                    waves[len(model.ffs) + j, t] = model.net_values[out]
        if period == 1:
            coefs = np.zeros(len(names), dtype=complex)
        else:
            phases = np.exp(-2j * np.pi * np.arange(period) / period)
            coefs = waves @ phases * math.sin(math.pi / period)
        return EpochActivity(np.array(xs), np.array(ys), coefs, names)

    # -- probing helpers -------------------------------------------------------

    def resolve_probe_net(self, x_um: float, y_um: float,
                          radius_um: float | None = None) -> str | None:
        """Output net of the primitive closest to a probe point, if any."""
        radius = radius_um if radius_um is not None else self.model.site_pitch_um / 2
        best, best_d2 = None, radius * radius
        for ff in self.model.ffs.values():
            px, py = self.model.slot_position_um(ff.site, ff.slot, "ff")
            d2 = (px - x_um) ** 2 + (py - y_um) ** 2
            if d2 <= best_d2:
                best, best_d2 = ff.q, d2
        for lut in self.model.luts.values():
            px, py = self.model.slot_position_um(lut.site, lut.slot, "lut")
            d2 = (px - x_um) ** 2 + (py - y_um) ** 2
            if d2 <= best_d2:
                best, best_d2 = lut.output_net, d2
        return best

    def cycle_trace(self, net: str, n_cycles: int) -> np.ndarray:
        """Net value per cycle for one stimulus replay from phase zero."""
        values = np.zeros(n_cycles)
        for cycle in self._replay(n_cycles):
            values[cycle] = self.model.net_values[net]
        return values

    def _replay(self, n_cycles: int):
        """Clock the fabric through stimulus cycles 0..n_cycles-1, yielding
        each cycle after its edge.

        Within one replay the logic, the latch net and the hold state are
        fixed, so an edge's outcome depends only on the register state and
        the inputs before it; an edge that repeats an earlier (state,
        inputs) pair takes that edge's register state and net values
        instead of a new step_clock call.  The fabric ends as a plain
        replay leaves it.
        """
        model, stim = self.model, self.stimulus
        model.set_latch_net(int(self.sensor.latched))
        ffs = list(model.ffs)
        seen: dict[tuple, tuple[dict, dict]] = {}
        for cycle in range(n_cycles):
            inputs = stim.inputs_at(cycle)
            key = (tuple([model.state[name] for name in ffs]),
                   tuple(inputs.items()))
            after = seen.get(key)
            if after is None:
                model.step_clock(inputs)
                seen[key] = (model.state, model.net_values)
            else:
                model.state, model.net_values = after
            yield cycle
