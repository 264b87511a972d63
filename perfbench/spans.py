"""Span recorder and the layer instrumentation of a traced benchmark run.

Spans are recorded from this file, around calls into the public functions
of each probesim module; nothing inside ``src/probesim`` is changed.  Every
span is timed with the process CPU clock, the same clock as ``case_s``, so
the self times of one case add up exactly to its traced duration.
"""

from __future__ import annotations

import time

from probesim import attacker, defense, harness, sensor
from probesim.cosim import CoSimulation
from probesim.fabric import FabricModel
from probesim.thermal import ThermalField

# Span name -> per-layer metric that receives the span's self time.  The
# root span of each timed scenario run is ``case``; its self time is the
# benchmark's own glue inside the timed region, reported as the remainder.
SELF_TIME_METRIC = {
    "case": "trace.unattributed_s",
    "harness.load_scenario": "harness.load_s",
    "harness.load_netlist": "netlist.load_s",
    "harness.run": "harness.self_s",
    "harness.write_artifacts": "harness.write_artifacts_s",
    "harness.derive_threshold": "sensor.threshold_s",
    "harness.stability_test": "harness.stability_s",
    "sensor.tune": "sensor.tune_s",
    "attacker.eofm_scan": "attacker.self_s",
    "attacker.eop_probe": "attacker.self_s",
    "attacker.recover_function": "attacker.self_s",
    "attacker.recover_bits": "attacker.self_s",
    "attacker.localize": "attacker.self_s",
    "cosim.advance_to": "cosim.advance_self_s",
    "cosim.activity": "cosim.activity_s",
    "fabric.step_clock": "fabric.step_clock_s",
    "thermal.advance": "thermal.advance_s",
    "thermal.set_spot": "thermal.set_spot_s",
    "defense.on_trigger": "defense.reconfig_s",
    "defense.apply_event": "defense.reconfig_s",
}

# Counts the wrappers record at the call, beside the call counts below.
RECORDED_COUNTS = ("cosim.windows", "attacker.pixels", "attacker.eop_iterations",
                   "sensor.tune_probes", "defense.fallbacks")

# Span name -> metric that counts its calls.
CALL_COUNT_METRIC = {
    "cosim.advance_to": "cosim.advance_calls",
    "cosim.activity": "cosim.activity_calls",
    "fabric.step_clock": "fabric.step_clock_calls",
    "thermal.advance": "thermal.advance_calls",
    "thermal.set_spot": "thermal.set_spot_calls",
    "defense.on_trigger": "defense.triggers",
}


class Recorder:
    """In-memory spans: ``[name, start, end, parent index]`` per call."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so the children of a span never overlap
    and their summed durations are the part of the span they cover.
    """
    result = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            result[parent] -= end - start
    return result


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Self time per layer metric, call counts, and the recorded counts."""
    metrics = {name: 0.0 for name in set(SELF_TIME_METRIC.values())}
    metrics.update({name: 0 for name in CALL_COUNT_METRIC.values()})
    metrics.update({name: 0 for name in RECORDED_COUNTS})
    metrics["trace.case_s"] = 0.0
    for (name, start, end, parent), own in zip(rec.spans, self_times(rec.spans)):
        metrics[SELF_TIME_METRIC[name]] += own
        if name in CALL_COUNT_METRIC:
            metrics[CALL_COUNT_METRIC[name]] += 1
        if parent < 0:
            metrics["trace.case_s"] += end - start
    metrics.update(rec.counts)
    return metrics


def _spanned(rec: Recorder, name: str, fn, before=None, after=None):
    """Wrap ``fn`` in a span; ``before``/``after`` record counts at the call."""

    def wrapper(*args, **kwargs):
        state = before(*args, **kwargs) if before else None
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if after:
            after(state, result, *args, **kwargs)
        return result

    return wrapper


def install(rec: Recorder):
    """Patch the traced entry points; returns a function that restores them."""

    def windows_before(sim, *args, **kwargs):
        return sim.windows_done

    def windows_after(before, result, sim, *args, **kwargs):
        rec.count("cosim.windows", sim.windows_done - before)

    def pixels_before(sim, scan, *args, **kwargs):
        nx, ny = scan.n_pixels
        rec.count("attacker.pixels", nx * ny)

    def iterations_before(sim, point_um, duration_cycles, resolution_ps=100,
                          iterations=10_000, *args, **kwargs):
        rec.count("attacker.eop_iterations", iterations)

    def mode_before(policy, *args, **kwargs):
        return policy.mode

    def mode_after(mode, result, policy, *args, **kwargs):
        if mode != policy.mode:
            rec.count("defense.fallbacks")

    targets = [
        (harness, "load_scenario", "harness.load_scenario", None, None),
        (harness, "load_netlist", "harness.load_netlist", None, None),
        (harness, "run", "harness.run", None, None),
        (harness, "write_artifacts", "harness.write_artifacts", None, None),
        (harness, "derive_threshold", "harness.derive_threshold", None, None),
        (harness, "stability_test", "harness.stability_test", None, None),
        (sensor, "tune", "sensor.tune", None, None),
        (attacker, "eofm_scan", "attacker.eofm_scan", pixels_before, None),
        (attacker, "eop_probe", "attacker.eop_probe", iterations_before, None),
        (attacker, "recover_function", "attacker.recover_function", None, None),
        (attacker, "recover_bits", "attacker.recover_bits", None, None),
        (attacker, "localize", "attacker.localize", None, None),
        (CoSimulation, "advance_to", "cosim.advance_to",
         windows_before, windows_after),
        (CoSimulation, "activity", "cosim.activity", None, None),
        (FabricModel, "step_clock", "fabric.step_clock", None, None),
        (ThermalField, "advance", "thermal.advance", None, None),
        (ThermalField, "set_spot", "thermal.set_spot", None, None),
        (defense, "on_trigger", "defense.on_trigger", mode_before, mode_after),
        (defense, "apply_event", "defense.apply_event", None, None),
    ]
    originals = []
    for owner, attr, name, before, after in targets:
        fn = getattr(owner, attr)
        originals.append((owner, attr, fn))
        setattr(owner, attr, _spanned(rec, name, fn, before, after))
    # Tuning probes are counted, not spanned: a span per probe would cost
    # more than the probe.
    probe = sensor.probe_zero_rate
    originals.append((sensor, "probe_zero_rate", probe))

    def counted_probe(*args, **kwargs):
        rec.count("sensor.tune_probes")
        return probe(*args, **kwargs)

    sensor.probe_zero_rate = counted_probe

    def restore():
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)

    return restore
