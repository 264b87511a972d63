"""Scenario runner: loads configs, wires the subsystems, emits artifacts.

Scenario files are INI-style structured text with explicit units in the key
names (``dwell_ms``, ``pr_latency_us``, ...).  A fixed seed makes a run
bit-identical: every random stream derives from it.
"""

from __future__ import annotations

import configparser
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import attacker, sensor as sensor_mod
from .artifacts import write_counters_csv, write_rows
from .attacker import EofmImage, EopTrace, ScanConfig
from .cosim import (CoSimulation, ScenarioError, ShiftStimulus,
                    stimulus_for_target_freq)
from .defense import CapacityError, DefensePolicy, region_slices
from .fabric import FabricModel, SliceCoord
from .netlist import NetlistError, load_netlist
from .sensor import SensorInstance, TuneValue, window_zero_counts
from .thermal import ThermalField

KINDS = ("eofm_key", "eofm_function", "eop", "stability")


class ConfigError(Exception):
    """Scenario file could not be parsed or fails validation."""


def _parse_rect(text: str):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"expected x0,y0,x1,y1, got {text!r}")
    return tuple(parts)


def _parse_site(text: str) -> SliceCoord:
    x, y = text.split(",")
    return SliceCoord(int(x), int(y))


@dataclass
class StimulusSpec:
    program: str = "reset_toggle"
    key: str = ""
    key_random: bool = False
    pattern: str = "10110001"
    serial_net: str = "sin"


@dataclass
class EopSpec:
    probe_cells: list[str] = field(default_factory=list)
    duration_cycles: int = 24
    resolution_ps: int = 100
    iterations: int = 10_000
    noise_sigma: float = 1.0
    power: float = 1.0


@dataclass
class FunctionSpec:
    operand_nets: list[list[str]] = field(default_factory=list)
    output_cells: list[str] = field(default_factory=list)
    vectors: list[tuple[int, ...]] = field(default_factory=list)
    region_um: tuple | None = None


@dataclass
class StabilitySpec:
    duration_min: float = 30.0
    log_every_ms: float = 1000.0
    rolling_window: int = 100
    drift_sigma_ps: float = 0.0
    drift_tau_s: float = 20.0


@dataclass
class Scenario:
    """Everything one run needs, decoded from a .scn file."""

    name: str
    kind: str
    netlist_path: Path
    seed: int = 1
    thermal: dict = field(default_factory=dict)
    sensor: dict = field(default_factory=dict)
    pinned_tune: TuneValue | None = None
    t_sense_ms: float = 100.0
    t_detect: int = 255
    scan: ScanConfig = field(default_factory=ScanConfig)
    bit_threshold: float = 0.5
    defense: dict = field(default_factory=dict)
    stimulus: StimulusSpec = field(default_factory=StimulusSpec)
    eop: EopSpec = field(default_factory=EopSpec)
    function: FunctionSpec = field(default_factory=FunctionSpec)
    stability: StabilitySpec = field(default_factory=StabilitySpec)
    characterize_windows: int = 1000


_SENSOR_KEYS = {
    "site", "chain_len", "clock_mhz", "jitter_sigma_ps", "element_base_ps",
    "per_tap_ps", "lut_pin_base_ps", "lut_pin_step_ps", "lut_arity",
    "data_route_ps", "clock_route_ps",
}
_SENSOR_FLOAT = {"clock_mhz", "jitter_sigma_ps", "element_base_ps",
                 "per_tap_ps", "lut_pin_base_ps", "lut_pin_step_ps",
                 "data_route_ps", "clock_route_ps"}
_THERMAL_KEYS = {"tau_us", "alpha_per_k", "power_to_rate_k_per_us"}


def load_scenario(path, seed_override: int | None = None) -> Scenario:
    """Parse and validate one .scn file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file {path} not found")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    try:
        return _decode_scenario(parser, path, seed_override)
    except (ValueError, KeyError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _decode_scenario(parser, path: Path, seed_override) -> Scenario:
    if "scenario" not in parser:
        raise ConfigError(f"{path}: missing [scenario] section")
    sec = parser["scenario"]
    kind = sec.get("kind", "")
    if kind not in KINDS:
        raise ConfigError(f"{path}: kind must be one of {KINDS}, got {kind!r}")
    netlist_rel = sec.get("netlist")
    if not netlist_rel:
        raise ConfigError(f"{path}: [scenario] needs netlist = <file>")
    scn = Scenario(
        name=sec.get("name", path.stem),
        kind=kind,
        netlist_path=(path.parent / netlist_rel).resolve(),
        seed=int(sec.get("seed", "1")),
    )
    if seed_override is not None:
        scn.seed = seed_override
    known = {"name", "kind", "netlist", "seed"}
    _reject_unknown(path, "scenario", sec, known)

    if "thermal" in parser:
        sec = parser["thermal"]
        _reject_unknown(path, "thermal", sec, _THERMAL_KEYS)
        scn.thermal = {k: float(v) for k, v in sec.items()}

    if "sensor" in parser:
        sec = parser["sensor"]
        _reject_unknown(path, "sensor", sec,
                        _SENSOR_KEYS | {"tune", "t_sense_ms", "t_detect_cycles"})
        for key, val in sec.items():
            if key == "site":
                scn.sensor["site"] = _parse_site(val)
            elif key == "tune":
                d, c, s = (int(p) for p in val.split(","))
                scn.pinned_tune = TuneValue(d, c, s)
            elif key == "t_sense_ms":
                scn.t_sense_ms = float(val)
            elif key == "t_detect_cycles":
                scn.t_detect = int(val)
            elif key in ("chain_len", "lut_arity"):
                scn.sensor[key] = int(val)
            elif key in _SENSOR_FLOAT:
                scn.sensor[key] = float(val)
        if not scn.sensor.get("clock_mhz", 1.0) > 0:
            raise ConfigError(f"{path}: [sensor] clock_mhz must be > 0")
        if scn.t_detect < 1:
            raise ConfigError(f"{path}: [sensor] t_detect_cycles must be >= 1")
        if not scn.sensor.get("jitter_sigma_ps", 0.0) >= 0:
            raise ConfigError(f"{path}: [sensor] jitter_sigma_ps must be >= 0")

    if "scan" in parser:
        sec = parser["scan"]
        known = {"region_um", "pixel_pitch_um", "dwell_ms", "target_freq_mhz",
                 "bandwidth_khz", "power", "spot_sigma_um", "psf_sigma_um",
                 "noise_sigma", "bit_threshold"}
        _reject_unknown(path, "scan", sec, known)
        kwargs = {}
        for key, val in sec.items():
            if key == "region_um":
                kwargs["region_um"] = _parse_rect(val)
            elif key == "bit_threshold":
                scn.bit_threshold = float(val)
            else:
                kwargs[key] = float(val)
        for key in ("power", "noise_sigma"):
            if not kwargs.get(key, 0.0) >= 0:
                raise ConfigError(f"{path}: [scan] {key} must be >= 0")
        for key in ("spot_sigma_um", "psf_sigma_um"):
            if not kwargs.get(key, 1.0) > 0:
                raise ConfigError(f"{path}: [scan] {key} must be > 0")
        scn.scan = ScanConfig(**kwargs)

    if "defense" in parser:
        sec = parser["defense"]
        known = {"mode", "pr_latency_us", "allowed_region", "threshold",
                 "mid_pr_state", "move_sensor"}
        _reject_unknown(path, "defense", sec, known)
        scn.defense = {"mode": sec.get("mode", "none")}
        if "pr_latency_us" in sec:
            scn.defense["pr_latency_us"] = float(sec["pr_latency_us"])
        if "mid_pr_state" in sec:
            scn.defense["mid_pr_state"] = sec["mid_pr_state"]
        if "move_sensor" in sec:
            scn.defense["move_sensor"] = sec.getboolean("move_sensor")
        if "allowed_region" in sec:
            x0, y0, x1, y1 = (int(p) for p in sec["allowed_region"].split(","))
            scn.defense["allowed_region"] = region_slices(x0, y0, x1, y1)
        if sec.get("threshold", "auto") != "auto":
            scn.defense["threshold"] = float(sec["threshold"])

    if "stimulus" in parser:
        sec = parser["stimulus"]
        known = {"program", "key", "pattern", "serial_net"}
        _reject_unknown(path, "stimulus", sec, known)
        spec = scn.stimulus
        spec.program = sec.get("program", spec.program)
        key = sec.get("key", "")
        if key == "random":
            spec.key_random = True
        else:
            spec.key = key
        spec.pattern = sec.get("pattern", spec.pattern)
        spec.serial_net = sec.get("serial_net", spec.serial_net)

    if "eop" in parser:
        sec = parser["eop"]
        known = {"probe_cells", "duration_cycles", "resolution_ps",
                 "iterations", "noise_sigma", "power"}
        _reject_unknown(path, "eop", sec, known)
        spec = scn.eop
        if "probe_cells" in sec:
            spec.probe_cells = [c.strip() for c in sec["probe_cells"].split(",")]
        for key in ("duration_cycles", "resolution_ps", "iterations"):
            if key in sec:
                setattr(spec, key, int(sec[key]))
        for key in ("noise_sigma", "power"):
            if key in sec:
                setattr(spec, key, float(sec[key]))
        if spec.duration_cycles < 1 or spec.iterations < 1:
            raise ConfigError(
                f"{path}: [eop] duration_cycles and iterations must be >= 1")
        duration_ps = spec.duration_cycles * build_sensor(scn).cycle_ps
        if not 1 <= spec.resolution_ps <= duration_ps:
            raise ConfigError(
                f"{path}: [eop] resolution_ps must be in 1..{duration_ps} "
                "(the probe duration)")
        if spec.noise_sigma < 0 or spec.power < 0:
            raise ConfigError(f"{path}: [eop] noise_sigma and power must be >= 0")

    if "function" in parser:
        sec = parser["function"]
        known = {"operand_nets", "output_cells", "vectors", "region_um"}
        _reject_unknown(path, "function", sec, known)
        spec = scn.function
        if "operand_nets" in sec:
            spec.operand_nets = [
                [n.strip() for n in group.split(",")]
                for group in sec["operand_nets"].split(";")
            ]
        if "output_cells" in sec:
            spec.output_cells = [c.strip() for c in sec["output_cells"].split(",")]
        if "vectors" in sec:
            spec.vectors = [
                tuple(int(v) for v in group.split(","))
                for group in sec["vectors"].split(";")
            ]
        if "region_um" in sec:
            spec.region_um = _parse_rect(sec["region_um"])

    if "stability" in parser:
        sec = parser["stability"]
        known = {"duration_min", "log_every_ms", "rolling_window",
                 "drift_sigma_ps", "drift_tau_s"}
        _reject_unknown(path, "stability", sec, known)
        spec = scn.stability
        for key in ("duration_min", "log_every_ms", "drift_sigma_ps",
                    "drift_tau_s"):
            if key in sec:
                setattr(spec, key, float(sec[key]))
        if "rolling_window" in sec:
            spec.rolling_window = int(sec["rolling_window"])
        for key, ok, rule in (
                ("duration_min", spec.duration_min > 0, "> 0"),
                ("rolling_window", spec.rolling_window >= 1, ">= 1"),
                ("log_every_ms", spec.log_every_ms > 0, "> 0"),
                ("drift_tau_s", spec.drift_tau_s > 0, "> 0"),
                ("drift_sigma_ps", spec.drift_sigma_ps >= 0, ">= 0")):
            if not ok:
                raise ConfigError(f"{path}: [stability] {key} must be {rule}")
    return scn


def _reject_unknown(path, section, sec, known):
    unknown = set(sec.keys()) - known
    if unknown:
        raise ConfigError(
            f"{path}: unknown keys in [{section}]: {sorted(unknown)}"
        )


# -- building blocks ---------------------------------------------------------


def build_sensor(scn: Scenario) -> SensorInstance:
    return SensorInstance(**scn.sensor)


def build_policy(scn: Scenario) -> DefensePolicy:
    return DefensePolicy(**scn.defense)


def tune_sensor(scn: Scenario, sensor: SensorInstance) -> TuneValue:
    if scn.pinned_tune is not None:
        sensor.tune = sensor.validate_tune(scn.pinned_tune)
        return sensor.tune
    return sensor_mod.tune(sensor, scn.seed, scn.t_sense_ms, scn.t_detect)


def derive_threshold(sensor: SensorInstance, seed: int,
                     n_windows: int = 1000, window: int = 255) -> float:
    """Trigger level from the idle (laser-off) zero-count distribution.

    Mean + 6 sigma of the characterization windows, floored two counts above
    the largest observed idle count so the discrete tail cannot graze it.
    """
    p0 = sensor.zero_probability(1.0)
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0xD117])
    counts = window_zero_counts(p0, n_windows, window, rng)
    stat = math.ceil(float(counts.mean()) + 6.0 * float(counts.std()))
    return float(max(stat, int(counts.max()) + 2, 1))


def scenario_key_bits(scn: Scenario, n_bits: int) -> list[int]:
    """Programmed key, LSB first; 'random' draws per-seed bits."""
    if scn.stimulus.key_random:
        rng = np.random.default_rng([scn.seed & 0xFFFFFFFF, 0x6E7])
        return [int(b) for b in rng.integers(0, 2, size=n_bits)]
    key = scn.stimulus.key
    if not key:
        raise ConfigError(f"scenario {scn.name}: stimulus key missing")
    if len(key) != n_bits or set(key) - {"0", "1"}:
        raise ConfigError(
            f"scenario {scn.name}: key {key!r} does not match {n_bits} protected bits"
        )
    return [int(b) for b in reversed(key)]


def report_resources(model: FabricModel, sensor: SensorInstance,
                     policy: DefensePolicy) -> dict:
    """Model-level resource counts (not toolchain area figures)."""
    region = policy.allowed_region if policy.mode.startswith("mtd") else []
    return {
        "sensor_luts": 1,
        "sensor_delay_elements": sensor.chain_len + 1,
        "sensor_ffs": 1,
        "fabric_luts": len(model.luts),
        "fabric_ffs": len(model.ffs),
        "protected_bits": len(model.protected),
        "defense_region_slices": len(region),
        "defense_region_ff_slots": len(region) * model.ffs_per_slice,
    }


# -- run summary and artifacts ------------------------------------------------


@dataclass
class RunSummary:
    scenario: str
    kind: str
    seed: int
    tune: str
    threshold: float
    trigger_time_us: float | None
    total_sim_time_us: float
    windows: int
    mean_zero_count: float
    max_zero_count: int
    max_pulse_len: int
    resources: dict
    true_key: str | None = None
    recovered_key: str | None = None
    bits_correct: int | None = None
    bits_total: int | None = None
    function_table: dict | None = None
    stability: dict | None = None
    attack_params: dict | None = None

    def to_text(self) -> str:
        lines = [
            f"scenario: {self.scenario}",
            f"kind: {self.kind}",
            f"seed: {self.seed}",
            f"tune: {self.tune}",
            f"trigger_threshold: {self.threshold:.0f}",
            f"trigger_time_us: "
            + (f"{self.trigger_time_us:.3f}" if self.trigger_time_us is not None
               else "none"),
            f"total_sim_time_us: {self.total_sim_time_us:.3f}",
            f"windows: {self.windows}",
            f"mean_zero_count: {self.mean_zero_count:.6f}",
            f"max_zero_count: {self.max_zero_count}",
            f"max_pulse_len: {self.max_pulse_len}",
        ]
        for key, val in (self.attack_params or {}).items():
            lines.append(f"{key}: {val}")
        if self.true_key is not None:
            lines += [
                f"true_key: {self.true_key}",
                f"recovered_key: {self.recovered_key}",
                f"bits_recovered: {self.bits_correct}/{self.bits_total}",
            ]
        if self.function_table is not None:
            for vec, out in self.function_table.items():
                ins = ",".join(f"{v:04b}" for v in vec)
                lines.append(f"function[{ins}]: {out}")
        if self.stability is not None:
            for key, val in self.stability.items():
                lines.append(f"stability_{key}: {val}")
        for key, val in self.resources.items():
            lines.append(f"resource_{key}: {val}")
        return "\n".join(lines) + "\n"


def write_defense_log(path, entries) -> None:
    with open(path, "w") as fh:
        fh.write("trigger_time_us,mode,event_complete_us,placement_diff,permutation\n")
        for e in entries:
            fh.write(
                f"{e['trigger_time_us']:.3f},{e['mode']},"
                f"{e['event_complete_us']:.3f},{e['placement_diff']},"
                f"{e['permutation']}\n"
            )


# -- stability ----------------------------------------------------------------


@dataclass
class StabilityReport:
    duration_min: float
    log_every_ms: float
    threshold: float
    n_logs: int
    triggered: bool
    false_positive_at_us: float | None
    max_zero_count: int
    plateau_time_us: float
    mean_zero_count: float
    rolling_max: float
    series: np.ndarray  # columns: t_us, zero_count, running_max, rolling_avg

    def as_dict(self) -> dict:
        return {
            "triggered": self.triggered,
            "max_zero_count": self.max_zero_count,
            "plateau_time_min": round(self.plateau_time_us / 6e7, 3),
            "mean_zero_count": round(self.mean_zero_count, 6),
            "rolling_max": round(self.rolling_max, 6),
        }

    def to_csv(self, path) -> None:
        write_rows(path, "t_us,zero_count,running_max,rolling_avg",
                   "%.1f,%d,%d,%.6f\n", self.series.T)


def stability_test(sensor: SensorInstance, threshold: float, seed: int,
                   spec: StabilitySpec, window: int = 255) -> StabilityReport:
    """Idle endurance run: laser off, ambient jitter noise only.

    The sensor hardware runs continuously; its zero counter is read out at
    the logging cadence, matching how long idle captures are monitored in
    practice.  An optional slow ambient drift (an OU process on the race
    slack) models environmental variation.  A logged count at or above the
    trigger threshold is reported as a false-positive event.
    """
    n_logs = int(round(spec.duration_min * 60_000.0 / spec.log_every_ms))
    if n_logs < 1:
        raise ScenarioError("stability run shorter than one logging interval")
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0x57AB])
    if spec.drift_sigma_ps > 0:
        rho = math.exp(-spec.log_every_ms / (spec.drift_tau_s * 1e3))
        steps = rng.normal(0.0, spec.drift_sigma_ps * math.sqrt(1 - rho * rho),
                           size=n_logs)
        drift = np.empty(n_logs)
        prev = rng.normal(0.0, spec.drift_sigma_ps)
        for i in range(n_logs):
            prev = prev * rho + steps[i]
            drift[i] = prev
    else:
        drift = np.zeros(n_logs)
    p0 = sensor.zero_probability(1.0, offset_ps=drift)
    counts = rng.binomial(window, p0)
    t_us = (np.arange(n_logs) + 1) * spec.log_every_ms * 1e3
    running_max = np.maximum.accumulate(counts)
    kernel = np.ones(spec.rolling_window) / spec.rolling_window
    rolling = np.convolve(counts, kernel, mode="full")[: n_logs]
    # The first rolling_window - 1 entries average over the logs so far.
    # They are logged but do not set rolling_max, so one early log cannot;
    # a run shorter than the kernel counts only its last entry, the mean of
    # every log.
    head = min(spec.rolling_window - 1, n_logs)
    rolling[:head] = np.cumsum(counts[:head]) / np.arange(1, head + 1)
    full = min(spec.rolling_window, n_logs) - 1
    hits = np.flatnonzero(counts >= threshold)
    triggered = hits.size > 0
    plateau_idx = int(np.argmax(counts == counts.max()))
    return StabilityReport(
        duration_min=spec.duration_min,
        log_every_ms=spec.log_every_ms,
        threshold=threshold,
        n_logs=n_logs,
        triggered=triggered,
        false_positive_at_us=float(t_us[hits[0]]) if triggered else None,
        max_zero_count=int(counts.max()),
        plateau_time_us=float(t_us[plateau_idx]),
        mean_zero_count=float(counts.mean()),
        rolling_max=float(rolling[full:].max()),
        series=np.column_stack([t_us, counts, running_max, rolling]),
    )


# -- the pipeline -------------------------------------------------------------


@dataclass
class RunResult:
    summary: RunSummary
    image: EofmImage | None = None
    traces: dict[str, EopTrace] | None = None
    stability: StabilityReport | None = None
    sim: CoSimulation | None = None
    # The co-simulation's counter log (CoSimulation.counter_rows), built
    # once per run for the summary and counters.csv.
    counters: np.ndarray | None = None


def run(scn: Scenario, out_dir=None) -> RunResult:
    """Execute one scenario end to end and (optionally) write artifacts."""
    try:
        model = load_netlist(scn.netlist_path)
    except NetlistError as exc:
        raise ConfigError(str(exc)) from None
    except FileNotFoundError:
        raise ConfigError(
            f"scenario {scn.name}: netlist file {scn.netlist_path} not found"
        ) from None
    thermal = ThermalField.for_model(model, **scn.thermal)
    sensor = build_sensor(scn)
    policy = build_policy(scn)
    if policy.mode == "mtd_inter":
        # A region that could never hold the register is a scenario defect;
        # dynamic shortfalls at trigger time still fall back to zeroize.
        capacity = len(policy.allowed_region) * model.ffs_per_slice
        if capacity < len(model.protected):
            raise CapacityError(
                f"allowed_region holds {capacity} FF slots for "
                f"{len(model.protected)} protected bits"
            )
    tuned = tune_sensor(scn, sensor)
    if policy.threshold is None:
        policy.threshold = derive_threshold(
            sensor, scn.seed, scn.characterize_windows, scn.t_detect
        )

    if scn.kind == "eofm_key":
        result = _run_eofm_key(scn, model, thermal, sensor, policy)
    elif scn.kind == "eofm_function":
        result = _run_eofm_function(scn, model, thermal, sensor, policy)
    elif scn.kind == "eop":
        result = _run_eop(scn, model, thermal, sensor, policy)
    else:
        result = _run_stability(scn, model, thermal, sensor, policy)
    result.summary.tune = str(tuned)
    if result.sim is not None:
        result.counters = result.sim.counter_rows()
        _count_stats(result.summary, result.counters)
    result.summary.resources = report_resources(model, sensor, policy)
    if out_dir is not None:
        write_artifacts(result, Path(out_dir))
    return result


def _summary_base(scn: Scenario, sim: CoSimulation | None,
                  threshold: float) -> RunSummary:
    return RunSummary(
        scenario=scn.name,
        kind=scn.kind,
        seed=scn.seed,
        tune="",
        threshold=threshold,
        trigger_time_us=sim.trigger_time_us if sim else None,
        total_sim_time_us=sim.t_us if sim else 0.0,
        windows=0,
        mean_zero_count=0.0,
        max_zero_count=0,
        max_pulse_len=0,
        resources={},
    )


def _count_stats(summary: RunSummary, rows: np.ndarray) -> None:
    """Window statistics of a counter log into the summary."""
    if len(rows):
        summary.windows = len(rows)
        summary.mean_zero_count = float(rows[:, 1].mean())
        summary.max_zero_count = int(rows[:, 1].max())
        summary.max_pulse_len = int(rows[:, 2].max())


def _protected_sites_um(model: FabricModel) -> list[tuple[float, float]]:
    return [model.slot_position_um(model.ffs[n].site, model.ffs[n].slot, "ff")
            for n in model.protected]


def _scan_echo(scan: ScanConfig) -> dict:
    x0, y0, x1, y1 = scan.region_um
    return {
        "scan_region_um": f"{x0:.0f},{y0:.0f},{x1:.0f},{y1:.0f}",
        "scan_pixel_pitch_um": f"{scan.pixel_pitch_um:g}",
        "scan_dwell_ms": f"{scan.dwell_ms:g}",
        "scan_target_freq_mhz": f"{scan.target_freq_mhz:g}",
        "scan_bandwidth_khz": f"{scan.bandwidth_khz:g}",
        "scan_power": f"{scan.power:g}",
        "scan_noise_sigma": f"{scan.noise_sigma:g}",
    }


def _run_eofm_key(scn, model, thermal, sensor, policy):
    if not model.protected:
        raise ConfigError(f"{scn.netlist_path}: eofm_key needs a protect line")
    key_bits = scenario_key_bits(scn, len(model.protected))
    static = {net: bit for net, bit in zip(model.protected_sources, key_bits)}
    missing = [n for n in static if n not in model.inputs]
    if missing:
        raise ConfigError(
            f"protected data nets must be external inputs, got {missing}"
        )
    stim = stimulus_for_target_freq(sensor.clock_mhz, scn.scan.target_freq_mhz,
                                    static)
    sim = CoSimulation(model, thermal, sensor, policy, stim, scn.seed,
                       scn.t_detect)
    original_sites = _protected_sites_um(model)
    image = attacker.eofm_scan(sim, scn.scan)
    recovered = attacker.recover_bits(image, original_sites, scn.bit_threshold)
    correct = sum(int(r == k) for r, k in zip(recovered, key_bits))
    located = attacker.localize(image, scn.bit_threshold, model)
    summary = _summary_base(scn, sim, policy.threshold)
    summary.attack_params = _scan_echo(scn.scan)
    summary.attack_params["localized_sites"] = ";".join(
        f"{s.x}.{s.y}" for s in located)
    summary.true_key = "".join(str(b) for b in reversed(key_bits))
    summary.recovered_key = "".join(str(b) for b in reversed(recovered))
    summary.bits_correct = correct
    summary.bits_total = len(key_bits)
    return RunResult(summary, image=image, sim=sim)


def _run_eofm_function(scn, model, thermal, sensor, policy):
    spec = scn.function
    if not spec.operand_nets or not spec.output_cells or not spec.vectors:
        raise ConfigError(
            f"scenario {scn.name}: [function] needs operand_nets, output_cells, vectors"
        )
    for group in spec.operand_nets:
        for net in group:
            if net not in model.inputs:
                raise ConfigError(f"operand net {net} is not an external input")
    out_sites = []
    for cell in spec.output_cells:
        if cell not in model.ffs:
            raise ConfigError(f"output cell {cell} is not a flip-flop")
        ff = model.ffs[cell]
        out_sites.append(model.slot_position_um(ff.site, ff.slot, "ff"))
    scan = scn.scan
    if spec.region_um is not None:
        scan = ScanConfig(**{**scan.__dict__, "region_um": spec.region_um})
    stim = stimulus_for_target_freq(sensor.clock_mhz, scan.target_freq_mhz)
    sim = CoSimulation(model, thermal, sensor, policy, stim, scn.seed,
                       scn.t_detect)
    table = attacker.recover_function(sim, scan, spec.operand_nets, out_sites,
                                      spec.vectors, scn.bit_threshold)
    summary = _summary_base(scn, sim, policy.threshold)
    summary.attack_params = _scan_echo(scan)
    summary.function_table = table
    return RunResult(summary, sim=sim)


def _run_eop(scn, model, thermal, sensor, policy):
    spec = scn.eop
    if not spec.probe_cells:
        raise ConfigError(f"scenario {scn.name}: [eop] needs probe_cells")
    if scn.stimulus.program == "shift":
        stim = ShiftStimulus(scn.stimulus.pattern, scn.stimulus.serial_net)
    else:
        stim = stimulus_for_target_freq(sensor.clock_mhz,
                                        scn.scan.target_freq_mhz)
    sim = CoSimulation(model, thermal, sensor, policy, stim, scn.seed,
                       scn.t_detect)
    traces = {}
    for cell in spec.probe_cells:
        if cell not in model.ffs and cell not in model.luts:
            raise ConfigError(f"probe cell {cell} not in netlist")
        if cell in model.ffs:
            ff = model.ffs[cell]
            point = model.slot_position_um(ff.site, ff.slot, "ff")
        else:
            lut = model.luts[cell]
            point = model.slot_position_um(lut.site, lut.slot, "lut")
        traces[cell] = attacker.eop_probe(
            sim, point, spec.duration_cycles, spec.resolution_ps,
            spec.iterations, spec.noise_sigma, spec.power,
            scn.scan.spot_sigma_um,
        )
    summary = _summary_base(scn, sim, policy.threshold)
    summary.attack_params = {
        "eop_probe_cells": ",".join(spec.probe_cells),
        "eop_resolution_ps": spec.resolution_ps,
        "eop_iterations": spec.iterations,
        "eop_duration_cycles": spec.duration_cycles,
    }
    return RunResult(summary, traces=traces, sim=sim)


def _run_stability(scn, model, thermal, sensor, policy):
    report = stability_test(sensor, policy.threshold, scn.seed, scn.stability,
                            scn.t_detect)
    summary = _summary_base(scn, None, policy.threshold)
    summary.stability = report.as_dict()
    summary.total_sim_time_us = scn.stability.duration_min * 6e7
    return RunResult(summary, stability=report)


def write_artifacts(result: RunResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "summary.txt", "w") as fh:
        fh.write(result.summary.to_text())
    if result.image is not None:
        result.image.to_pgm(out_dir / "image.pgm")
        result.image.to_csv(out_dir / "image.csv")
    if result.traces:
        # trace.csv is the first probe cell's trace, formatted once for both.
        for i, (cell, trace) in enumerate(result.traces.items()):
            text = trace.csv_text()
            (out_dir / f"trace_{cell}.csv").write_text(text)
            if i == 0:
                (out_dir / "trace.csv").write_text(text)
    if result.stability is not None:
        result.stability.to_csv(out_dir / "counters.csv")
    if result.counters is not None:
        write_counters_csv(out_dir / "counters.csv", result.counters)
    if result.sim is not None:
        write_defense_log(out_dir / "defense_log.csv", result.sim.defense_log)


def run_batch(paths, out_root, jobs: int = 1,
              seed_override: int | None = None) -> list[RunSummary]:
    """Run independent scenarios, optionally in parallel threads.

    Each run writes into ``out_root/<scenario name>``, so the names must be
    unique; a repeated name raises ConfigError before any run starts.
    """
    out_root = Path(out_root)
    scenarios = [load_scenario(p, seed_override) for p in paths]
    names = [s.name for s in scenarios]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise ConfigError(f"batch lists scenario names more than once: {duplicates}")

    def _one(scn: Scenario) -> RunSummary:
        return run(scn, out_root / scn.name).summary

    if jobs <= 1:
        return [_one(s) for s in scenarios]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_one, scenarios))
