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
from .defense import MODES, CapacityError, DefensePolicy, region_slices
from .fabric import FabricModel, SliceCoord
from .netlist import NetlistError, load_netlist
from .sensor import SensorInstance, TuneValue, window_zero_counts
from .thermal import ThermalField

KINDS = ("eofm_key", "eofm_function", "eop", "stability")
# Largest stability log and EOP trace: each is one array of that length.
MAX_LOGS = 1_000_000
MAX_EOP_SAMPLES = 1_000_000


class ConfigError(Exception):
    """Scenario file could not be parsed or fails validation."""


@dataclass
class StimulusSpec:
    program: str = "reset_toggle"
    key: str = ""  # a bit string, MSB first, or "random"
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


# -- scenario decoding --------------------------------------------------------
#
# Each row of SCENARIO_KEYS is one key a scenario file may set: its section
# and name, its value type (a parser, a check of the parsed value and the
# rule that check enforces) and its destination, an attribute of Scenario or
# a field of one of its specs ("scan.dwell_ms").  README.md lists the same
# keys with the same rules.


def _above(low: float):
    return float, lambda v: math.isfinite(v) and v > low, f"finite and > {low:g}"


def _at_least(low: float):
    return float, lambda v: math.isfinite(v) and v >= low, f"finite and >= {low:g}"


def _integer(low: int, high: int | None = None):
    if high is None:
        return int, lambda v: v >= low, f"an integer >= {low}"
    return int, lambda v: low <= v <= high, f"an integer >= {low} and <= {high}"


def _one_of(*options: str):
    return str, lambda v: v in options, "one of " + " | ".join(options)


def _numbers(text: str, count: int, kind=float) -> tuple:
    """``count`` comma-separated numbers."""
    parts = tuple(kind(p) for p in text.split(","))
    if len(parts) != count:
        raise ValueError(text)
    return parts


def _names(text: str) -> list[str]:
    return [n.strip() for n in text.split(",")]


def _is_bits(text: str) -> bool:
    return bool(text) and not set(text) - {"0", "1"}


_TEXT = str, bool, "non-empty"
_NAMES = _names, all, "comma-separated names"
_RECT = (lambda t: _numbers(t, 4),
         lambda r: all(map(math.isfinite, r)) and r[0] < r[2] and r[1] < r[3],
         "x0,y0,x1,y1, finite, with x0 < x1 and y0 < y1")

SCENARIO_KEYS = {(section, key): (*value, dest) for section, key, value, dest in [
    ("scenario", "name", (str, lambda v: v not in ("", ".", "..")
                          and not set(v) & set("/\\"),
                          "non-empty, with no / or \\, and not . or .."), "name"),
    ("scenario", "kind", _one_of(*KINDS), "kind"),
    ("scenario", "netlist", _TEXT, "netlist_path"),
    ("scenario", "seed", _integer(0), "seed"),
    ("thermal", "tau_us", _above(0), "thermal.tau_us"),
    ("thermal", "alpha_per_k", _at_least(0), "thermal.alpha_per_k"),
    ("thermal", "power_to_rate_k_per_us", _at_least(0),
     "thermal.power_to_rate_k_per_us"),
    ("sensor", "site", (lambda t: SliceCoord(*_numbers(t, 2, int)),
                        lambda s: s.x >= 0 and s.y >= 0,
                        "x,y, integers >= 0, on the netlist grid"), "sensor.site"),
    ("sensor", "chain_len", (int, lambda n: n > 0 and n & (n - 1) == 0,
                             "a power of two"), "sensor.chain_len"),
    ("sensor", "clock_mhz", (float, lambda v: 0 < v <= 1e6,
                             "finite, > 0 and <= 1e6"), "sensor.clock_mhz"),
    ("sensor", "jitter_sigma_ps", _at_least(0), "sensor.jitter_sigma_ps"),
    ("sensor", "element_base_ps", _at_least(0), "sensor.element_base_ps"),
    ("sensor", "per_tap_ps", _at_least(0), "sensor.per_tap_ps"),
    ("sensor", "lut_pin_base_ps", _at_least(0), "sensor.lut_pin_base_ps"),
    ("sensor", "lut_pin_step_ps", _at_least(0), "sensor.lut_pin_step_ps"),
    ("sensor", "lut_arity", _integer(1), "sensor.lut_arity"),
    ("sensor", "data_route_ps", _at_least(0), "sensor.data_route_ps"),
    ("sensor", "clock_route_ps", _at_least(0), "sensor.clock_route_ps"),
    ("sensor", "tune", (lambda t: TuneValue(*_numbers(t, 3, int)),
                        lambda t: min(t.data_code, t.clock_code, t.lut_select) >= 0,
                        "data,clock,select, integers >= 0"), "pinned_tune"),
    ("sensor", "t_sense_ms", _above(0), "t_sense_ms"),
    ("sensor", "t_detect_cycles", _integer(1, sensor_mod.MAX_WINDOW), "t_detect"),
    ("scan", "region_um", _RECT, "scan.region_um"),
    ("scan", "pixel_pitch_um", _above(0), "scan.pixel_pitch_um"),
    ("scan", "dwell_ms", _above(0), "scan.dwell_ms"),
    ("scan", "target_freq_mhz", (float, lambda v: math.isfinite(v) and v > 0,
                                 "finite, > 0 and [sensor] clock_mhz / (2 n) "
                                 "for a whole n >= 1"),
     "scan.target_freq_mhz"),
    ("scan", "power", _at_least(0), "scan.power"),
    ("scan", "spot_sigma_um", _above(0), "scan.spot_sigma_um"),
    ("scan", "psf_sigma_um", _above(0), "scan.psf_sigma_um"),
    ("scan", "noise_sigma", _at_least(0), "scan.noise_sigma"),
    ("scan", "bit_threshold", _above(0), "bit_threshold"),
    ("defense", "mode", _one_of(*MODES), "defense.mode"),
    ("defense", "pr_latency_us", _above(0), "defense.pr_latency_us"),
    ("defense", "allowed_region", (
        lambda t: region_slices(*_numbers(t, 4, int)),
        lambda r: bool(r) and r[0].x >= 0 and r[0].y >= 0,
        "x0,y0,x1,y1 slices, inclusive, with 0 <= x0 <= x1 and 0 <= y0 <= y1"),
     "defense.allowed_region"),
    ("defense", "threshold", (
        lambda t: None if t == "auto" else float(t),
        lambda v: v is None or math.isfinite(v) and v > 0,
        "auto, or finite, > 0 and <= t_detect_cycles"), "defense.threshold"),
    ("defense", "mid_pr_state", _one_of("hold", "zero"), "defense.mid_pr_state"),
    ("defense", "move_sensor", (
        lambda t: configparser.ConfigParser.BOOLEAN_STATES[t.lower()],
        lambda v: True, "a boolean: true | false | yes | no | on | off | 1 | 0"),
     "defense.move_sensor"),
    ("stimulus", "program", _one_of("reset_toggle", "shift"), "stimulus.program"),
    ("stimulus", "key", (str, lambda k: k == "random" or _is_bits(k),
                         "a bit string, MSB first, or random"), "stimulus.key"),
    ("stimulus", "pattern", (str, _is_bits, "a bit string"), "stimulus.pattern"),
    ("stimulus", "serial_net", (str, bool, "an external input net of the netlist"),
     "stimulus.serial_net"),
    ("eop", "probe_cells", _NAMES, "eop.probe_cells"),
    ("eop", "duration_cycles", _integer(1, 1_000_000), "eop.duration_cycles"),
    ("eop", "resolution_ps", (int, lambda v: v >= 1,
                              "an integer >= 1 and <= the probe duration, "
                              f"with at most {MAX_EOP_SAMPLES} samples in it"),
     "eop.resolution_ps"),
    ("eop", "iterations", _integer(1), "eop.iterations"),
    ("eop", "noise_sigma", _at_least(0), "eop.noise_sigma"),
    ("eop", "power", _at_least(0), "eop.power"),
    ("function", "operand_nets", (lambda t: [_names(g) for g in t.split(";")],
                                  lambda groups: all(map(all, groups)),
                                  "groups of names split by ;"),
     "function.operand_nets"),
    ("function", "output_cells", _NAMES, "function.output_cells"),
    ("function", "vectors", (
        lambda t: [tuple(int(v) for v in g.split(",")) for g in t.split(";")],
        lambda vectors: min(map(min, vectors)) >= 0,
        "groups of integers >= 0 split by ;, one integer per operand group, "
        "each below 2 ** the group's net count"), "function.vectors"),
    ("function", "region_um", _RECT, "function.region_um"),
    ("stability", "duration_min", (float, lambda v: math.isfinite(v) and v > 0,
                                   f"finite, > 0 and 1 to {MAX_LOGS} logs long"),
     "stability.duration_min"),
    ("stability", "log_every_ms", _above(0), "stability.log_every_ms"),
    ("stability", "rolling_window", (int, lambda v: v >= 1,
                                     "an integer >= 1 and <= the log count"),
     "stability.rolling_window"),
    ("stability", "drift_sigma_ps", _at_least(0), "stability.drift_sigma_ps"),
    ("stability", "drift_tau_s", _above(0), "stability.drift_tau_s"),
]}
_SECTIONS = {section for section, _ in SCENARIO_KEYS}


def load_scenario(path, seed_override: int | None = None) -> Scenario:
    """Parse and validate one .scn file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file {path} not found")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read(path)
        return _decode_scenario(parser, path, seed_override)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _bad_value(where, section: str, key: str, got) -> ConfigError:
    rule = SCENARIO_KEYS[section, key][2]
    return ConfigError(f"{where}: [{section}] {key} must be {rule}, got {got}")


def _decode_scenario(parser, path: Path, seed_override) -> Scenario:
    if "scenario" not in parser:
        raise ConfigError(f"{path}: missing [scenario] section")
    if seed_override is not None:
        # Checked like the seed it replaces.
        parser["scenario"]["seed"] = str(seed_override)
    scn = Scenario(name=path.stem, kind="", netlist_path=Path())
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, text in parser[section].items():
            if (section, key) not in SCENARIO_KEYS:
                raise ConfigError(f"{path}: unknown key [{section}] {key}")
            parse, ok, _, dest = SCENARIO_KEYS[section, key]
            try:
                value = parse(text)
                valid = ok(value)
            except (ValueError, KeyError):
                valid = False
            if not valid:
                raise _bad_value(path, section, key, repr(text))
            owner, _, attr = dest.rpartition(".")
            target = getattr(scn, owner) if owner else scn
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
    for key in ("kind", "netlist"):
        if key not in parser["scenario"]:
            raise ConfigError(f"{path}: [scenario] needs {key}")
    if not SCENARIO_KEYS["scenario", "name"][1](scn.name):  # the file name
        raise _bad_value(path, "scenario", "name", f"{scn.name!r} from the file name")
    scn.netlist_path = (path.parent / scn.netlist_path).resolve()
    # The rules that tie one key to another.
    if scn.kind == "eop":
        duration_ps = scn.eop.duration_cycles * build_sensor(scn).cycle_ps
        resolution = scn.eop.resolution_ps
        if resolution > duration_ps or duration_ps // resolution > MAX_EOP_SAMPLES:
            raise _bad_value(path, "eop", "resolution_ps",
                             f"{resolution} for a {duration_ps} ps probe")
    if scn.kind == "stability":
        spec = scn.stability
        # The run logs round(logs) counts.
        logs = spec.duration_min * 60_000.0 / spec.log_every_ms
        if not 0.5 < logs <= MAX_LOGS:
            raise _bad_value(path, "stability", "duration_min",
                             f"{spec.duration_min:g} for {logs:g} logs of "
                             f"{spec.log_every_ms:g} ms")
        if spec.rolling_window > round(logs):
            raise _bad_value(path, "stability", "rolling_window",
                             f"{spec.rolling_window} for {round(logs)} logs")
    if scn.kind == "eofm_function":
        sizes = [len(group) for group in scn.function.operand_nets]
        for vec in scn.function.vectors:
            if len(vec) != len(sizes) or any(v >> n for v, n in zip(vec, sizes)):
                raise _bad_value(path, "function", "vectors",
                                 f"{vec} for operand groups of {sizes} nets")
    if scn.kind.startswith("eofm") or (
            scn.kind == "eop" and scn.stimulus.program == "reset_toggle"):
        target, clock = scn.scan.target_freq_mhz, build_sensor(scn).clock_mhz
        try:
            stimulus_for_target_freq(clock, target)
        except ScenarioError:
            raise _bad_value(path, "scan", "target_freq_mhz",
                             f"{target:g} with clock_mhz = {clock:g}") from None
    threshold = scn.defense.get("threshold")
    if threshold is not None and threshold > scn.t_detect:
        raise _bad_value(path, "defense", "threshold",
                         f"{threshold:g} with t_detect_cycles = {scn.t_detect}")
    return scn

# -- building blocks ---------------------------------------------------------


def build_sensor(scn: Scenario) -> SensorInstance:
    return SensorInstance(**scn.sensor)


def build_policy(scn: Scenario) -> DefensePolicy:
    return DefensePolicy(**scn.defense)


def tune_sensor(scn: Scenario, sensor: SensorInstance) -> TuneValue:
    if scn.pinned_tune is not None:
        try:
            sensor.tune = sensor.validate_tune(scn.pinned_tune)
        except ValueError as exc:
            raise ConfigError(f"scenario {scn.name}: [sensor] tune: {exc}") from None
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
    if scn.stimulus.key == "random":
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
    # The co-simulation's counter log columns (CoSimulation.counter_columns),
    # built once per run for the summary and counters.csv.
    counters: tuple | None = None


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
    site = sensor.site
    if not (site.x < model.grid_width and site.y < model.grid_height):
        raise _bad_value(f"scenario {scn.name}", "sensor", "site",
                         f"{site.x},{site.y} on a {model.grid_width}x"
                         f"{model.grid_height} grid")
    serial_net = scn.stimulus.serial_net
    if (scn.kind == "eop" and scn.stimulus.program == "shift"
            and serial_net not in model.inputs):
        raise _bad_value(f"scenario {scn.name}", "stimulus", "serial_net",
                         repr(serial_net))
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
        result.counters = result.sim.counter_columns()
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


def _count_stats(summary: RunSummary, columns: tuple) -> None:
    """Window statistics of a counter log's columns into the summary."""
    _, counts, pulses, _ = columns
    if len(counts):
        summary.windows = len(counts)
        summary.mean_zero_count = float(counts.mean())
        summary.max_zero_count = int(counts.max())
        summary.max_pulse_len = int(pulses.max())


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
