"""Scenario runner: loads configs, wires the subsystems, emits artifacts.

Scenario files are INI-style structured text with explicit units in the key
names (``dwell_ms``, ``pr_latency_us``, ...), read line by line by
``_read_sections``.  A fixed seed makes a run bit-identical: every random
stream derives from it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import attacker, cosim, sensor as sensor_mod
from .artifacts import write_columns, write_counters_csv
from .attacker import EofmImage, EopTrace, ScanConfig
from .cosim import (CoSimulation, ScenarioError, Stimulus, half_period_cycles,
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
# Most pixels of an EOFM raster; its image and the point-spread weights of
# every pixel and primitive are arrays that grow with it.
MAX_PIXELS = 65_536
# Most spot dwells of one run: an eofm_function run rasters its region once
# per vector.  On a 2-vCPU x86 host a raster takes about 8 us of CPU per
# dwell, 8 s at this bound, plus 1.3 to 1.8 ms per vector.
# It admits 16 rasters of MAX_PIXELS.
MAX_DWELLS = 16 * MAX_PIXELS
# Most vectors of an eofm_function run.  Each vector is one raster plus a
# new epoch's activity replay, which MAX_DWELLS does not bound: at this
# bound, a one-pixel region at 1 ns dwells takes 1.5 s of CPU on a 2-vCPU
# x86 host, about 0.4 ms per vector.
MAX_VECTORS = 4096
# Most sensor windows of one co-simulated run.  The counter log's count and
# pulse columns take 16 bytes per window, about 0.5 GB at this bound, and
# counters.csv writes one row each; the run's record takes 5 or 6 bytes per
# non-zero window.  It admits a raster of MAX_PIXELS at the bundled 1 ms
# dwell (25.7 million 2.55 us windows); the largest bundled run has 200,784.
MAX_WINDOWS = 32_000_000
# Longest stimulus period, in clock cycles: a reset toggle's full period or
# a shift pattern's length.  Every epoch's activity replays two periods
# cycle by cycle and holds each primitive's float64 waveform over one.  At
# this bound an epoch of a bundled netlist takes 7 to 15 ms of CPU and
# 80 kB per primitive, against 0.5 ms at the bundled period of 80; it
# admits a 10 kHz lock-in at the bundled 100 MHz clock.
MAX_STIMULUS_PERIOD = 10_000


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
_SIGMA = float, lambda v: 1e-3 <= v <= 1e150, "finite, >= 0.001 and <= 1e150"
_WINDOWS = f", with at most {MAX_WINDOWS} sensor windows in the run"

SCENARIO_KEYS = {(section, key): (*value, dest) for section, key, value, dest in [
    ("scenario", "name", (str, lambda v: v not in ("", ".", "..")
                          and not set(v) & set("/\\"),
                          "non-empty, with no / or \\, and not . or .."), "name"),
    ("scenario", "kind", _one_of(*KINDS), "kind"),
    ("scenario", "netlist", _TEXT, "netlist_path"),
    ("scenario", "seed", _integer(0), "seed"),
    ("thermal", "tau_us", _above(0), "thermal.tau_us"),
    ("thermal", "alpha_per_k", (*_at_least(0)[:2], _at_least(0)[2] + ", with "
                                "alpha_per_k * the peak rise * the sensor's "
                                "heated path delay finite"),
     "thermal.alpha_per_k"),
    ("thermal", "power_to_rate_k_per_us", (
        *_at_least(0)[:2], _at_least(0)[2] + ", with a finite peak rise: "
        "the spot power * power_to_rate_k_per_us * tau_us"),
     "thermal.power_to_rate_k_per_us"),
    ("sensor", "site", (lambda t: SliceCoord(*_numbers(t, 2, int)),
                        lambda s: s.x >= 0 and s.y >= 0,
                        "x,y, integers >= 0, on the netlist grid"), "sensor.site"),
    ("sensor", "chain_len", (int, lambda n: n > 0 and n & (n - 1) == 0,
                             "a power of two"), "sensor.chain_len"),
    # The cycle, 1e6 / clock_mhz ps, overflows to inf below about 5.6e-303
    # MHz, and it is rounded to an int ps when the scenario is decoded.
    ("sensor", "clock_mhz", (float, lambda v: 1e-300 <= v <= 1e6,
                             "finite, >= 1e-300 and <= 1e6"), "sensor.clock_mhz"),
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
    ("scan", "region_um", (
        lambda t: _numbers(t, 4),
        lambda r: all(map(math.isfinite, r)) and r[0] < r[2] and r[1] < r[3],
        "x0,y0,x1,y1, finite, with x0 < x1 and y0 < y1, on the netlist "
        f"fabric, and at most {MAX_PIXELS} pixels of [scan] pixel_pitch_um"),
     "scan.region_um"),
    ("scan", "pixel_pitch_um", (*_above(0)[:2], _above(0)[2] + ", and at most "
                                "the shorter side of [scan] region_um"),
     "scan.pixel_pitch_um"),
    # 1 ns: a dwell rounds to whole ps, and one of 0 ps would take no time.
    ("scan", "dwell_ms", (*_at_least(1e-6)[:2], _at_least(1e-6)[2] + _WINDOWS),
     "scan.dwell_ms"),
    ("scan", "target_freq_mhz", (float, lambda v: math.isfinite(v) and v > 0,
                                 "finite, > 0 and [sensor] clock_mhz / (2 n) "
                                 "for a whole n from 1 to "
                                 f"{MAX_STIMULUS_PERIOD // 2}"),
     "scan.target_freq_mhz"),
    ("scan", "power", _at_least(0), "scan.power"),
    # The Gaussians divide by sigma squared, which underflows to 0 below
    # about 1e-154 um and overflows above about 1.3e154 um.
    ("scan", "spot_sigma_um", _SIGMA, "scan.spot_sigma_um"),
    ("scan", "psf_sigma_um", _SIGMA, "scan.psf_sigma_um"),
    ("scan", "noise_sigma", _at_least(0), "scan.noise_sigma"),
    ("scan", "bit_threshold", _above(0), "bit_threshold"),
    ("defense", "mode", _one_of(*MODES), "defense.mode"),
    ("defense", "pr_latency_us", _above(0), "defense.pr_latency_us"),
    ("defense", "allowed_region", (
        lambda t: region_slices(*_numbers(t, 4, int)),
        lambda r: bool(r) and r[0].x >= 0 and r[0].y >= 0,
        "x0,y0,x1,y1 slices, inclusive, with 0 <= x0 <= x1 and 0 <= y0 <= y1, "
        "on the netlist grid"),
     "defense.allowed_region"),
    ("defense", "threshold", (
        lambda t: None if t == "auto" else float(t),
        lambda v: v is None or math.isfinite(v) and v > 0,
        "auto, or finite, > 0 and <= t_detect_cycles"), "defense.threshold"),
    ("stimulus", "program", (str, lambda v: v in ("reset_toggle", "shift"),
                             "one of reset_toggle | shift, and reset_toggle "
                             "unless [scenario] kind is eop"), "stimulus.program"),
    ("stimulus", "key", (str, lambda k: k == "random" or _is_bits(k),
                         "a bit string, MSB first, with one bit per protected "
                         "flip-flop of the netlist, or random"), "stimulus.key"),
    ("stimulus", "pattern", (str, lambda t: _is_bits(t)
                             and len(t) <= MAX_STIMULUS_PERIOD,
                             f"a bit string of at most {MAX_STIMULUS_PERIOD} "
                             "bits"), "stimulus.pattern"),
    ("stimulus", "serial_net", (str, bool, "an external input net of the netlist"),
     "stimulus.serial_net"),
    ("eop", "probe_cells", (_names, lambda names: all(names)
                            and len(set(names)) == len(names),
                            "comma-separated names, each once and each a "
                            "flip-flop or LUT of the netlist"), "eop.probe_cells"),
    ("eop", "duration_cycles", _integer(1, 1_000_000), "eop.duration_cycles"),
    ("eop", "resolution_ps", (int, lambda v: v >= 1,
                              "an integer >= 1 and <= the probe duration, "
                              f"with at most {MAX_EOP_SAMPLES} samples in it"),
     "eop.resolution_ps"),
    ("eop", "iterations", (*_integer(1)[:2], _integer(1)[2] + _WINDOWS),
     "eop.iterations"),
    ("eop", "noise_sigma", _at_least(0), "eop.noise_sigma"),
    ("eop", "power", _at_least(0), "eop.power"),
    ("function", "operand_nets", (lambda t: [_names(g) for g in t.split(";")],
                                  lambda groups: all(map(all, groups)),
                                  "groups of names split by ;, each an external "
                                  "input net of the netlist"),
     "function.operand_nets"),
    ("function", "output_cells", (_names, all, "comma-separated names, each a "
                                  "flip-flop of the netlist"),
     "function.output_cells"),
    ("function", "vectors", (
        lambda t: [tuple(int(v) for v in g.split(",")) for g in t.split(";")],
        lambda vectors: min(map(min, vectors)) >= 0 and len(vectors) <= MAX_VECTORS,
        f"at most {MAX_VECTORS} groups of integers >= 0 split by ;, one "
        "integer per operand group, each below 2 ** the group's net count, "
        f"with at most {MAX_DWELLS} dwells in the run"), "function.vectors"),
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
# The sections each kind reads, beyond those every kind may set: a
# stability run sets [thermal] and [defense] too.
_EVERY_KIND = {"scenario", "thermal", "sensor", "defense"}
KIND_SECTIONS = {
    "eofm_key": {"scan", "stimulus"},
    "eofm_function": {"scan", "stimulus", "function"},
    "eop": {"scan", "stimulus", "eop"},
    "stability": {"stability"},
}
# The keys a kind needs, beyond [scenario] kind and netlist.
KIND_NEEDS = {
    "eop": [("eop", "probe_cells")],
    "eofm_function": [("function", "operand_nets"), ("function", "output_cells"),
                      ("function", "vectors")],
}


def load_scenario(path, seed_override: int | None = None) -> Scenario:
    """Parse and validate one .scn file."""
    path = Path(path)
    return _decode_scenario(_read_sections(path), path, seed_override)


def _read_sections(path: Path) -> dict[str, dict[str, str]]:
    """Each section of a scenario file, as a dict of its keys' text.

    A line is blank, a comment (its first character past any indent is
    ``#`` or ``;``), a ``[section]`` header or ``key = value``, split at
    its first ``=`` or ``:``; a ``#`` after whitespace starts a comment.
    Keys are lower-cased and both sides stripped.  An indented line other
    than a comment, a line with no delimiter, a key before any section, an
    unknown or repeated section or key, and a file that cannot be read or
    is not UTF-8 raise ConfigError naming the line.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ConfigError(f"scenario file {path} not found") from None
    except OSError as exc:
        raise ConfigError(f"{path}: cannot be read: {exc.strerror}") from None
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{lineno}: not UTF-8 text") from None
    sections: dict[str, dict[str, str]] = {}
    keys = section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if "#" in line and (cut := re.search(r"\s#", line)):
            line = line[:cut.start()].rstrip()
        if raw[0].isspace():
            problem = "an indented line (there are no continuation lines)"
        elif line[0] == "[" and line[-1] == "]":
            section = line[1:-1]
            if section in _SECTIONS and section not in sections:
                keys = sections[section] = {}
                continue
            problem = (f"repeated section [{section}]" if section in sections
                       else f"unknown section [{section}]")
        else:
            key, delimiter, value = line.partition("=")
            if ":" in key:  # the first delimiter is a colon
                key, delimiter, value = line.partition(":")
            key = key.rstrip().lower()
            if not delimiter:
                problem = "no = or : in the line"
            elif keys is None:
                problem = "a key before any [section]"
            elif (section, key) in SCENARIO_KEYS and key not in keys:
                keys[key] = value.lstrip()
                continue
            else:
                problem = (f"repeated key [{section}] {key}" if key in keys
                           else f"unknown key [{section}] {key}")
        raise ConfigError(f"{path}:{lineno}: {problem}")
    return sections


def _bad_value(where, section: str, key: str, got) -> ConfigError:
    rule = SCENARIO_KEYS[section, key][2]
    return ConfigError(f"{where}: [{section}] {key} must be {rule}, got {got}")


def _decode_scenario(sections: dict, path: Path, seed_override) -> Scenario:
    if "scenario" not in sections:
        raise ConfigError(f"{path}: missing [scenario] section")
    if seed_override is not None:
        # Checked like the seed it replaces.
        sections["scenario"]["seed"] = str(seed_override)
    scn = Scenario(name=path.stem, kind="", netlist_path=Path())
    for section, keys in sections.items():
        for key, text in keys.items():
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
    for section, key in (("scenario", "kind"), ("scenario", "netlist"),
                         *KIND_NEEDS.get(scn.kind, ())):
        if key not in sections.get(section, ()):
            raise ConfigError(f"{path}: [{section}] needs {key}")
    unread = [f"[{section}]" for section in sections if section not in
              _EVERY_KIND and section not in KIND_SECTIONS[scn.kind]]
    if unread:
        raise ConfigError(f"{path}: kind {scn.kind} never reads "
                          + ", ".join(unread))
    if not SCENARIO_KEYS["scenario", "name"][1](scn.name):  # the file name
        raise _bad_value(path, "scenario", "name", f"{scn.name!r} from the file name")
    scn.netlist_path = (path.parent / scn.netlist_path).resolve()
    # The rules that tie one key to another.
    sensor = build_sensor(scn)
    window_ps = scn.t_detect * sensor.cycle_ps
    if scn.kind == "eop":
        spec = scn.eop
        duration_ps = spec.duration_cycles * sensor.cycle_ps
        resolution = spec.resolution_ps
        if resolution > duration_ps or duration_ps // resolution > MAX_EOP_SAMPLES:
            raise _bad_value(path, "eop", "resolution_ps",
                             f"{resolution} for a {duration_ps} ps probe")
        windows = (spec.iterations * duration_ps * len(spec.probe_cells)
                   // window_ps)
        if windows > MAX_WINDOWS:
            raise _bad_value(path, "eop", "iterations",
                             f"{spec.iterations} for {windows} windows")
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
    if scn.kind.startswith("eofm"):
        region, pitch = scn.scan.region_um, scn.scan.pixel_pitch_um
        x0, y0, x1, y1 = region
        # With the pitch at most the shorter side, every pixel center lies
        # in the region.  At a pitch far past it, such as 1e300, a center
        # lies so far off the fabric that the spot Gaussian's squared
        # distances overflow.
        if pitch > min(x1 - x0, y1 - y0):
            raise _bad_value(path, "scan", "pixel_pitch_um",
                             f"{pitch:g} with [scan] region_um = {region}")
        try:
            nx, ny = scn.scan.n_pixels
        except OverflowError:  # a width over the pitch of inf
            nx = ny = math.inf
        if nx * ny > MAX_PIXELS:
            raise _bad_value(path, "scan", "region_um",
                             f"{region} at [scan] pixel_pitch_um = {pitch:g}")
        rasters = len(scn.function.vectors) if scn.kind == "eofm_function" else 1
        dwells = nx * ny * rasters
        # Only a function run can pass the bound: a key run's dwells are its
        # pixels, at most MAX_PIXELS.
        if dwells > MAX_DWELLS:
            raise _bad_value(path, "function", "vectors",
                             f"{rasters} vectors of {nx * ny} pixels for "
                             f"{dwells} dwells")
        # A dwell of more than MAX_WINDOWS windows fails the bound alone, and
        # is rejected before dwell_ps rounds it to an int, which overflows
        # near 1e300 ms.
        if scn.scan.dwell_ms * 1e9 >= (MAX_WINDOWS + 1) * window_ps:
            windows = math.inf
        else:
            windows = dwells * scn.scan.dwell_ps // window_ps
        if windows > MAX_WINDOWS:
            raise _bad_value(path, "scan", "dwell_ms",
                             f"{scn.scan.dwell_ms:g} for {windows} windows")
    if scn.kind.startswith("eofm") or (
            scn.kind == "eop" and scn.stimulus.program == "reset_toggle"):
        target, clock = scn.scan.target_freq_mhz, sensor.clock_mhz
        try:
            period = 2 * half_period_cycles(clock, target)
        except ScenarioError:
            period = math.inf
        if period > MAX_STIMULUS_PERIOD:
            raise _bad_value(path, "scan", "target_freq_mhz",
                             f"{target:g} with clock_mhz = {clock:g}")
    # Only an eop run drives a shift pattern; the other kinds would ignore it.
    if scn.stimulus.program == "shift" and scn.kind != "eop":
        raise _bad_value(path, "stimulus", "program",
                         f"'shift' for kind {scn.kind}")
    # The sensor cell relaxes towards a steady rise of at most the spot's
    # power * power_to_rate_k_per_us * tau_us; past a float64 that is inf,
    # and relax() takes inf - inf, a NaN zero probability.  The delay factor
    # 1 + alpha_per_k * rise then scales the sensor's heated paths, so
    # alpha_per_k * rise, and that times the longest heated path, must stay
    # finite too; the factor 2 covers the rounding of the run's products.
    thermal = ThermalField(sensor.site, **scn.thermal)
    power = {"eop": scn.eop.power, "stability": 0.0}.get(scn.kind, scn.scan.power)
    rate, alpha = thermal.power_to_rate_k_per_us, thermal.alpha_per_k
    rise = power * rate * thermal.tau_us
    if not math.isfinite(rise):
        raise _bad_value(path, "thermal", "power_to_rate_k_per_us",
                         f"{rate:g} with tau_us = {thermal.tau_us:g} and a "
                         f"spot power of {power:g}")
    heated = alpha * rise
    if not math.isfinite(heated) or math.isinf(2.0 * heated
                                               * sensor.heated_path_ps):
        raise _bad_value(path, "thermal", "alpha_per_k",
                         f"{alpha:g} for a peak rise of {rise:g} K and a "
                         f"heated path of {sensor.heated_path_ps:g} ps")
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
    """Programmed key, LSB first; 'random' draws per-seed bits.  A bit
    string key has n_bits bits (checked by run)."""
    if scn.stimulus.key == "random":
        rng = np.random.default_rng([scn.seed & 0xFFFFFFFF, 0x6E7])
        return [int(b) for b in rng.integers(0, 2, size=n_bits)]
    return [int(b) for b in reversed(scn.stimulus.key)]


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
    trigger_time_us: float | None = None
    total_sim_time_us: float = 0.0
    windows: int = 0
    mean_zero_count: float = 0.0
    max_zero_count: int = 0
    max_pulse_len: int = 0
    resources: dict = field(default_factory=dict)
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
        write_columns(path, "t_us,zero_count,running_max,rolling_avg",
                      self.series.T, (1, None, None, 6))


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
        prev = rng.normal(0.0, spec.drift_sigma_ps)
        walk = []
        for step in steps.tolist():
            prev = prev * rho + step
            walk.append(prev)
        drift = np.array(walk)
    else:
        drift = np.zeros(n_logs)
    p0 = sensor.zero_probability(1.0, offset_ps=drift)
    counts = window_zero_counts(p0, n_logs, window, rng)
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


# The tune and threshold of each distinct arming, by everything arm_sensor
# reads: a process that runs one sensor at one seed in several scenarios
# (probesim batch, a sweep) tunes and characterizes it once.  The bundled
# eofm scenarios at one seed arm two sensors, the key and the XOR one, for
# five runs.  An entry is a few hundred bytes; at most ARM_CACHE_ENTRIES are
# kept, the oldest dropped first.  An arming that raises is not kept.
ARM_CACHE_ENTRIES = 8
ARM_CACHE: dict[tuple, tuple[TuneValue, float]] = {}


def arm_sensor(scn: Scenario, sensor: SensorInstance) -> tuple[TuneValue, float]:
    """The tune and trigger threshold a run of ``scn`` uses: the pinned or
    searched tune, and the pinned or derived threshold.  Sets the sensor's
    tune.  Both are pure functions of the sensor's fields before tuning,
    the seed, the sensing time, the window, the pinned tune, the threshold
    setting and the characterization windows, so a process arms each
    distinct set of them once (ARM_CACHE)."""
    threshold = scn.defense.get("threshold")
    # The sensor's fields by vars(), in 0.3 us; dataclasses.astuple took 20.
    key = (*vars(sensor).values(), scn.seed, scn.t_sense_ms, scn.t_detect,
           scn.pinned_tune, threshold, scn.characterize_windows)
    armed = ARM_CACHE.get(key)
    if armed is None:
        tuned = tune_sensor(scn, sensor)
        if threshold is None:
            threshold = derive_threshold(sensor, scn.seed,
                                         scn.characterize_windows, scn.t_detect)
        armed = tuned, threshold
        if len(ARM_CACHE) >= ARM_CACHE_ENTRIES:
            del ARM_CACHE[next(iter(ARM_CACHE))]  # the oldest
        ARM_CACHE[key] = armed
    sensor.tune = armed[0]
    return armed


def load_model(scn: Scenario, sensor: SensorInstance) -> FabricModel:
    """The scenario's netlist, checked against the rules that tie the
    scenario to it; a run and ``probesim tune`` load it before arming."""
    try:
        model = load_netlist(scn.netlist_path)
    except NetlistError as exc:
        raise ConfigError(str(exc)) from None
    except FileNotFoundError:
        raise ConfigError(
            f"scenario {scn.name}: netlist file {scn.netlist_path} not found"
        ) from None
    except OSError as exc:
        raise ConfigError(f"scenario {scn.name}: netlist file "
                          f"{scn.netlist_path} cannot be read: {exc.strerror}"
                          ) from None
    _check_netlist_rules(scn, model, sensor)
    return model


def run(scn: Scenario, out_dir=None) -> RunResult:
    """Execute one scenario end to end and (optionally) write artifacts."""
    sensor = build_sensor(scn)
    model = load_model(scn, sensor)
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
    tuned, policy.threshold = arm_sensor(scn, sensor)
    # Counted from the configured policy: a capacity fallback at the
    # trigger rewrites its mode to zeroize.
    summary = RunSummary(scn.name, scn.kind, scn.seed, str(tuned), policy.threshold,
                         resources=report_resources(model, sensor, policy))
    result = RunResult(summary)
    if scn.kind == "stability":
        result.stability = stability_test(sensor, policy.threshold, scn.seed,
                                          scn.stability, scn.t_detect)
        summary.stability = result.stability.as_dict()
        summary.total_sim_time_us = scn.stability.duration_min * 6e7
    else:
        sim = CoSimulation(model, ThermalField(sensor.site, model.site_pitch_um,
                                               **scn.thermal),
                           sensor, policy, _stimulus(scn, model, sensor),
                           scn.seed, scn.t_detect)
        scan = scn.scan
        if scn.kind.startswith("eofm"):
            x0, y0, x1, y1 = scan.region_um
            summary.attack_params = {
                "scan_region_um": f"{x0:.0f},{y0:.0f},{x1:.0f},{y1:.0f}",
                "scan_pixel_pitch_um": f"{scan.pixel_pitch_um:g}",
                "scan_dwell_ms": f"{scan.dwell_ms:g}",
                "scan_target_freq_mhz": f"{scan.target_freq_mhz:g}",
                "scan_power": f"{scan.power:g}",
                "scan_noise_sigma": f"{scan.noise_sigma:g}",
            }
        if scn.kind == "eofm_key":
            # Read before the scan, whose defense may re-place the register.
            key_bits = [sim.stimulus.static[net] for net in model.protected_sources]
            sites = [model.cell_position_um(n) for n in model.protected]
            result.image = attacker.eofm_scan(sim, scan)
            recovered = attacker.recover_bits(result.image, sites, scn.bit_threshold)
            located = attacker.localize(result.image, scn.bit_threshold, model)
            summary.attack_params["localized_sites"] = ";".join(
                f"{s.x}.{s.y}" for s in located)
            summary.true_key = "".join(str(b) for b in reversed(key_bits))
            summary.recovered_key = "".join(str(b) for b in reversed(recovered))
            summary.bits_correct = sum(int(r == k) for r, k in zip(recovered, key_bits))
            summary.bits_total = len(key_bits)
        elif scn.kind == "eofm_function":
            spec = scn.function
            summary.function_table = attacker.recover_function(
                sim, scan, spec.operand_nets,
                [model.cell_position_um(cell) for cell in spec.output_cells],
                spec.vectors, scn.bit_threshold)
        elif scn.kind == "eop":
            spec = scn.eop
            result.traces = {cell: attacker.eop_probe(
                sim, model.cell_position_um(cell), spec.duration_cycles,
                spec.resolution_ps, spec.iterations, spec.noise_sigma, spec.power,
                scan.spot_sigma_um) for cell in spec.probe_cells}
            summary.attack_params = {
                "eop_probe_cells": ",".join(spec.probe_cells),
                "eop_resolution_ps": spec.resolution_ps,
                "eop_iterations": spec.iterations,
                "eop_duration_cycles": spec.duration_cycles,
            }
        result.sim = sim
        result.counters = sim.counter_columns()
        summary.trigger_time_us = sim.trigger_time_us
        summary.total_sim_time_us = sim.t_us
        _, counts, pulses, _ = result.counters
        if len(counts):
            summary.windows = len(counts)
            # The integer sum is exact: it stays below 2**53 even at
            # MAX_WINDOWS windows of MAX_WINDOW zeros, so this is mean().
            summary.mean_zero_count = float(counts.sum()) / len(counts)
            summary.max_zero_count = int(counts.max())
            summary.max_pulse_len = int(pulses.max())
    if out_dir is not None:
        write_artifacts(result, Path(out_dir))
    return result


def _stimulus(scn: Scenario, model: FabricModel, sensor: SensorInstance) -> Stimulus:
    """The run's input program: an eop run's shift pattern on its serial
    net, or else a reset toggle at the scan's target frequency, with an
    eofm_key run's key held on the protected data nets."""
    if scn.kind == "eop" and scn.stimulus.program == "shift":
        return Stimulus(scn.stimulus.serial_net,
                        tuple(int(b) for b in scn.stimulus.pattern))
    static = {}
    if scn.kind == "eofm_key":
        static = dict(zip(model.protected_sources,
                          scenario_key_bits(scn, len(model.protected))))
    return stimulus_for_target_freq(sensor.clock_mhz, scn.scan.target_freq_mhz,
                                    static)


def _check_netlist_rules(scn: Scenario, model: FabricModel,
                         sensor: SensorInstance) -> None:
    """The rules that tie the scenario to its netlist, checked before the
    sensor is tuned."""
    where = f"scenario {scn.name}"
    grid = f"on a {model.grid_width}x{model.grid_height} grid"
    if not model.on_grid(sensor.site):
        raise _bad_value(where, "sensor", "site", f"{sensor.site} {grid}")
    if scn.kind.startswith("eofm") and not model.on_fabric(scn.scan.region_um):
        width, height = model.size_um
        raise _bad_value(where, "scan", "region_um",
                         f"{scn.scan.region_um} on a {width:g}x{height:g} "
                         "um fabric")
    region = scn.defense.get("allowed_region")
    if region and not model.on_grid(region[-1]):  # its corner x1,y1
        raise _bad_value(where, "defense", "allowed_region",
                         f"{region[0]},{region[-1]} {grid}")
    if scn.kind == "eop":
        serial_net = scn.stimulus.serial_net
        if scn.stimulus.program == "shift" and serial_net not in model.inputs:
            raise _bad_value(where, "stimulus", "serial_net", repr(serial_net))
        for cell in scn.eop.probe_cells:
            if cell not in model.ffs and cell not in model.luts:
                raise _bad_value(where, "eop", "probe_cells",
                                 f"{cell!r}, not a cell of the netlist")
    if scn.kind == "eofm_function":
        for group in scn.function.operand_nets:
            for net in group:
                if net not in model.inputs:
                    raise _bad_value(where, "function", "operand_nets",
                                     f"{net!r}, not an external input")
        for cell in scn.function.output_cells:
            if cell not in model.ffs:
                raise _bad_value(where, "function", "output_cells",
                                 f"{cell!r}, not a flip-flop")
    if scn.kind == "eofm_key":
        if not model.protected:
            raise ConfigError(f"{scn.netlist_path}: eofm_key needs a protect line")
        sources = model.protected_sources
        missing = [n for n in sources if n not in model.inputs]
        if missing:
            raise ConfigError(
                f"{scn.netlist_path}: protected data nets must be external "
                f"inputs, got {missing}")
        # The stimulus holds one key bit per data net.
        shared = sorted({n for n in sources if sources.count(n) > 1})
        if shared:
            raise ConfigError(
                f"{scn.netlist_path}: protected data nets must be distinct, "
                f"got {shared} more than once")
        key = scn.stimulus.key
        if key != "random" and len(key) != len(model.protected):
            raise _bad_value(where, "stimulus", "key",
                             f"{key!r} for {len(model.protected)} protected bits")


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
            data = trace.csv_bytes()
            (out_dir / f"trace_{cell}.csv").write_bytes(data)
            if i == 0:
                (out_dir / "trace.csv").write_bytes(data)
    if result.stability is not None:
        result.stability.to_csv(out_dir / "counters.csv")
    if result.counters is not None:
        # A log kept in cosim.LOG_CACHE is formatted at its first write, and
        # its bytes, within cosim.LOG_BODY_BYTES, kept for the runs that
        # share it.
        path = out_dir / "counters.csv"
        kept = result.sim.kept_log
        if kept is not None and kept.body is not None:
            with open(path, "wb") as fh:
                fh.writelines(kept.body)
        else:
            body = write_counters_csv(path, result.counters,
                                      0 if kept is None else cosim.LOG_BODY_BYTES)
            if kept is not None:
                kept.body = body
    if result.sim is not None:
        write_defense_log(out_dir / "defense_log.csv", result.sim.defense_log)


def run_batch(paths, out_root, seed_override: int | None = None) -> list[RunSummary]:
    """Run independent scenarios one after another.

    Each run writes into ``out_root/<scenario name>``, so the names must be
    unique; a repeated name raises ConfigError before any run starts.
    """
    out_root = Path(out_root)
    scenarios = [load_scenario(p, seed_override) for p in paths]
    names = [s.name for s in scenarios]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise ConfigError(f"batch lists scenario names more than once: {duplicates}")
    return [run(scn, out_root / scn.name).summary for scn in scenarios]
