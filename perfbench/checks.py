"""Correctness checks of one benchmark case.

Every expectation is computed here from the scenario and netlist files,
never copied from an earlier run: the key written in the ``.scn`` file,
``a ^ b`` for each XOR vector, the shift pattern delayed by the register
stage, the raster time at which the scan reaches the first protected pixel,
and the window count implied by the simulated time.  The results are read
back from the artifacts the run wrote to disk.  Each check returns a list of
problems; an empty list means the case passed.
"""

from __future__ import annotations

import configparser
import math
import re
from pathlib import Path

import numpy as np
from scipy.special import bdtr

from probesim import harness
from probesim import sensor as sensor_mod
from probesim.sensor import SensorInstance, TuneValue


class Expect:
    """Values a scenario's run must reproduce, read from its files."""

    def __init__(self, scn_path):
        self.path = Path(scn_path)
        cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
        cfg.read(self.path)
        self.cfg = cfg
        self.name = cfg["scenario"]["name"]
        self.netlist = read_netlist(self.path.parent / cfg["scenario"]["netlist"])
        sensor = cfg["sensor"]
        self.t_detect = sensor.getint("t_detect_cycles", 255)
        self.cycle_ps = round(1e6 / sensor.getfloat("clock_mhz", 100.0))
        # Sensor constants and scenario defaults, for the arming checks.
        self.scenario = harness.load_scenario(self.path)
        self.sensor = harness.build_sensor(self.scenario)


def read_netlist(path) -> dict:
    """Grid geometry, flip-flops and the protected order of a netlist file."""
    net = {"pitch": 10.0, "ffs_per_slice": 4, "ffs": {}, "protected": []}
    for raw in Path(path).read_text().splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        opts = dict(t.split("=", 1) for t in tokens[1:] if "=" in t)
        if tokens[0] == "grid":
            net["pitch"] = float(opts.get("pitch", 10.0))
            net["ffs_per_slice"] = int(opts.get("ffs", 4))
        elif tokens[0] == "ff":
            x, y = (int(v) for v in opts["site"].split(","))
            net["ffs"][tokens[1]] = {"d": opts["d"], "q": opts["q"], "x": x,
                                     "y": y, "slot": int(opts.get("slot", 0))}
        elif tokens[0] == "protect":
            net["protected"] = tokens[1:]
    return net


def ff_position_um(net: dict, name: str) -> tuple[float, float]:
    """Flip-flop position: 2 um right of its slice centre, slots 2 um apart."""
    ff, pitch = net["ffs"][name], net["pitch"]
    return ((ff["x"] + 0.5) * pitch + 2.0,
            (ff["y"] + 0.5) * pitch + (ff["slot"] - (net["ffs_per_slice"] - 1) / 2) * 2.0)


def read_summary(out_dir) -> dict[str, str]:
    fields = {}
    for line in (Path(out_dir) / "summary.txt").read_text().splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    return fields


def _read_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# -- per-scenario checks ------------------------------------------------------


def check_windows(exp: Expect, out_dir, fields) -> list[str]:
    """Window count from simulated time; counters.csv invariants per row."""
    problems = []
    sim_ps = round(float(fields["total_sim_time_us"]) * 1e6)
    expected = sim_ps // (exp.t_detect * exp.cycle_ps)
    windows = int(fields["windows"])
    if windows != expected:
        problems.append(f"{exp.name}: {windows} windows, simulated time "
                        f"gives {expected}")
    rows = _read_csv(Path(out_dir) / "counters.csv").astype(np.int64)
    if len(rows) != expected:
        problems.append(f"{exp.name}: counters.csv has {len(rows)} rows, "
                        f"expected {expected}")
    idx, zeros, pulse, latched = rows.T
    if not np.array_equal(idx, np.arange(len(rows))):
        problems.append(f"{exp.name}: counters.csv window_index not 0..n-1")
    if ((pulse < 0) | (pulse > zeros) | (zeros > exp.t_detect)).any():
        problems.append(f"{exp.name}: a row breaks max_pulse <= zero_count "
                        f"<= {exp.t_detect}")
    if (~np.isin(latched, (0, 1))).any() or (np.diff(latched) < 0).any():
        problems.append(f"{exp.name}: latched is not a non-decreasing 0/1 flag")
    return problems


def check_key(exp: Expect, fields) -> list[str]:
    key = exp.cfg["stimulus"]["key"]
    if fields.get("recovered_key") != key:
        return [f"{exp.name}: recovered key {fields.get('recovered_key')} "
                f"!= scenario key {key}"]
    return []


def pixel_index(exp: Expect, x_um: float, y_um: float) -> int:
    """Raster position of the pixel holding a point: rows top to bottom,
    each row left to right."""
    scan = exp.cfg["scan"]
    x0, y0, x1, _ = (float(v) for v in scan["region_um"].split(","))
    pitch = scan.getfloat("pixel_pitch_um")
    nx = max(int(round((x1 - x0) / pitch)), 1)
    return int((y_um - y0) // pitch) * nx + int((x_um - x0) // pitch)


def first_protected_arrival_us(exp: Expect) -> float:
    """Raster time at which the scan reaches the first protected pixel."""
    first = min(pixel_index(exp, *ff_position_um(exp.netlist, name))
                for name in exp.netlist["protected"])
    return first * exp.cfg["scan"].getfloat("dwell_ms") * 1e3


def _read_defense_log(out_dir) -> list[dict[str, str]]:
    lines = (Path(out_dir) / "defense_log.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_mtd_inter(exp: Expect, out_dir, fields) -> tuple[list[str], float]:
    """Trigger, reconfiguration latency, race against the raster, dark sites.

    Returns the problems and the race margin in simulated microseconds.
    """
    log = _read_defense_log(out_dir)
    if fields["trigger_time_us"] == "none" or not log:
        return [f"{exp.name}: the sensor never triggered"], math.nan
    trigger = float(log[0]["trigger_time_us"])
    complete = float(log[0]["event_complete_us"])
    latency = exp.cfg["defense"].getfloat("pr_latency_us")
    problems = []
    # The log keeps three decimals of a microsecond.
    if abs(complete - trigger - latency) > 2e-3:
        problems.append(f"{exp.name}: completion - trigger = "
                        f"{complete - trigger:.3f} us, pr_latency_us = {latency}")
    margin = first_protected_arrival_us(exp) - complete
    if margin <= 0:
        problems.append(f"{exp.name}: relocation completed {-margin:.1f} us "
                        "after the scan reached the first protected pixel")
    amplitudes = _read_csv(Path(out_dir) / "image.csv")[:, 2]
    threshold = exp.cfg["scan"].getfloat("bit_threshold")
    for name in exp.netlist["protected"]:
        value = amplitudes[pixel_index(exp, *ff_position_um(exp.netlist, name))]
        if value >= threshold:
            problems.append(f"{exp.name}: original site of {name} reads "
                            f"{value:.3f} >= bit_threshold {threshold}")
    return problems, margin


def check_mtd_intra(exp: Expect, out_dir, fields) -> list[str]:
    """The logged permutation is a bijection on the protected bits."""
    log = _read_defense_log(out_dir)
    if fields["trigger_time_us"] == "none" or not log:
        return [f"{exp.name}: the sensor never triggered"]
    n = len(exp.netlist["protected"])
    cycles = log[0]["permutation"]
    if not re.fullmatch(r"(\((\d+)( \d+)*\))+", cycles):
        return [f"{exp.name}: permutation {cycles!r} is not in cycle notation"]
    images = sorted(int(v) for v in re.findall(r"\d+", cycles))
    if images != list(range(n)):
        return [f"{exp.name}: permutation {cycles} is not a bijection on {n} bits"]
    return []


def function_table(fields) -> dict[tuple[int, ...], str]:
    table = {}
    for key, value in fields.items():
        if key.startswith("function[") and key.endswith("]"):
            table[tuple(int(v, 2) for v in key[9:-1].split(","))] = value
    return table


def _vectors(exp: Expect) -> list[tuple[int, ...]]:
    return [tuple(int(v) for v in group.split(","))
            for group in exp.cfg["function"]["vectors"].split(";")]


def check_xor(exp: Expect, fields) -> list[str]:
    table = function_table(fields)
    width = len(exp.cfg["function"]["output_cells"].split(","))
    problems = []
    for a, b in _vectors(exp):
        want = format(a ^ b, f"0{width}b")
        if table.get((a, b)) != want:
            problems.append(f"{exp.name}: {a} ^ {b} read {table.get((a, b))}, "
                            f"expected {want}")
    return problems


def check_polymorphic(exp: Expect, fields) -> list[str]:
    if fields["trigger_time_us"] == "none":
        return [f"{exp.name}: the sensor never triggered"]
    table = function_table(fields)
    width = len(exp.cfg["function"]["output_cells"].split(","))
    problems = [f"{exp.name}: vector {vec} read {table.get(vec)} after the trigger"
                for vec in _vectors(exp) if table.get(vec) != "0" * width]
    return problems


def shift_stage(net: dict, cell: str, serial_net: str) -> int:
    """Register stages between the serial input and a flip-flop's output."""
    ff_of_q = {ff["q"]: name for name, ff in net["ffs"].items()}
    stage, d = 0, net["ffs"][cell]["d"]
    while d != serial_net:
        d = net["ffs"][ff_of_q[d]]["d"]
        stage += 1
    return stage


def check_eop(exp: Expect, out_dir) -> list[str]:
    """Thresholded traces follow the delayed pattern; noise is sigma/sqrt(N)."""
    stim, eop = exp.cfg["stimulus"], exp.cfg["eop"]
    pattern = [int(b) for b in stim["pattern"]]
    predicted = eop.getfloat("noise_sigma") / math.sqrt(eop.getint("iterations"))
    problems = []
    for cell in (c.strip() for c in eop["probe_cells"].split(",")):
        trace = _read_csv(Path(out_dir) / f"trace_{cell}.csv")
        stage = shift_stage(exp.netlist, cell, stim["serial_net"])
        cycles = trace[:, 0].astype(np.int64) // exp.cycle_ps
        clean = np.array([pattern[(c - stage) % len(pattern)] for c in cycles])
        binary = (trace[:, 1] > 0.5).astype(int)
        if not np.array_equal(binary, clean):
            problems.append(f"{exp.name}: {cell} differs from the pattern "
                            f"delayed by {stage} stages at "
                            f"{int(np.sum(binary != clean))} samples")
        spread = float(np.std(trace[:, 1] - clean))
        if abs(spread - predicted) / predicted >= 0.10:
            problems.append(f"{exp.name}: {cell} residual std {spread:.5f}, "
                            f"1/sqrt(iterations) gives {predicted:.5f}")
    return problems


def check_scenario(exp: Expect, out_dir) -> tuple[list[str], float | None]:
    """All checks for one scenario run; also returns the race margin, if any."""
    fields = read_summary(out_dir)
    if exp.name == "stability":
        return check_stability(exp, out_dir, fields), None
    margin = None
    problems = check_windows(exp, out_dir, fields)
    if exp.name == "unprotected_key":
        problems += check_key(exp, fields)
    elif exp.name == "mtd_inter_key":
        found, margin = check_mtd_inter(exp, out_dir, fields)
        problems += found
    elif exp.name == "mtd_intra_key":
        problems += check_mtd_intra(exp, out_dir, fields)
    elif exp.name == "xor_unprotected":
        problems += check_xor(exp, fields)
    elif exp.name == "xor_polymorphic":
        problems += check_polymorphic(exp, fields)
    elif exp.name == "eop_shift":
        problems += check_eop(exp, out_dir)
    else:
        problems.append(f"no checks defined for scenario {exp.name}")
    return problems, margin


# -- sensor arming -------------------------------------------------------------


def parse_tune(text: str) -> TuneValue:
    """The ``tune:`` line of a summary: ``data=16 clock=2 select=3``."""
    values = dict(item.split("=") for item in text.split())
    return TuneValue(int(values["data"]), int(values["clock"]), int(values["select"]))


def ambient_zero_probability(sensor: SensorInstance, tune: TuneValue) -> float:
    """Zero probability of the unheated sensor, from its path delays.

    Data path: one element at the data tap, then the LUT pin and the data
    route.  Clock path: the chain, whose code sets one element's tap (five
    LSBs) and how many elements sit at the top tap, then the clock route.
    """
    top = 30
    data = (sensor.element_base_ps + min(tune.data_code, top) * sensor.per_tap_ps
            + sensor.lut_pin_base_ps + tune.lut_select * sensor.lut_pin_step_ps
            + sensor.data_route_ps)
    clock = (sensor.chain_len * sensor.element_base_ps
             + sensor.per_tap_ps * ((tune.clock_code >> 5) * top
                                    + min(tune.clock_code & 0x1F, top))
             + sensor.clock_route_ps)
    return 0.5 * math.erfc((clock - data) / (sensor.jitter_sigma_ps * math.sqrt(2)))


def threshold_range(p0: float, n_windows: int, window: int,
                    tail: float = 1e-9) -> tuple[int, int]:
    """Trigger levels the rule ``max(ceil(mean + 6 sd), max + 2)`` gives
    over ``n_windows`` idle windows, but for a chance of ``tail`` at each end.

    The window counts are Binomial(window, p0).  The largest of them has the
    distribution function F(k)^n; the sample mean and standard deviation
    are taken within six standard errors of their true values.
    """
    ks = np.arange(window + 1)
    f_max = bdtr(ks, window, p0) ** n_windows
    max_lo = int(ks[np.argmax(f_max >= tail)])
    max_hi = int(ks[np.argmax(f_max >= 1.0 - tail)])
    sd = math.sqrt(window * p0 * (1.0 - p0))
    centre = window * p0 + 6.0 * sd
    if sd > 0:
        kurtosis = 3.0 + (1.0 - 6.0 * p0 * (1.0 - p0)) / sd ** 2
        err = 6.0 * sd * math.sqrt(1.0 / n_windows + 36.0 * (kurtosis - 1.0)
                                   / (4.0 * n_windows))
    else:
        err = 0.0
    return (max(math.floor(centre - err), max_lo + 2, 1),
            max(math.ceil(centre + err), max_hi + 2, 1))


def false_trigger_us(out_dir, fields) -> float | None:
    """Time of an idle run's first logged count at or above its threshold;
    None if there is none, or if the run is not an idle run."""
    if "stability_triggered" not in fields:
        return None
    t_us, zeros = _read_csv(Path(out_dir) / "counters.csv")[:, :2].T
    hits = np.flatnonzero(zeros >= float(fields["trigger_threshold"]))
    return float(t_us[hits[0]]) if hits.size else None


def check_stability(exp: Expect, out_dir, fields) -> list[str]:
    """The idle run's log, its trigger decision and its trigger level.

    The log has one row per logging interval, counts within the window and
    a running maximum that is the cumulative maximum of the counts.  The
    summary's trigger flag and maximum follow from the logged counts and
    the summary's threshold.  The threshold lies in the range its rule gives
    at the ambient zero probability of the summary's tune, computed here
    from the path delays.
    """
    spec = exp.cfg["stability"]
    n_logs = round(spec.getfloat("duration_min") * 60_000.0
                   / spec.getfloat("log_every_ms"))
    rows = _read_csv(Path(out_dir) / "counters.csv")
    if len(rows) != n_logs:
        return [f"{exp.name}: counters.csv has {len(rows)} rows, "
                f"{n_logs} logging intervals expected"]
    t_us, zeros, running, _ = rows.T
    problems = []
    expected_t = (np.arange(n_logs) + 1) * spec.getfloat("log_every_ms") * 1e3
    if not np.allclose(t_us, expected_t):
        problems.append(f"{exp.name}: counters.csv t_us is not one row per "
                        "logging interval")
    if ((zeros < 0) | (zeros > exp.t_detect) | (zeros != np.round(zeros))).any():
        problems.append(f"{exp.name}: a zero count is outside 0..{exp.t_detect}")
    if not np.array_equal(running, np.maximum.accumulate(zeros)):
        problems.append(f"{exp.name}: running_max is not the cumulative "
                        "maximum of zero_count")
    threshold = float(fields["trigger_threshold"])
    triggered = bool((zeros >= threshold).any())
    if fields["stability_triggered"] != str(triggered):
        problems.append(f"{exp.name}: stability_triggered is "
                        f"{fields['stability_triggered']}, but the log "
                        f"{'reaches' if triggered else 'stays below'} the "
                        f"threshold {threshold:.0f}")
    if int(fields["stability_max_zero_count"]) != int(zeros.max()):
        problems.append(f"{exp.name}: stability_max_zero_count "
                        f"{fields['stability_max_zero_count']}, log maximum "
                        f"{int(zeros.max())}")
    tune = parse_tune(fields["tune"])
    p0 = ambient_zero_probability(exp.sensor, tune)
    lo, hi = threshold_range(p0, exp.scenario.characterize_windows, exp.t_detect)
    if not lo <= threshold <= hi:
        problems.append(f"{exp.name}: threshold {threshold:.0f} outside "
                        f"{lo}..{hi}, the range for tune {tune} "
                        f"(ambient zero probability {p0:.3g})")
    return problems


def check_tune_optimal(sensor: SensorInstance, tuned: TuneValue, seed: int,
                       t_sense_ms: float, window: int) -> list[str]:
    """The tuner's score equals the minimum over every operating point.

    Ties between equal scores may resolve to different points, because the
    tuner only visits the neighbourhood of each metastable boundary.
    """
    best = None
    for data in range(32):
        for clock in range(2 ** sensor.clock_code_bits):
            for select in range(sensor.lut_arity):
                cand = TuneValue(data, clock, select)
                rate = sensor_mod.probe_zero_rate(sensor, cand, seed)
                if not sensor_mod.is_metastable(rate):
                    continue
                score = sensor_mod.max_zero_count(sensor, cand, seed,
                                                  t_sense_ms, window)
                if best is None or score < best:
                    best = score
    found = sensor_mod.max_zero_count(sensor, tuned, seed, t_sense_ms, window)
    if best is None or found != best:
        return [f"seed {seed}: tune {tuned} scores {found}, exhaustive "
                f"optimum scores {best}"]
    return []
