import configparser
import dataclasses
import filecmp
import math
import re
import string
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (advance_for, assert_pulses_of_one_draw, build_key_model,
                      build_sim, clear_caches, counter_rows, kept_logs,
                      window_counts)
from probesim import cli, cosim, harness
from probesim.artifacts import CSV_CHUNK_ROWS
from probesim.defense import DefensePolicy
from probesim.harness import (MAX_DWELLS, MAX_VECTORS, SCENARIO_KEYS,
                              ConfigError, StabilitySpec, derive_threshold,
                              load_scenario, report_resources, run, run_batch,
                              scenario_key_bits, stability_test,
                              write_counters_csv)
from probesim.netlist import NetlistError, load_netlist
from probesim.sensor import (SensorInstance, TuneValue, chain_code_bits,
                             ro_calibration)

SCENARIOS = Path(__file__).resolve().parents[1] / "src/probesim/scenarios"


def small_key_scenario(tmp_path=None, seed=1, **overrides):
    scn = load_scenario(SCENARIOS / "unprotected_key.scn", seed)
    # Narrow region keeps unit runs fast; rows 6..10, full width.
    scn.scan.__dict__.update(region_um=(0.0, 60.0, 320.0, 110.0))
    for key, val in overrides.items():
        setattr(scn, key, val)
    return scn


class TestNetlistFiles:
    @pytest.mark.parametrize("name", ["key8.net", "xor4.net", "xor4_poly.net",
                                      "shift8.net"])
    def test_bundled_netlists_load(self, name):
        model = load_netlist(SCENARIOS / name)
        assert model.grid_width == 32

    def test_netlist_errors_carry_line_numbers(self, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text("grid 4 4\nlut l0 init=01 in=a out=b site=9,9\n")
        with pytest.raises(NetlistError, match="bad.net:2"):
            load_netlist(bad)

    def test_grid_must_come_first(self, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text("input a\n")
        with pytest.raises(NetlistError):
            load_netlist(bad)

    @pytest.mark.parametrize("option", ["delay_ps=700", "centroid=10,20"])
    def test_net_options_rejected(self, capsys, tmp_path, option):
        # A net statement only names a net; the options it once took set
        # values that no run reads.
        text = (SCENARIOS / "shift8.net").read_text()
        (tmp_path / "shift8.net").write_text(text + f"net s2_q {option}\n")
        with pytest.raises(NetlistError, match="unknown net options"):
            load_netlist(tmp_path / "shift8.net")
        path = tmp_path / "eop_shift.scn"
        path.write_text((SCENARIOS / "eop_shift.scn").read_text())
        assert cli.main(["eop", "--scenario", str(path)]) == 2
        assert "unknown net options" in capsys.readouterr().err


class TestScenarioFiles:
    @pytest.mark.parametrize("name", [
        "unprotected_key.scn", "mtd_inter_key.scn", "mtd_intra_key.scn",
        "xor_unprotected.scn", "xor_polymorphic.scn", "eop_shift.scn",
        "stability.scn",
    ])
    def test_bundled_scenarios_parse(self, name):
        scn = load_scenario(SCENARIOS / name)
        assert scn.netlist_path.exists()

    def test_unknown_key_rejected(self, tmp_path):
        text = (SCENARIOS / "unprotected_key.scn").read_text()
        bad = tmp_path / "bad.scn"
        bad.write_text(text.replace("dwell_ms", "dwell_sec"))
        with pytest.raises(ConfigError, match="dwell_sec"):
            load_scenario(bad)

    # The [sensor] path-delay calibration: every bundled scenario keeps the
    # default delay model, and tests that vary it set these keys.
    CALIBRATION_KEYS = tuple(("sensor", key) for key in (
        "element_base_ps", "per_tap_ps", "lut_pin_base_ps", "lut_pin_step_ps",
        "lut_arity", "data_route_ps", "clock_route_ps"))

    def test_every_key_is_set_by_a_bundled_scenario(self):
        used = set()
        for path in SCENARIOS.glob("*.scn"):
            used |= {(section, key) for section, keys in
                     harness._read_sections(path).items() for key in keys}
        assert set(SCENARIO_KEYS) - used == set(self.CALIBRATION_KEYS)

    def test_readme_lists_every_key_with_its_rule(self):
        readme = (SCENARIOS.parents[2] / "README.md").read_text()
        section = readme.split("## Scenario file format")[1].split("\n## ")[0]
        listed = {(sec, key): " ".join(rest.split()) for sec, key, rest in
                  re.findall(r"^- `\[(\w+)\] (\w+)`(.*(?:\n  .*)*)", section,
                             re.M)}
        assert set(listed) == set(SCENARIO_KEYS)
        for key, (_, _, rule, _) in SCENARIO_KEYS.items():
            assert f"`{rule}`" in listed[key], key

    @pytest.mark.parametrize("line, edge", [
        ("spot_sigma_um = 8.0", "spot_sigma_um = 0.001"),
        ("psf_sigma_um = 4.0", "psf_sigma_um = 0.001"),
        ("spot_sigma_um = 8.0", "spot_sigma_um = 1e150"),
        ("psf_sigma_um = 4.0", "psf_sigma_um = 1e150"),
        ("dwell_ms = 1.0", "dwell_ms = 1e-6"),
        # 256 x 256 pixels.
        ("region_um = 0,0,320,160", "region_um = 0,0,2560,2560"),
        ("pixel_pitch_um = 10.0", "pixel_pitch_um = 1.0"),
    ])
    def test_scan_values_on_their_bounds_accepted(self, tmp_path, line, edge):
        text = (SCENARIOS / "mtd_inter_key.scn").read_text()
        path = tmp_path / "edge.scn"
        path.write_text(text.replace(line, edge))
        assert load_scenario(path).scan.n_pixels[0] >= 32

    def test_pitch_of_the_shorter_side_accepted(self, tmp_path):
        # xor_unprotected rasters a 40 by 80 um region.
        text = (SCENARIOS / "xor_unprotected.scn").read_text()
        path = tmp_path / "edge.scn"
        path.write_text(text.replace("pixel_pitch_um = 10.0",
                                     "pixel_pitch_um = 40"))
        assert load_scenario(path).scan.n_pixels == (1, 2)

    @pytest.mark.parametrize("scenario, lines, edges", [
        # alpha_per_k just inside its bound: 2 * alpha * the 20 K rise * the
        # 3,369 ps heated path is 1.75e308.
        ("mtd_inter_key", ("alpha_per_k = 0.002",), ("alpha_per_k = 1.3e303",)),
        # A rise of 1e308 K, with alpha_per_k inside its bound.
        ("mtd_inter_key", ("tau_us = 50.0", "alpha_per_k = 0.002",
                           "power_to_rate_k_per_us = 0.4"),
         ("tau_us = 1e300", "alpha_per_k = 0.0002",
          "power_to_rate_k_per_us = 1e8")),
        # A stability run parks no spot, so its rise is 0.
        ("stability", ("tau_us = 50.0", "power_to_rate_k_per_us = 0.4",
                       "alpha_per_k = 0.002"),
         ("tau_us = 1e300", "power_to_rate_k_per_us = 1e300",
          "alpha_per_k = 1e300")),
    ])
    def test_thermal_values_on_their_bounds_run_silently(self, tmp_path,
                                                         scenario, lines,
                                                         edges):
        path = edited_copy(tmp_path, scenario, lines, edges)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(load_scenario(path))
        assert math.isfinite(result.summary.mean_zero_count)

    @pytest.mark.parametrize("target", ["50", "25", "12.5", "0.01"])
    def test_target_freq_of_whole_clock_cycles_accepted(self, tmp_path,
                                                        target):
        text = (SCENARIOS / "unprotected_key.scn").read_text()
        path = tmp_path / "unprotected_key.scn"
        path.write_text(text.replace("target_freq_mhz = 1.25",
                                     f"target_freq_mhz = {target}"))
        (tmp_path / "key8.net").write_text((SCENARIOS / "key8.net").read_text())
        assert load_scenario(path).scan.target_freq_mhz == float(target)

    def test_bad_kind_rejected(self, tmp_path):
        text = (SCENARIOS / "unprotected_key.scn").read_text()
        bad = tmp_path / "bad.scn"
        bad.write_text(text.replace("kind = eofm_key", "kind = blast"))
        with pytest.raises(ConfigError):
            load_scenario(bad)

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_scenario("/nonexistent/file.scn")

    def test_seed_override(self):
        scn = load_scenario(SCENARIOS / "unprotected_key.scn", 99)
        assert scn.seed == 99

    def test_key_bits_decode_msb_first(self):
        scn = load_scenario(SCENARIOS / "unprotected_key.scn")
        bits = scenario_key_bits(scn, 8)
        assert "".join(str(b) for b in reversed(bits)) == "10110001"

    def test_random_key_reproducible_per_seed(self):
        scn = load_scenario(SCENARIOS / "unprotected_key.scn", 5)
        scn.stimulus.key = "random"
        assert scenario_key_bits(scn, 8) == scenario_key_bits(scn, 8)


# Files within the scenario grammar: known sections and keys, the keys in
# any case, both delimiters with any spacing, full-line and inline
# comments, and blank lines.  Values hold no % (configparser would
# interpolate it) and no line break.
_BLANK = st.sampled_from(["", " ", "\t", "  \t "])
_SPACE = st.sampled_from(["", " ", "  ", "\t"])
_WORDS = st.text(st.sampled_from(string.ascii_letters + string.digits
                                 + " ,.;:=#[]-+_/µé"), max_size=12)
_COMMENT = st.builds("{}{}{}".format, _BLANK, st.sampled_from("#;"),
                     st.text(st.sampled_from(string.printable[:94] + " µé"),
                             max_size=12))
_INLINE = st.one_of(st.just(""), st.builds("{}#{}".format,
                                           st.sampled_from([" ", "\t", "  "]),
                                           _WORDS))
_FILLER = st.lists(st.one_of(_BLANK, _COMMENT), max_size=2)
_SECTION_KEYS = {}
for _section, _key in SCENARIO_KEYS:
    _SECTION_KEYS.setdefault(_section, []).append(_key)


@st.composite
def _case_mix(draw, key):
    upper = draw(st.lists(st.booleans(), min_size=len(key), max_size=len(key)))
    return "".join(c.upper() if u else c for c, u in zip(key, upper))


@st.composite
def scenario_lines(draw):
    lines = draw(_FILLER)
    names = draw(st.lists(st.sampled_from(sorted(_SECTION_KEYS)), unique=True,
                          max_size=5))
    for name in names:
        lines.append(f"[{name}]" + draw(_INLINE))
        lines += draw(_FILLER)
        keys = draw(st.lists(st.sampled_from(_SECTION_KEYS[name]), unique=True,
                             max_size=4))
        for key in keys:
            lines.append(draw(_case_mix(key)) + draw(_SPACE)
                         + draw(st.sampled_from("=:")) + draw(_SPACE)
                         + draw(_WORDS)
                         + draw(_INLINE))
            lines += draw(_FILLER)
    return "\n".join(lines) + "\n"


def configparser_sections(path):
    """The sections and key texts configparser reads, in file order."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read(path, encoding="utf-8")
    return [(name, list(parser[name].items())) for name in parser.sections()]


class TestScenarioReader:
    @settings(deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=scenario_lines())
    def test_matches_configparser(self, tmp_path, text):
        path = tmp_path / "grammar.scn"
        path.write_text(text, encoding="utf-8")
        sections = harness._read_sections(path)
        assert [(name, list(keys.items())) for name, keys in sections.items()] \
            == configparser_sections(path)

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scn")),
                             ids=lambda p: p.name)
    def test_bundled_scenarios_read_as_configparser_reads_them(self, path):
        sections = harness._read_sections(path)
        assert [(name, list(keys.items())) for name, keys in sections.items()] \
            == configparser_sections(path)

    # Each edit of unprotected_key.scn, the last line equal to bad_line in
    # the edited file, and the error that names that line.
    @pytest.mark.parametrize("old, new, bad_line, message", [
        # configparser folds an indented line into the value before it:
        # t_detect_cycles would read '255\n\n[scan]'.
        (b"[scan]", b"  [scan]", b"  [scan]", "an indented line"),
        (b"dwell_ms = 1.0", b"dwell_ms 1.0", b"dwell_ms 1.0", "no = or :"),
        (b"[scenario]\n", b"seed = 2\n[scenario]\n", b"seed = 2",
         "a key before any [section]"),
        (b"mode = none\n", b"mode = none\n[scan]\npower = 2\n", b"[scan]",
         "repeated section [scan]"),
        (b"power = 1.0", b"power = 1.0\nPower = 2.0", b"Power = 2.0",
         "repeated key [scan] power"),
        # configparser copies [DEFAULT] keys into every section.
        (b"[scenario]\n", b"[DEFAULT]\nseed = 3\n[scenario]\n", b"[DEFAULT]",
         "unknown section [DEFAULT]"),
        (b"key = 10110001\n", b"key = 10110001\n# caf\xe9\n", b"# caf",
         "not UTF-8 text"),
    ])
    def test_malformed_line_exit_code(self, capsys, tmp_path, old, new,
                                      bad_line, message):
        text = (SCENARIOS / "unprotected_key.scn").read_bytes()
        assert text.count(old) == 1
        text = text.replace(old, new)
        path = tmp_path / "unprotected_key.scn"
        path.write_bytes(text)
        (tmp_path / "key8.net").write_bytes((SCENARIOS / "key8.net").read_bytes())
        lineno = text[:text.rindex(bad_line)].count(b"\n") + 1
        with pytest.raises(ConfigError, match=re.escape(f":{lineno}: {message}")):
            load_scenario(path)
        assert cli.main(["attack", "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        assert f"{path}:{lineno}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_percent_is_literal(self, tmp_path):
        # configparser reads %% as % and rejects a lone %.
        path = edited_copy(tmp_path, "unprotected_key", "name = unprotected_key",
                           "name = run%%1%")
        assert load_scenario(path).name == "run%%1%"


class TestRunPipeline:
    def test_unprotected_recovers_full_key(self, tmp_path):
        result = run(small_key_scenario(), out_dir=tmp_path)
        assert result.summary.bits_correct == 8
        assert (tmp_path / "summary.txt").exists()
        assert (tmp_path / "image.pgm").exists()
        assert (tmp_path / "image.csv").exists()
        assert (tmp_path / "counters.csv").exists()
        assert (tmp_path / "defense_log.csv").exists()

    def test_localization_finds_the_set_bits(self):
        # Key 10110001 has ones at logical bits 0, 4, 5, 7 (slices 16, 20,
        # 21, 23 in row 8); the adjacent pair 20/21 merges into a single
        # bright component, so profiling reports three clusters.
        result = run(small_key_scenario())
        located = result.summary.attack_params["localized_sites"].split(";")
        assert len(located) == 3
        assert "16.8" in located and "23.8" in located
        middle = [s for s in located if s not in ("16.8", "23.8")][0]
        assert middle in ("20.8", "21.8")

    def test_repeated_seed_is_byte_identical(self, tmp_path):
        run(small_key_scenario(seed=7), out_dir=tmp_path / "a")
        run(small_key_scenario(seed=7), out_dir=tmp_path / "b")
        for name in ("summary.txt", "image.pgm", "image.csv", "counters.csv",
                     "defense_log.csv"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name

    def test_different_seeds_differ(self, tmp_path):
        r1 = run(small_key_scenario(seed=1))
        r2 = run(small_key_scenario(seed=2))
        assert not np.array_equal(r1.image.amplitudes, r2.image.amplitudes)

    def test_trigger_time_bounded_by_sim_time(self, tmp_path):
        scn = load_scenario(SCENARIOS / "mtd_inter_key.scn")
        scn.scan.__dict__.update(region_um=(0.0, 60.0, 320.0, 110.0))
        result = run(scn)
        assert result.summary.trigger_time_us is not None
        assert result.summary.trigger_time_us <= result.summary.total_sim_time_us

    def test_counters_csv_schema(self, tmp_path):
        run(small_key_scenario(), out_dir=tmp_path)
        lines = (tmp_path / "counters.csv").read_text().splitlines()
        assert lines[0] == "window_index,zero_count,max_pulse,latched"
        first = lines[1].split(",")
        assert len(first) == 4 and first[0] == "0"

    def test_counters_csv_matches_the_log(self, tmp_path):
        result = run(small_key_scenario(), out_dir=tmp_path)
        rows = np.loadtxt(tmp_path / "counters.csv", delimiter=",",
                          skiprows=1, dtype=np.int64, ndmin=2)
        assert np.array_equal(rows, counter_rows(result.sim))
        assert result.summary.windows == len(rows)
        assert result.summary.max_pulse_len == rows[:, 2].max()

    def test_zero_jitter_run_is_finite_and_silent(self):
        scn = load_scenario(SCENARIOS / "unprotected_key.scn")
        scn.sensor["jitter_sigma_ps"] = 0.0
        scn.pinned_tune = TuneValue(16, 2, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(scn)
            sim = result.sim
            factors = np.linspace(1.0, 1.1, 101)
            p0 = sim.sensor.zero_probability(factors)
        assert np.isfinite(p0).all()
        # With no jitter a window is all ones or all zeros.
        counts = counter_rows(sim)[:, 1]
        assert set(np.unique(counts).tolist()) <= {0, 255}
        assert math.isfinite(result.summary.mean_zero_count)


def percent_counters_csv(path, rows):
    """Reference writer: one %-format per row."""
    with open(path, "w") as fh:
        fh.write("window_index,zero_count,max_pulse,latched\n")
        for row in rows.tolist():
            fh.write("%d,%d,%d,%d\n" % tuple(row))


def matches_percent_format(tmp_path, columns):
    """Whether write_counters_csv writes the per-line reference's bytes."""
    write_counters_csv(tmp_path / "new.csv", columns)
    rows = np.column_stack([np.asarray(col, dtype=np.int64) for col in columns])
    percent_counters_csv(tmp_path / "ref.csv", rows)
    return ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


class TestCountersCsv:
    @pytest.mark.parametrize("n, first", [
        (0, 0), (1, 0), (20, 0),
        (30, 0),            # index width 1 -> 2 inside a chunk
        (5000, 0),          # index widths 1..4 across two chunks
        (8, 99_996),        # index width 5 -> 6
        (4100, 999_000),    # index width 6 -> 7 at a chunk edge
    ])
    def test_matches_percent_format(self, tmp_path, n, first):
        rng = np.random.default_rng(n)
        # A t_detect of 1023 gives four-digit counts next to one-digit ones.
        counts = rng.choice([0, 1, 9, 10, 99, 100, 1023], size=n)
        pulses = np.minimum(counts, rng.integers(0, 12, size=n))
        rows = np.column_stack([first + np.arange(n), counts, pulses,
                                rng.integers(0, 2, size=n)]).astype(np.int64)
        assert matches_percent_format(tmp_path, rows.T)

    def test_large_values(self, tmp_path):
        rows = np.array([[2 ** 32 + 5, 0, 0, 1], [7, 2 ** 40, 3, 0]], dtype=np.int64)
        assert matches_percent_format(tmp_path, rows.T)

    def test_negative_values(self, tmp_path):
        rows = np.array([[0, -1, 0, 0], [-12, 3, -2 ** 63, 1]], dtype=np.int64)
        assert matches_percent_format(tmp_path, rows.T)

    @pytest.mark.parametrize("first", [
        3 * CSV_CHUNK_ROWS,  # 12288..16383: one index width, no digit dropped
        9000,                # 9000..13095: the index crosses 10,000
    ])
    def test_zero_count_chunk(self, tmp_path, first):
        zeros = np.zeros(CSV_CHUNK_ROWS, dtype=np.int64)
        latched = np.zeros(CSV_CHUNK_ROWS, dtype=bool)
        assert matches_percent_format(
            tmp_path, (range(first, first + CSV_CHUNK_ROWS), zeros, zeros, latched))

    def test_empty_log(self, tmp_path):
        empty = np.zeros(0, dtype=np.int64)
        assert matches_percent_format(tmp_path, (range(0), empty, empty,
                                                 np.zeros(0, dtype=bool)))
        assert ((tmp_path / "new.csv").read_text()
                == "window_index,zero_count,max_pulse,latched\n")

    @pytest.mark.parametrize("trigger_windows, extra_ps, first", [
        (0, 0, 0),  # latched from window 0
        (1, 0, 0),  # at the end of window 0
        (5, 0, 4),  # at the end of window 4
        (5, 1, 5),  # just after it
    ])
    def test_latched_from_the_trigger(self, tmp_path, trigger_windows,
                                      extra_ps, first):
        # A window is latched when it ends at or after the trigger.
        sim = build_sim(build_key_model(), key=(1, 0, 1, 1, 0, 0, 0, 1),
                        policy=DefensePolicy(mode="none", threshold=300.0))
        advance_for(sim, 10 * sim.window_ps)
        sim.trigger_ps = trigger_windows * sim.window_ps + extra_ps
        columns = sim.counter_columns()
        assert columns[3].tolist() == [i >= first for i in range(10)]
        assert matches_percent_format(tmp_path, columns)

    @pytest.mark.parametrize("name, seed", [
        ("mtd_inter_key", 395),  # latches mid-log
        ("xor_unprotected", 1),
    ])
    def test_run_matches_percent_format(self, tmp_path, name, seed):
        result = run(load_scenario(SCENARIOS / f"{name}.scn", seed), tmp_path)
        sim = result.sim
        counts = window_counts(sim)
        index = np.arange(len(counts))
        # The latched flag as the float trigger time gives it.
        latched = (index + 1) * sim.window_ps >= round(sim.trigger_time_us * 1e6)
        assert 0 < latched.sum() < len(latched)
        rows = np.column_stack([index, counts, sim.counter_columns()[2],
                                latched])
        percent_counters_csv(tmp_path / "ref.csv", rows)
        assert ((tmp_path / "counters.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())


# trigger_time_us of every bundled co-simulated scenario at seed 1.  The
# window counts are binomial draws from the scenario's sensor stream at the
# tuned operating point (data=14 clock=0 select=3 at seed 1); these values
# were recorded from that stream, so a change to the count model, its
# stream or the tune shows here.
SEED1_TRIGGER_US = {
    "unprotected_key": 238039.95,
    "mtd_inter_key": 238039.95,
    "mtd_intra_key": 238039.95,
    "xor_unprotected": 8017.2,
    "xor_polymorphic": 8017.2,
    "eop_shift": None,
}


@pytest.mark.parametrize("name", sorted(SEED1_TRIGGER_US))
def test_seed1_trigger_times(name):
    result = run(load_scenario(SCENARIOS / f"{name}.scn", 1))
    assert result.summary.trigger_time_us == SEED1_TRIGGER_US[name]


class TestThresholdAndResources:
    def test_derived_threshold_clears_idle_support(self):
        sensor = SensorInstance(tune=TuneValue(16, 2, 2))
        thr = derive_threshold(sensor, seed=1)
        p0 = sensor.zero_probability(1.0)
        # Idle windows essentially never reach the threshold.
        lam = 255 * p0
        assert thr >= 2
        assert 1 - math.exp(-lam ** thr) < 1e-3

    def test_resources_default_sensor(self):
        scn = small_key_scenario()
        model = load_netlist(scn.netlist_path)
        sensor = SensorInstance(chain_len=8)
        policy = DefensePolicy(mode="none")
        res = report_resources(model, sensor, policy)
        assert res["sensor_luts"] == 1
        assert res["sensor_delay_elements"] == 9
        assert res["sensor_ffs"] == 1
        assert res["defense_region_ff_slots"] == 0

    def test_region_slot_accounting(self):
        scn = load_scenario(SCENARIOS / "mtd_inter_key.scn")
        model = load_netlist(scn.netlist_path)
        sensor = SensorInstance()
        policy = DefensePolicy(**scn.defense)
        res = report_resources(model, sensor, policy)
        assert res["defense_region_slices"] == 45
        assert res["defense_region_ff_slots"] == 45 * 4

    def test_resources_after_a_capacity_fallback(self, tmp_path):
        # Slices 15,8 and 16,8 hold 8 slots for the 8 bits, but the sensor's
        # slice is excluded at the trigger, so the relocation falls back to
        # zeroize.  The resources still count the configured region.
        path = edited_copy(tmp_path, "mtd_inter_key", "allowed_region = 26,4,30,12",
                           "allowed_region = 15,8,16,8")
        result = run(load_scenario(path))
        assert result.sim.trigger_time_us is not None
        assert result.sim.policy.mode == "zeroize"
        assert result.summary.resources["defense_region_slices"] == 2
        assert result.summary.resources["defense_region_ff_slots"] == 8

    def test_eight_loc_region_capacity(self):
        # Eight reconfigurable slices at four FF slots each: 32 slots.
        from probesim.defense import region_slices
        scn = load_scenario(SCENARIOS / "mtd_inter_key.scn")
        model = load_netlist(scn.netlist_path)
        policy = DefensePolicy(mode="mtd_inter",
                               allowed_region=region_slices(26, 4, 29, 5))
        res = report_resources(model, SensorInstance(), policy)
        assert res["defense_region_slices"] == 8
        assert res["defense_region_ff_slots"] == 8 * model.ffs_per_slice == 32


class TestStability:
    def test_zero_jitter_means_zero_counts(self):
        sensor = SensorInstance(jitter_sigma_ps=0.0, tune=TuneValue(16, 2, 2))
        spec = StabilitySpec(duration_min=1.0, log_every_ms=100.0)
        report = stability_test(sensor, threshold=3.0, seed=1, spec=spec)
        assert report.max_zero_count == 0
        assert report.triggered is False
        assert report.mean_zero_count == 0.0

    def test_idle_run_stays_quiet(self):
        sensor = SensorInstance(tune=TuneValue(16, 2, 3))
        spec = StabilitySpec(duration_min=30.0, drift_sigma_ps=1.5)
        thr = derive_threshold(sensor, seed=1)
        report = stability_test(sensor, thr, seed=1, spec=spec)
        assert report.triggered is False
        assert report.mean_zero_count < 1.0

    def test_rolling_max_over_full_kernels(self):
        # At seed 16 the first log reads one zero; its one-log average of
        # 1.0 stays in the logged series but no longer sets rolling_max.
        report = run(load_scenario(SCENARIOS / "stability.scn", 16)).stability
        rolling = report.series[:, 3]
        assert rolling[0] == 1.0
        assert report.rolling_max == rolling[99:].max() < 1.0

    def test_rolling_max_of_a_run_shorter_than_the_kernel(self):
        # Only the last entry, the average over every log, counts.
        sensor = SensorInstance(tune=TuneValue(16, 2, 3))
        spec = StabilitySpec(duration_min=1.0, rolling_window=100)
        report = stability_test(sensor, 3.0, seed=16, spec=spec)
        assert report.n_logs == 60
        assert report.rolling_max == report.series[-1, 3]
        assert report.rolling_max == pytest.approx(report.mean_zero_count)

    def test_report_csv(self, tmp_path):
        sensor = SensorInstance(tune=TuneValue(16, 2, 3))
        spec = StabilitySpec(duration_min=2.0)
        report = stability_test(sensor, 3.0, seed=2, spec=spec)
        report.to_csv(tmp_path / "drift.csv")
        lines = (tmp_path / "drift.csv").read_text().splitlines()
        assert lines[0] == "t_us,zero_count,running_max,rolling_avg"
        assert len(lines) == 1 + report.n_logs


class TestBatch:
    def test_duplicate_scenario_names_rejected(self, tmp_path):
        paths = [SCENARIOS / "stability.scn", SCENARIOS / "stability.scn"]
        with pytest.raises(ConfigError, match="stability"):
            run_batch(paths, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_duplicate_scenario_names_exit_code(self, capsys, tmp_path):
        path = str(SCENARIOS / "stability.scn")
        rc = cli.main(["batch", "--scenario", path, "--scenario", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("file_name, name", [
        ("e.scn", "../escaped"), ("e.scn", "inner/deeper"), ("e.scn", ".."),
        ("e.scn", "."), ("e.scn", "back\\slash"),
        # With no name line, the file name "...scn" would name it "..".
        ("...scn", None),
    ])
    def test_name_with_a_path_exit_code(self, capsys, tmp_path, file_name,
                                        name):
        text = (SCENARIOS / "eop_shift.scn").read_text()
        assert text.count("name = eop_shift\n") == 1
        path = tmp_path / file_name
        path.write_text(text.replace("name = eop_shift\n",
                                     "" if name is None else f"name = {name}\n"))
        (tmp_path / "shift8.net").write_text(
            (SCENARIOS / "shift8.net").read_text())
        rc = cli.main(["batch", "--scenario", str(path),
                       "--out", str(tmp_path / "runs" / "inner")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "[scenario] name" in err
        assert not (tmp_path / "runs").exists()


def fail(*args):
    raise AssertionError("repeated work was done again")


def forbid_arming_and_draws(monkeypatch):
    """Make a tune, a threshold derivation, a window draw or a max-pulse
    draw fail the test: a run that repeats an earlier one reads all four
    from the caches."""
    monkeypatch.setattr(harness, "tune_sensor", fail)
    monkeypatch.setattr(harness, "derive_threshold", fail)
    monkeypatch.setattr(cosim.CoSimulation, "_stretch_p0", fail)
    monkeypatch.setattr(cosim, "window_pulses", fail)


class TestRunCaches:
    @pytest.mark.parametrize("first, second", [
        ("unprotected_key", "mtd_inter_key"), ("mtd_inter_key", "mtd_intra_key"),
        ("xor_unprotected", "xor_polymorphic")])
    @pytest.mark.parametrize("seed", [1, 70])
    def test_a_cached_run_matches_a_fresh_one(self, tmp_path, monkeypatch,
                                              first, second, seed):
        # The scenarios of a pair scan with one sensor, so the second arms
        # and draws nothing after the first, and writes the bytes a fresh
        # process writes.  At seed 70 the key scenarios trigger in an early
        # chunk of the raster.
        run(load_scenario(SCENARIOS / f"{first}.scn", seed))
        with monkeypatch.context() as patch:
            forbid_arming_and_draws(patch)
            hit = run(load_scenario(SCENARIOS / f"{second}.scn", seed),
                      tmp_path / "hit")
        clear_caches()
        fresh = run(load_scenario(SCENARIOS / f"{second}.scn", seed),
                    tmp_path / "fresh")
        assert np.array_equal(window_counts(hit.sim), window_counts(fresh.sim))
        assert hit.sim.trigger_ps == fresh.sim.trigger_ps is not None
        names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "hit").iterdir())
        for name in names:
            assert filecmp.cmp(tmp_path / "hit" / name, tmp_path / "fresh" / name,
                               shallow=False), name

    @pytest.mark.parametrize("seed", [1, 70])
    def test_a_stream_hit_copies_nothing(self, tmp_path, monkeypatch, seed):
        # The raster of mtd_inter_key is unprotected_key's: the hit's record
        # holds the stored arrays themselves, and its mean and max count and
        # counters.csv are a fresh draw's.  At seed 70 mtd_inter_key
        # triggers in an early chunk of that one entry.
        run_named("unprotected_key", seed)
        (stored, *_), = cosim.STREAM_CACHE.values()
        with monkeypatch.context() as patch:
            patch.setattr(cosim.CoSimulation, "_stretch_p0", fail)
            hit = run_named("mtd_inter_key", seed, tmp_path / "hit")
        (entry,) = hit.sim.record
        assert entry is stored
        assert all(part is kept for part, kept in zip(entry, stored))
        clear_caches()
        fresh = run_named("mtd_inter_key", seed, tmp_path / "fresh")
        assert hit.sim.trigger_ps == fresh.sim.trigger_ps is not None
        for rng in ("sensor_rng", "pulse_rng"):
            assert (getattr(hit.sim, rng).bit_generator.state
                    == getattr(fresh.sim, rng).bit_generator.state), rng
        assert hit.summary.mean_zero_count == fresh.summary.mean_zero_count
        assert hit.summary.max_zero_count == fresh.summary.max_zero_count
        assert hit.summary.max_pulse_len == fresh.summary.max_pulse_len
        assert filecmp.cmp(tmp_path / "hit" / "counters.csv",
                           tmp_path / "fresh" / "counters.csv", shallow=False)

    def test_each_arming_input_misses(self, monkeypatch):
        scn = load_scenario(SCENARIOS / "mtd_intra_key.scn")
        tuned = []
        tune_sensor = harness.tune_sensor

        def recorded(scn, sensor):
            tuned.append(scn)
            return tune_sensor(scn, sensor)

        monkeypatch.setattr(harness, "tune_sensor", recorded)
        armed = harness.arm_sensor(scn, harness.build_sensor(scn))
        sensor = harness.build_sensor(scn)
        assert harness.arm_sensor(scn, sensor) == armed and tuned == [scn]
        assert sensor.tune == armed[0]  # probesim tune reads it
        for name, change in [
                ("sensor", dict(sensor={**scn.sensor, "jitter_sigma_ps": 16.0})),
                ("seed", dict(seed=2)), ("t_sense_ms", dict(t_sense_ms=50.0)),
                ("t_detect", dict(t_detect=127)),
                ("pinned_tune", dict(pinned_tune=armed[0])),
                ("threshold", dict(defense={**scn.defense, "threshold": 7.0})),
                ("characterize_windows", dict(characterize_windows=500))]:
            changed = dataclasses.replace(scn, **change)
            harness.arm_sensor(changed, harness.build_sensor(changed))
            assert tuned[-1] is changed, name

    def test_tune_command_after_a_run(self, capsys, monkeypatch):
        # probesim tune prints the ambient slack of the sensor's tune, which
        # a cached arming sets as a tune does.
        path = str(SCENARIOS / "mtd_intra_key.scn")
        assert cli.main(["tune", "--scenario", path]) == 0
        tuned = capsys.readouterr().out
        forbid_arming_and_draws(monkeypatch)
        assert cli.main(["tune", "--scenario", path]) == 0
        assert capsys.readouterr().out == tuned

    def test_a_failed_arming_is_not_kept(self, tmp_path):
        path = edited_copy(tmp_path, "stability", "tune = 16,2,3", "tune = 16,2,9")
        for _ in range(2):
            with pytest.raises(ConfigError, match="LUT select 9"):
                run(load_scenario(path))
        assert not harness.ARM_CACHE


def run_named(name, seed, out_dir=None):
    return run(load_scenario(SCENARIOS / f"{name}.scn", seed), out_dir)


class TestLogCache:
    @pytest.mark.parametrize("names", [
        ("unprotected_key", "mtd_inter_key", "mtd_intra_key"),
        ("xor_unprotected", "xor_polymorphic")])
    @pytest.mark.parametrize("seed", [1, 70])
    def test_a_kept_log_matches_a_fresh_run(self, tmp_path, monkeypatch,
                                            names, seed):
        # The scenarios of a group write one counter log: the first draws
        # and formats it, and the others draw and format nothing and write
        # what a fresh process writes.
        first = run_named(names[0], seed, tmp_path / "kept" / names[0])
        log = (tmp_path / "kept" / names[0] / "counters.csv").read_bytes()
        assert kept_logs() == [log]
        hits = {}
        with monkeypatch.context() as patch:
            forbid_arming_and_draws(patch)
            patch.setattr(harness, "write_counters_csv", fail)
            patch.setattr(cosim.CoSimulation, "counter_columns", fail)
            for name in names[1:]:
                hits[name] = run_named(name, seed, tmp_path / "kept" / name)
        assert kept_logs() == [log]
        for name, hit in hits.items():
            clear_caches()
            fresh = run_named(name, seed, tmp_path / "fresh" / name)
            assert ((tmp_path / "kept" / name / "counters.csv").read_bytes()
                    == (tmp_path / "fresh" / name / "counters.csv").read_bytes()
                    == log), name
            assert (hit.sim.pulse_rng.bit_generator.state
                    == fresh.sim.pulse_rng.bit_generator.state), name
            assert (hit.summary.max_pulse_len == fresh.summary.max_pulse_len
                    == first.summary.max_pulse_len > 1), name

    def test_each_log_input_misses(self, tmp_path, formats):
        # Another seed redraws every count, a scan at another power moves
        # the counts, and another threshold moves the trigger window alone;
        # each formats its log afresh.
        scn = load_scenario(SCENARIOS / "xor_unprotected.scn")
        for name, changed in [
                ("seed", load_scenario(SCENARIOS / "xor_unprotected.scn", 2)),
                ("counts", dataclasses.replace(
                    scn, scan=dataclasses.replace(scn.scan, power=0.9))),
                ("threshold", dataclasses.replace(
                    scn, defense={**scn.defense, "threshold": 9.0}))]:
            base = run(scn, tmp_path / "base").sim  # the base log, kept
            formatted = len(formats)
            other = run(changed, tmp_path / name).sim
            assert len(formats) == formatted + 1, name
            assert kept_logs() == [
                (tmp_path / name / "counters.csv").read_bytes()], name
            assert len(window_counts(other)) == len(window_counts(base)), name
            assert (np.array_equal(window_counts(other), window_counts(base))
                    == (name == "threshold")), name
        assert other.trigger_ps != base.trigger_ps  # the threshold, last

    def test_a_run_without_out_dir_formats_no_log(self, tmp_path, monkeypatch,
                                                  formats):
        # It neither builds the log's columns nor fills the log cache, so a
        # later run of the same log formats it.
        with monkeypatch.context() as patch:
            patch.setattr(harness, "write_counters_csv", fail)
            patch.setattr(cosim.CoSimulation, "counter_columns", fail)
            run_named("xor_unprotected", 1)
        assert not harness.LOG_CACHE
        run_named("xor_polymorphic", 1, tmp_path)
        assert formats == [0]
        assert kept_logs() == [(tmp_path / "counters.csv").read_bytes()]

    def test_a_miss_drops_the_last_log_before_it_formats(self, tmp_path,
                                                         formats):
        run_named("xor_unprotected", 1, tmp_path / "last")
        assert len(harness.LOG_CACHE) == 1
        run_named("mtd_intra_key", 1, tmp_path / "new")
        assert formats == [0, 0]
        assert kept_logs() == [(tmp_path / "new" / "counters.csv").read_bytes()]

    def test_a_body_over_the_bound_is_written_and_not_kept(self, tmp_path,
                                                           monkeypatch,
                                                           formats):
        run_named("xor_unprotected", 1, tmp_path / "sized")
        size = (tmp_path / "sized" / "counters.csv").stat().st_size
        for bound, kept in [(size - 1, False), (size, True)]:
            clear_caches()
            monkeypatch.setattr(harness, "LOG_BODY_BYTES", bound)
            formatted = len(formats)
            run_named("xor_unprotected", 1, tmp_path / f"{bound}")
            assert len(harness.LOG_CACHE) == kept
            run_named("xor_polymorphic", 1, tmp_path / f"{bound}-hit")
            assert len(formats) == formatted + 2 - kept
            for out in (f"{bound}", f"{bound}-hit"):
                assert filecmp.cmp(tmp_path / "sized" / "counters.csv",
                                   tmp_path / out / "counters.csv",
                                   shallow=False)

    def test_fills_every_cache(self, tmp_path):
        # The test after this one starts with the caches this run fills
        # emptied by the autouse fixture.
        run_named("xor_unprotected", 1, tmp_path)
        assert harness.ARM_CACHE and cosim.STREAM_CACHE and harness.LOG_CACHE

    def test_starts_with_every_cache_empty(self):
        assert not (harness.ARM_CACHE or cosim.STREAM_CACHE
                    or harness.LOG_CACHE)


@pytest.mark.parametrize("name, drawn", [("unprotected_key", True),
                                         ("xor_unprotected", True),
                                         ("eop_shift", False)])
def test_a_run_draws_its_pulses_as_one_log(name, drawn):
    # The key raster, the five XOR rasters and eop_shift's two holds: each
    # schedule draws the pulses of its non-zero windows after them, and
    # together they are the pulses of one draw over the whole log.  Only
    # a count between 1 and the window draws a uniform; eop_shift's holds
    # count at most one zero per window at seed 1.
    sim = run_named(name, 1).sim
    pulses = assert_pulses_of_one_draw(sim, seed=1)
    assert ((pulses > 1) & (pulses < sim.t_detect)).any() == drawn


def traced_run(name, seed):
    """A run without artifacts under tracemalloc, after a first run that
    fills the lazy tables, with the caches then emptied; returns the run
    and the traced memory it holds when it returns and at its peak."""
    run_named(name, seed)
    clear_caches()
    tracemalloc.start()
    try:
        result = run_named(name, seed)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_peak_memory_of_an_eofm_function_run():
    # The record of xor_unprotected's five rasters holds their non-zero
    # windows alone, and the run's peak traced memory stays below the
    # 2.25 MB that a doubled dense count buffer once took.
    result, _, peak = traced_run("xor_unprotected", 1)
    assert len(result.sim.record) == 5
    assert result.sim.windows_done == 62_745
    assert peak < 2.25e6


def test_memory_held_by_an_eofm_function_run():
    # A run without out_dir builds no dense counter log columns: what it
    # holds when it returns is its record, its image and the caches it
    # filled, not 17 bytes for each of its 62,745 windows.
    result, held, _ = traced_run("xor_unprotected", 1)
    assert result.sim.windows_done == 62_745
    assert held < 0.3e6


@pytest.mark.parametrize("name", ["eop_shift", "mtd_inter_key"])
def test_a_profiled_run_writes_a_plain_runs_bytes(tmp_path, name):
    # Under a profile or trace function (cProfile, pdb, a coverage tracer)
    # numpy's reference check of an in-place resize fails; the window draw
    # skips it, and a run writes a plain run's bytes.
    run_named(name, 1, tmp_path / "plain")
    clear_caches()
    sys.setprofile(lambda *args: None)
    try:
        run_named(name, 1, tmp_path / "profiled")
    finally:
        sys.setprofile(None)
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "profiled").iterdir())
    for file in names:
        assert filecmp.cmp(tmp_path / "plain" / file,
                           tmp_path / "profiled" / file, shallow=False), file


def function_copy(tmp_path, vectors, region_um):
    """A copy of xor_unprotected.scn at 1 ns dwells that rasters the
    region once per vector, each vector 5,10."""
    text = (SCENARIOS / "xor_unprotected.scn").read_text()
    text = text.replace("dwell_ms = 1.0", "dwell_ms = 0.000001").replace(
        "vectors = 0,0;15,0;0,15;15,15;5,10",
        "vectors = " + ";".join(["5,10"] * vectors)).replace(
        "region_um = 160,40,200,120", "region_um = " + region_um)
    path = tmp_path / "xor_unprotected.scn"
    path.write_text(text)
    (tmp_path / "xor4.net").write_text((SCENARIOS / "xor4.net").read_text())
    return path


def forbid_tuning(monkeypatch):
    """Make a sensor tune fail the test: a rule checked before any work
    never reaches it."""
    def tune_sensor(*args):
        raise AssertionError("the sensor was tuned before the rule was checked")

    monkeypatch.setattr(harness, "tune_sensor", tune_sensor)


def edited_copy(tmp_path, scenario, line, bad) -> Path:
    """A copy of a bundled scenario, and its netlist, with one line changed,
    or with each of a tuple of lines changed to the bad line of the same
    place in a tuple of them."""
    text = (SCENARIOS / f"{scenario}.scn").read_text()
    edits = zip(line, bad, strict=True) if isinstance(line, tuple) else [(line, bad)]
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / f"{scenario}.scn"
    path.write_text(text)
    netlist = load_scenario(SCENARIOS / f"{scenario}.scn").netlist_path
    (tmp_path / netlist.name).write_text(netlist.read_text())
    return path


def run_edited(capsys, tmp_path, command, scenario, line, bad):
    """Run the CLI on a copy of a bundled scenario with one line changed,
    or several (see edited_copy).

    Returns the exit code, stderr and the ``[section] key`` that the
    changed line, or the first of them, sets.
    """
    path = edited_copy(tmp_path, scenario, line, bad)
    if isinstance(line, tuple):
        line, bad = line[0], bad[0]
    text = (SCENARIOS / f"{scenario}.scn").read_text()
    rc = cli.main([command, "--scenario", str(path),
                   "--out", str(tmp_path / "out")])
    section = re.findall(r"^\[(\w+)\]", text[:text.index(line)], re.M)[-1]
    return rc, capsys.readouterr().err, f"[{section}] {bad.split('=')[0].strip()}"


class TestCli:
    def test_config_error_exit_code(self, capsys):
        assert cli.main(["attack", "--scenario", "/missing.scn"]) == 2

    def test_tune_command(self, capsys, tmp_path):
        rc = cli.main(["tune", "--scenario",
                       str(SCENARIOS / "stability.scn"),
                       "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tune:" in out and "trigger_threshold:" in out
        assert (tmp_path / "summary.txt").exists()
        # The oscillator sweep against one %-format per line.
        sensor = SensorInstance(**load_scenario(SCENARIOS / "stability.scn").sensor)
        ref = ["code,period_ns\n"] + [
            "%d,%.6f\n" % (code, ro_calibration(
                code, sensor.chain_len, per_tap_ps=sensor.per_tap_ps,
                base_ps=sensor.element_base_ps))
            for code in range(2 ** chain_code_bits(sensor.chain_len))]
        assert (tmp_path / "ro_calibration.csv").read_text() == "".join(ref)

    def test_stability_command(self, capsys):
        rc = cli.main(["stability", "--scenario",
                       str(SCENARIOS / "stability.scn")])
        assert rc == 0
        assert "stability_triggered: False" in capsys.readouterr().out

    def test_stability_command_rejects_wrong_kind(self, capsys):
        rc = cli.main(["stability", "--scenario",
                       str(SCENARIOS / "eop_shift.scn")])
        assert rc == 2

    @pytest.mark.parametrize("scenario, kind", [
        ("unprotected_key", "eofm_key"), ("xor_unprotected", "eofm_function"),
        ("eop_shift", "eop"), ("stability", "stability")])
    @pytest.mark.parametrize("command", ["eofm", "eop", "attack", "stability"])
    def test_run_command_accepts_its_kinds(self, capsys, tmp_path, command,
                                           scenario, kind):
        rc = cli.main([command, "--scenario", str(SCENARIOS / f"{scenario}.scn"),
                       "--out", str(tmp_path / "out")])
        accepted = {"eofm": kind.startswith("eofm"), "eop": kind == "eop",
                    "attack": True, "stability": kind == "stability"}[command]
        assert rc == (0 if accepted else 2)
        assert (tmp_path / "out" / "summary.txt").exists() == accepted
        if not accepted:
            assert f"scenario has {kind}" in capsys.readouterr().err

    def test_stability_false_positive_exit_code(self, capsys, tmp_path):
        # At threshold 1 the first idle log with a zero triggers.
        path = str(edited_copy(tmp_path, "stability", "threshold = auto",
                               "threshold = 1"))
        assert cli.main(["stability", "--scenario", path]) == 5
        assert "stability FAILURE: false-positive trigger" in capsys.readouterr().out
        # attack runs the same scenario and reports the trigger only.
        assert cli.main(["attack", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert "stability_triggered: True" in out and "FAILURE" not in out

    def test_tune_reports_the_pinned_threshold(self, capsys, tmp_path):
        # tune arms the sensor as a run does: the scenario's threshold, not
        # the derived one.
        path = str(edited_copy(tmp_path, "mtd_intra_key", "threshold = auto",
                               "threshold = 7"))
        assert cli.main(["tune", "--scenario", path,
                         "--out", str(tmp_path / "out")]) == 0
        tuned = capsys.readouterr().out
        assert "trigger_threshold: 7\n" in tuned
        assert "trigger_threshold: 7\n" in (tmp_path / "out" / "summary.txt").read_text()
        assert cli.main(["attack", "--scenario", path]) == 0
        ran = capsys.readouterr().out
        assert tuned.splitlines()[0] in ran.splitlines()  # the tune line
        assert "trigger_threshold: 7\n" in ran

    def test_tune_checks_the_netlist_rules(self, capsys, tmp_path):
        # tune loads the netlist as a run does: a sensor site off key8.net's
        # 32x16 grid exits 2 before any tuning.
        path = str(edited_copy(tmp_path, "stability", "site = 15,8",
                               "site = 99,99"))
        for command in ("tune", "stability"):
            assert cli.main([command, "--scenario", path]) == 2
            captured = capsys.readouterr()
            assert "[sensor] site must be" in captured.err
            assert "tune:" not in captured.out

    def test_batch_reports_a_stability_false_positive(self, capsys, tmp_path):
        # The idle run has no trigger time; batch shows its false positive
        # from the summary's stability fields and still exits 0.
        path = str(edited_copy(tmp_path, "stability", "threshold = auto",
                               "threshold = 1"))
        assert cli.main(["batch", "--scenario", path,
                         "--out", str(tmp_path / "runs")]) == 0
        assert capsys.readouterr().out == "stability: trigger=false-positive\n"
        summary = (tmp_path / "runs" / "stability" / "summary.txt").read_text()
        assert "trigger_time_us: none\n" in summary
        assert "stability_triggered: True\n" in summary

    def test_attack_command_writes_artifacts(self, capsys, tmp_path):
        rc = cli.main(["attack", "--scenario",
                       str(SCENARIOS / "eop_shift.scn"),
                       "--out", str(tmp_path), "--seed", "3"])
        assert rc == 0
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "trace_s2.csv").exists()
        assert (tmp_path / "trace_s5.csv").exists()

    def test_batch_command(self, capsys, tmp_path):
        rc = cli.main(["batch", "--scenario", str(SCENARIOS / "stability.scn"),
                       "--scenario", str(SCENARIOS / "eop_shift.scn"),
                       "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stability: trigger=-\n" in out and "eop_shift:" in out

    def test_tuning_failure_exit_code(self, capsys, tmp_path):
        # A chain far too slow to match the data path never finds a boundary.
        text = (SCENARIOS / "eop_shift.scn").read_text()
        text = text.replace("[sensor]", "[sensor]\nelement_base_ps = 50000")
        bad = tmp_path / "untunable.scn"
        bad.write_text(text)
        (tmp_path / "shift8.net").write_text(
            (SCENARIOS / "shift8.net").read_text())
        assert cli.main(["attack", "--scenario", str(bad)]) == 3

    @pytest.mark.parametrize("command, scenario, line, bad", [
        ("eop", "eop_shift", "resolution_ps = 100", "resolution_ps = 0"),
        ("eop", "eop_shift", "resolution_ps = 100", "resolution_ps = -100"),
        ("eop", "eop_shift", "resolution_ps = 100", "resolution_ps = 500000"),
        ("eop", "eop_shift", "duration_cycles = 24", "duration_cycles = 0"),
        ("eop", "eop_shift", "duration_cycles = 24",
         "duration_cycles = 1000001"),
        # 1,000 cycles at 1 ps would be 10 million samples.
        ("eop", "eop_shift", "duration_cycles = 24\nresolution_ps = 100",
         "resolution_ps = 1\nduration_cycles = 1000"),
        ("eop", "eop_shift", "iterations = 10000", "iterations = 0"),
        ("eop", "eop_shift", "noise_sigma = 1.0", "noise_sigma = -1.0"),
        ("eop", "eop_shift", "\npower = 1.0", "\npower = -1.0"),
        ("attack", "xor_unprotected", "\npower = 1.0", "\npower = -1.0"),
        ("attack", "xor_unprotected", "psf_sigma_um = 4.0", "psf_sigma_um = 0"),
        ("attack", "xor_unprotected", "spot_sigma_um = 8.0",
         "spot_sigma_um = 0"),
        ("attack", "xor_unprotected", "noise_sigma = 0.04",
         "noise_sigma = -0.04"),
        ("attack", "xor_unprotected", "dwell_ms = 1.0", "dwell_ms = 0"),
        ("attack", "xor_unprotected", "pixel_pitch_um = 10.0",
         "pixel_pitch_um = 0"),
        ("attack", "xor_unprotected", "pixel_pitch_um = 10.0",
         "pixel_pitch_um = nan"),
        ("attack", "xor_unprotected", "target_freq_mhz = 1.25",
         "target_freq_mhz = 0"),
        ("attack", "unprotected_key", "bit_threshold = 0.35",
         "bit_threshold = nan"),
        ("eop", "eop_shift", "seed = 1", "seed = -3"),
        ("eop", "eop_shift", "tau_us = 50.0", "tau_us = 0"),
        # A peak rise, power * power_to_rate_k_per_us * tau_us, of inf: the
        # window stream's relax() would take inf - inf.  An eop run heats
        # with [eop] power.
        ("attack", "mtd_inter_key",
         ("power_to_rate_k_per_us = 0.4", "tau_us = 50.0"),
         ("power_to_rate_k_per_us = 1e300", "tau_us = 1e300")),
        ("eop", "eop_shift", ("power_to_rate_k_per_us = 0.4", "\npower = 1.0"),
         ("power_to_rate_k_per_us = 1e300", "\npower = 1e10")),
        # alpha_per_k * the rise of inf (an overflow in _stretch_p0, or a
        # trigger in the first window); and of 2e307, finite, but the race's
        # heated share, that times a 3,369 ps path, is not.
        ("attack", "mtd_inter_key", ("alpha_per_k = 0.002", "tau_us = 50.0"),
         ("alpha_per_k = 1e300", "tau_us = 1e300")),
        ("attack", "mtd_inter_key",
         ("alpha_per_k = 0.002", "power_to_rate_k_per_us = 0.4"),
         ("alpha_per_k = 1e300", "power_to_rate_k_per_us = 1e300")),
        ("attack", "mtd_inter_key", "alpha_per_k = 0.002", "alpha_per_k = 1e306"),
        ("eop", "eop_shift", "program = shift", "program = shfit"),
        ("attack", "mtd_inter_key", "threshold = auto", "threshold = 0"),
        ("attack", "mtd_inter_key", "threshold = auto", "threshold = 300"),
        ("attack", "mtd_inter_key", "threshold = auto", "threshold = nan"),
        # Vectors must fit the two 4-net operand groups.
        ("attack", "xor_unprotected", "vectors = 0,0;15,0;0,15;15,15;5,10",
         "vectors = 99,0"),
        ("attack", "xor_unprotected", "vectors = 0,0;15,0;0,15;15,15;5,10",
         "vectors = 0,0,3;15"),
        # 2 sigma**2 underflows to 0: a NaN temperature, or a NaN image.
        ("attack", "mtd_inter_key", "spot_sigma_um = 8.0",
         "spot_sigma_um = 1e-200"),
        ("attack", "mtd_inter_key", "psf_sigma_um = 4.0",
         "psf_sigma_um = 1e-200"),
        # sigma**2 overflows a float64.
        ("attack", "unprotected_key", "spot_sigma_um = 8.0",
         "spot_sigma_um = 1e300"),
        ("attack", "unprotected_key", "psf_sigma_um = 4.0",
         "psf_sigma_um = 1e300"),
        # Only an eop run drives a shift pattern.
        ("attack", "unprotected_key", "program = reset_toggle",
         "program = shift"),
        # Far more than 65,536 pixels over the scanned region.
        ("attack", "mtd_inter_key", "pixel_pitch_um = 10.0",
         "pixel_pitch_um = 1e-300"),
        ("attack", "xor_unprotected", "pixel_pitch_um = 10.0",
         "pixel_pitch_um = 0.1"),
        ("attack", "xor_unprotected", "region_um = 160,40,200,120",
         "region_um = 0,0,320,30000"),
        # Off the 320 x 160 um fabric of key8.net and xor4.net; rejected
        # once the netlist is loaded, before the sensor is tuned.
        ("attack", "unprotected_key", "region_um = 0,0,320,160",
         "region_um = 0,0,400,160"),
        ("attack", "xor_unprotected", "region_um = 160,40,200,120",
         "region_um = -10,40,200,120"),
        # A dwell that rounds to 0 ps.
        ("attack", "mtd_inter_key", "dwell_ms = 1.0", "dwell_ms = 1e-12"),
        # Sensor windows past MAX_WINDOWS: 2e14 over 512 pixels, and 6.3e7
        # over five rasters of 32 pixels, one per function vector.
        ("attack", "mtd_inter_key", "dwell_ms = 1.0", "dwell_ms = 1e9"),
        ("attack", "xor_unprotected", "dwell_ms = 1.0", "dwell_ms = 1000"),
        # A dwell whose length in ps overflows when it is rounded to an int.
        ("attack", "unprotected_key", "dwell_ms = 1.0", "dwell_ms = 1e300"),
        # 1.9e12 windows; and 3.8e7, over the bound only through the two
        # probe cells.
        ("eop", "eop_shift", "iterations = 10000",
         "iterations = 10000000000000"),
        ("eop", "eop_shift", "iterations = 10000", "iterations = 200000000"),
        # Above half the 100 MHz sensor clock.
        ("attack", "unprotected_key", "target_freq_mhz = 1.25",
         "target_freq_mhz = 60"),
        # A toggle every 1.67 cycles of the 100 MHz sensor clock.
        ("attack", "unprotected_key", "target_freq_mhz = 1.25",
         "target_freq_mhz = 30"),
        # Stimulus periods past MAX_STIMULUS_PERIOD: reset toggles of
        # 10,002, 100,000 and 1e8 cycles at the 100 MHz sensor clock, and a
        # shift pattern of 10,001 bits.
        ("attack", "unprotected_key", "target_freq_mhz = 1.25",
         "target_freq_mhz = 0.0099980004"),
        ("attack", "unprotected_key", "target_freq_mhz = 1.25",
         "target_freq_mhz = 0.001"),
        ("attack", "unprotected_key", "target_freq_mhz = 1.25",
         "target_freq_mhz = 1e-6"),
        # A half period that overflows to inf.
        ("attack", "unprotected_key", "target_freq_mhz = 1.25",
         "target_freq_mhz = 1e-310"),
        pytest.param("eop", "eop_shift", "pattern = 10110001",
                     "pattern = " + "10" * 5000 + "1",
                     id="eop-eop_shift-pattern of 10001 bits"),
        # A pitch over the region's shorter side, 160 um and 40 um: at
        # 1e300 the pixel centers lie so far off the fabric that their
        # squared distances overflow.
        ("attack", "mtd_inter_key", "pixel_pitch_um = 10.0",
         "pixel_pitch_um = 1e300"),
        ("attack", "xor_unprotected", "pixel_pitch_um = 10.0",
         "pixel_pitch_um = 40.5"),
        # Vectors past MAX_VECTORS.
        pytest.param("attack", "xor_unprotected",
                     "vectors = 0,0;15,0;0,15;15,15;5,10",
                     "vectors = " + ";".join(["5,10"] * (MAX_VECTORS + 1)),
                     id=f"attack-xor_unprotected-{MAX_VECTORS + 1} vectors"),
        # One probe cell listed twice.
        ("eop", "eop_shift", "probe_cells = s2,s5", "probe_cells = s2,s2"),
        # Names the netlist does not have, rejected once it is loaded: a
        # cell, a flip-flop and an external input of shift8.net and
        # xor4_poly.net, and a key of 3 bits for the 8 of key8.net.
        ("eop", "eop_shift", "probe_cells = s2,s5", "probe_cells = s2,nosuch"),
        ("attack", "xor_polymorphic", "output_cells = cf0,cf1,cf2,cf3",
         "output_cells = cf0,cf1,cf2,nosuch"),
        ("attack", "xor_polymorphic",
         "operand_nets = a0,a1,a2,a3;b0,b1,b2,b3",
         "operand_nets = a0,a1,a2,a3;b0,b1,b2,zz"),
        ("attack", "unprotected_key", "key = 10110001", "key = 101"),
    ])
    def test_bad_probe_input_exit_code(self, capsys, tmp_path, monkeypatch,
                                       command, scenario, line, bad):
        # Each is rejected before any work: while the scenario is decoded,
        # or once the netlist gives the fabric, its cells and its inputs.
        forbid_tuning(monkeypatch)
        rc, err, named = run_edited(capsys, tmp_path, command, scenario,
                                    line, bad)
        assert rc == 2
        assert "config error:" in err and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario, line, named", [
        ("eop_shift", "probe_cells = s2,s5", "[eop] needs probe_cells"),
        ("xor_polymorphic", "operand_nets = a0,a1,a2,a3;b0,b1,b2,b3",
         "[function] needs operand_nets"),
        ("xor_polymorphic", "output_cells = cf0,cf1,cf2,cf3",
         "[function] needs output_cells"),
        ("xor_polymorphic", "vectors = 0,0;15,0;0,15;15,15;5,10",
         "[function] needs vectors"),
    ])
    def test_missing_needed_key_exit_code(self, capsys, tmp_path, monkeypatch,
                                          scenario, line, named):
        forbid_tuning(monkeypatch)
        rc, err, _ = run_edited(capsys, tmp_path, "attack", scenario, line, "")
        assert rc == 2
        assert "config error:" in err and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("netlist, line, message", [
        ("key8.net", "protect k0 k1 k2 k3 k4 k5 k6 k7",
         "eofm_key needs a protect line"),
        # shift8.net protects its stages, fed from each other.
        ("shift8.net", None, "protected data nets must be external inputs"),
        # Two key bits on one net: the stimulus could hold only one of them.
        pytest.param("key8.net", ("ff k1 d=kd1 ", "ff k1 d=kd0 "),
                     "protected data nets must be distinct, got ['kd0']",
                     id="key8.net-shared data net"),
    ])
    def test_key_netlist_exit_code(self, capsys, tmp_path, monkeypatch,
                                   netlist, line, message):
        forbid_tuning(monkeypatch)
        text = (SCENARIOS / netlist).read_text()
        if line is not None:
            # A line to delete, or a line and its replacement.
            line, bad = line if isinstance(line, tuple) else (line, "")
            assert text.count(line) == 1
            text = text.replace(line, bad)
        (tmp_path / "chip.net").write_text(text)
        path = tmp_path / "unprotected_key.scn"
        path.write_text((SCENARIOS / "unprotected_key.scn").read_text()
                        .replace("netlist = key8.net", "netlist = chip.net"))
        rc = cli.main(["attack", "--scenario", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error:" in err and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("vectors", [MAX_VECTORS, MAX_VECTORS + 1])
    def test_vectors_bounded_where_dwells_are_not(self, tmp_path, vectors):
        # One pixel per raster, at 1 ns dwells: only MAX_VECTORS bounds the
        # per-vector cost of a raster and an activity replay.
        path = function_copy(tmp_path, vectors, "160,40,170,50")
        if vectors <= MAX_VECTORS:
            assert len(load_scenario(path).function.vectors) == vectors
        else:
            with pytest.raises(ConfigError, match=r"\[function\] vectors"):
                load_scenario(path)

    def test_shift_pattern_on_the_period_bound_accepted(self, tmp_path):
        text = (SCENARIOS / "eop_shift.scn").read_text()
        path = tmp_path / "eop_shift.scn"
        path.write_text(text.replace("pattern = 10110001",
                                     "pattern = " + "10" * 5000))
        (tmp_path / "shift8.net").write_text(
            (SCENARIOS / "shift8.net").read_text())
        assert len(load_scenario(path).stimulus.pattern) == 10_000

    @pytest.mark.parametrize("vectors", [MAX_DWELLS // 512, MAX_DWELLS // 512 + 1])
    def test_dwells_bounded_where_windows_are_not(self, capsys, tmp_path,
                                                  vectors):
        # 1 ns dwells add no sensor windows, so only MAX_DWELLS bounds the
        # rasters of 32 by 16 pixels, one per vector, of a function run;
        # both vector counts are within MAX_VECTORS.
        path = function_copy(tmp_path, vectors, "0,0,320,160")
        if vectors * 512 <= MAX_DWELLS:
            assert len(load_scenario(path).function.vectors) == vectors
        else:
            assert cli.main(["attack", "--scenario", str(path),
                             "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert "config error:" in err and "[function] vectors" in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, scenario, line, bad", [
        ("attack", "unprotected_key", "clock_mhz = 100.0", "clock_mhz = 0"),
        ("eop", "eop_shift", "clock_mhz = 100.0", "clock_mhz = 0"),
        # A cycle of 1e6 / 5e-324 ps is inf, which no int holds.
        ("stability", "stability", "clock_mhz = 100.0", "clock_mhz = 5e-324"),
        ("attack", "unprotected_key", "t_detect_cycles = 255",
         "t_detect_cycles = 0"),
        ("attack", "unprotected_key", "t_detect_cycles = 255",
         "t_detect_cycles = -5"),
        ("attack", "unprotected_key", "t_detect_cycles = 255",
         "t_detect_cycles = 1024"),
        ("attack", "unprotected_key", "jitter_sigma_ps = 15.0",
         "jitter_sigma_ps = -1.0"),
        ("attack", "unprotected_key", "chain_len = 8", "chain_len = 3"),
        # Rejected once the netlist gives the grid: key8.net is 32x16.
        ("attack", "unprotected_key", "site = 15,8", "site = 99,99"),
        ("stability", "stability", "tune = 16,2,3", "tune = 40,2,3"),
        # Rejected once the netlist gives its inputs.
        ("attack", "eop_shift", "serial_net = sin", "serial_net = nothere"),
    ])
    def test_bad_sensor_input_exit_code(self, capsys, tmp_path, command,
                                        scenario, line, bad):
        rc, err, named = run_edited(capsys, tmp_path, command, scenario,
                                    line, bad)
        assert rc == 2
        assert "config error:" in err and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, bad", [
        ("duration_min = 30.0", "duration_min = nan"),
        ("rolling_window = 100", "rolling_window = 0"),
        ("rolling_window = 100", "rolling_window = -3"),
        # The bundled run logs 1,800 counts.
        ("rolling_window = 100", "rolling_window = 1801"),
        ("duration_min = 30.0", "duration_min = 1e9"),
        ("duration_min = 30.0", "duration_min = 0.001"),
        ("log_every_ms = 1000.0", "log_every_ms = 0"),
        ("drift_tau_s = 20.0", "drift_tau_s = 0"),
        ("drift_sigma_ps = 1.5", "drift_sigma_ps = -1"),
        ("tau_us = 50.0", "tau_us = 0"),
    ])
    def test_bad_stability_input_exit_code(self, capsys, tmp_path, line, bad):
        rc, err, named = run_edited(capsys, tmp_path, "stability",
                                    "stability", line, bad)
        assert rc == 2
        assert "config error:" in err and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", ["allowed_region = 100,100,101,101",
                                     "allowed_region = 26,4,32,12",
                                     "allowed_region = 26,4,30,16"])
    def test_off_grid_allowed_region_exit_code(self, capsys, tmp_path, bad):
        # Rejected once the netlist gives the grid: key8.net is 32x16, so a
        # relocation could never place a bit there.
        rc, err, named = run_edited(capsys, tmp_path, "attack",
                                    "mtd_inter_key",
                                    "allowed_region = 26,4,30,12", bad)
        assert rc == 2
        assert "config error:" in err and named in err
        assert "on a 32x16 grid" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario, line, added, named", [
        ("mtd_inter_key", "threshold = auto", "mid_pr_state = hold",
         "[defense] mid_pr_state"),
        ("mtd_inter_key", "threshold = auto", "move_sensor = false",
         "[defense] move_sensor"),
        ("xor_unprotected", "vectors = 0,0;15,0;0,15;15,15;5,10",
         "region_um = 160,40,200,120", "[function] region_um"),
    ])
    def test_removed_key_exit_code(self, capsys, tmp_path, scenario, line,
                                   added, named):
        # No option moves the sensor, zeroes the protected bits during a
        # reconfiguration or gives a function run a second scan region.
        rc, err, _ = run_edited(capsys, tmp_path, "attack", scenario, line,
                                f"{line}\n{added}")
        assert rc == 2
        assert "config error:" in err and f"unknown key {named}" in err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_override_exit_code(self, capsys, tmp_path):
        rc = cli.main(["stability", "--scenario",
                       str(SCENARIOS / "stability.scn"), "--seed", "-3",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "[scenario] seed" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario, line, bad", [
        ("mtd_inter_key", "[defense]", "[defence]"),
        ("unprotected_key", "[scan]", "[scans]"),
    ])
    def test_unknown_section_exit_code(self, capsys, tmp_path, scenario,
                                       line, bad):
        rc, err, _ = run_edited(capsys, tmp_path, "attack", scenario, line,
                                bad)
        assert rc == 2
        assert "config error:" in err and f"unknown section {bad}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        # A byte that is not UTF-8 in a comment after the last line; the
        # scenario's own case is in TestScenarioReader.
        ("netlist", "key8.net:{last}: not UTF-8 text"),
        ("netlist directory", "chip.net cannot be read: Is a directory"),
        ("scenario directory", "chip.scn: cannot be read: Is a directory"),
    ])
    def test_unreadable_input_exit_code(self, capsys, tmp_path, monkeypatch,
                                        edit, message):
        forbid_tuning(monkeypatch)
        path = edited_copy(tmp_path, "unprotected_key", "key = 10110001",
                           "key = 10110001")
        if edit == "netlist":
            netlist = tmp_path / "key8.net"
            text = netlist.read_bytes()
            netlist.write_bytes(text + b"# caf\xe9\n")
            message = message.format(last=text.count(b"\n") + 1)
        elif edit == "netlist directory":
            (tmp_path / "chip.net").mkdir()
            path.write_text(path.read_text().replace("netlist = key8.net",
                                                     "netlist = chip.net"))
        else:
            path = tmp_path / "chip.scn"
            path.mkdir()
        assert cli.main(["attack", "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario, added, unread", [
        # An eofm_key run reads none of these three.
        ("unprotected_key", "[stability]\nduration_min = 5\n[eop]\n"
         "probe_cells = k0\n[function]\nvectors = 1\n",
         "[stability], [eop], [function]"),
        ("xor_unprotected", "[eop]\nprobe_cells = cf0\n", "[eop]"),
        ("xor_unprotected", "[stability]\ndrift_tau_s = 5\n", "[stability]"),
        ("eop_shift", "[function]\nvectors = 1\n", "[function]"),
        ("eop_shift", "[stability]\nduration_min = 5\n", "[stability]"),
        ("mtd_inter_key", "[function]\noutput_cells = k0\n", "[function]"),
        ("stability", "[scan]\npower = 1.0\n", "[scan]"),
        ("stability", "[stimulus]\nprogram = reset_toggle\n", "[stimulus]"),
        ("stability", "[eop]\niterations = 5\n", "[eop]"),
        ("stability", "[function]\nvectors = 1\n", "[function]"),
    ])
    def test_unread_section_exit_code(self, capsys, tmp_path, monkeypatch,
                                      scenario, added, unread):
        forbid_tuning(monkeypatch)
        path = edited_copy(tmp_path, scenario, "[scenario]\n", "[scenario]\n")
        path.write_text(path.read_text() + added)
        kind = load_scenario(SCENARIOS / f"{scenario}.scn").kind
        command = "stability" if kind == "stability" else "attack"
        assert cli.main([command, "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"kind {kind} never reads {unread}\n" in err
        assert not (tmp_path / "out").exists()

    def test_missing_netlist_exit_code(self, capsys, tmp_path):
        text = (SCENARIOS / "eop_shift.scn").read_text()
        assert text.count("netlist = shift8.net") == 1
        path = tmp_path / "eop_shift.scn"
        path.write_text(text.replace("netlist = shift8.net",
                                     "netlist = absent.net"))
        assert cli.main(["eop", "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and str((tmp_path / "absent.net").resolve()) in err
        assert not (tmp_path / "out").exists()

    def test_capacity_error_exit_code(self, capsys, tmp_path):
        # One slice (4 slots) can never hold the 8 protected bits.
        text = (SCENARIOS / "mtd_inter_key.scn").read_text()
        text = text.replace("allowed_region = 26,4,30,12",
                            "allowed_region = 26,4,26,4")
        bad = tmp_path / "cramped.scn"
        bad.write_text(text)
        (tmp_path / "key8.net").write_text(
            (SCENARIOS / "key8.net").read_text())
        assert cli.main(["attack", "--scenario", str(bad)]) == 4
