"""Self-test of the benchmark: each check rejects a corrupted result, and the
span recorder's self-time arithmetic adds up.

    python3 perfbench/selftest.py

Runs four bundled scenarios once (about ten seconds), checks that their
artifacts pass, then corrupts one artifact at a time and checks that the
matching check reports it.
"""

from __future__ import annotations

import dataclasses
import itertools
import shutil
import tempfile
import unittest
from pathlib import Path

from workload import KNOWN_FALSE_TRIGGER_SEED, SCENARIOS, WORK, harness

import checks
import spans

SEED = 7


def _rewrite(path: Path, edit) -> None:
    path.write_text(edit(path.read_text()))


class SelfTimes(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        # case [0, 10] > run [1, 9] > (tune [2, 5] > nothing, advance [6, 8])
        recorded = [["case", 0.0, 10.0, -1], ["harness.run", 1.0, 9.0, 0],
                    ["sensor.tune", 2.0, 5.0, 1], ["cosim.advance_to", 6.0, 8.0, 1]]
        self.assertEqual(spans.self_times(recorded), [2.0, 3.0, 3.0, 2.0])

    def test_layer_self_times_add_up_to_the_case(self):
        clock = itertools.count(0.0, 0.5)
        rec = spans.Recorder(clock=lambda: next(clock))
        for _ in range(2):
            root = rec.begin("case")
            run = rec.begin("harness.run")
            for name in ("cosim.advance_to", "thermal.advance"):
                rec.end(rec.begin(name))
            rec.end(run)
            rec.end(root)
        metrics = spans.layer_metrics(rec)
        self_total = sum(metrics[m] for m in set(spans.SELF_TIME_METRIC.values()))
        self.assertEqual(metrics["trace.case_s"], 7.0)
        self.assertEqual(self_total, metrics["trace.case_s"])
        self.assertEqual(metrics["cosim.advance_calls"], 2)


class ChecksRejectCorruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        WORK.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))
        cls.runs = {}
        for name in ("unprotected_key", "xor_unprotected", "eop_shift", "stability"):
            path = SCENARIOS / f"{name}.scn"
            # The idle run tunes by search, as in the sensor_arming workload.
            scn = dataclasses.replace(harness.load_scenario(path, SEED), pinned_tune=None)
            harness.run(scn, cls.tmp / name)
            cls.runs[name] = checks.Expect(path)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def fresh(self, name: str) -> tuple[checks.Expect, Path]:
        """A private copy of one run's artifacts to corrupt."""
        out = self.tmp / f"{name}-{self._testMethodName}"
        shutil.copytree(self.tmp / name, out)
        return self.runs[name], out

    def test_clean_artifacts_pass(self):
        for name, exp in self.runs.items():
            self.assertEqual(checks.check_scenario(exp, self.tmp / name)[0], [])

    def test_flipped_key_bit(self):
        exp, out = self.fresh("unprotected_key")
        key = checks.read_summary(out)["recovered_key"]
        flipped = ("1" if key[0] == "0" else "0") + key[1:]
        _rewrite(out / "summary.txt", lambda t: t.replace(
            f"recovered_key: {key}", f"recovered_key: {flipped}"))
        self.assertTrue(checks.check_key(exp, checks.read_summary(out)))

    def test_wrong_xor_output(self):
        exp, out = self.fresh("xor_unprotected")
        _rewrite(out / "summary.txt", lambda t: t.replace(
            "function[0101,1010]: 1111", "function[0101,1010]: 1110"))
        self.assertTrue(checks.check_xor(exp, checks.read_summary(out)))

    def test_eop_trace_shifted_by_one_sample(self):
        exp, out = self.fresh("eop_shift")
        trace = out / "trace_s2.csv"
        header, *rows = trace.read_text().splitlines()
        values = [r.split(",")[1] for r in rows]
        shifted = values[-1:] + values[:-1]
        trace.write_text("\n".join([header] + [
            f"{r.split(',')[0]},{v}" for r, v in zip(rows, shifted)]) + "\n")
        self.assertTrue(checks.check_eop(exp, out))

    def test_counters_row_removed(self):
        exp, out = self.fresh("unprotected_key")
        counters = out / "counters.csv"
        lines = counters.read_text().splitlines(keepends=True)
        counters.write_text("".join(lines[:1000] + lines[1001:]))
        self.assertTrue(checks.check_windows(exp, out, checks.read_summary(out)))

    def test_stability_threshold_changed(self):
        exp, out = self.fresh("stability")
        threshold = checks.read_summary(out)["trigger_threshold"]
        _rewrite(out / "summary.txt", lambda t: t.replace(
            f"trigger_threshold: {threshold}",
            f"trigger_threshold: {int(threshold) + 20}"))
        problems = checks.check_stability(exp, out, checks.read_summary(out))
        self.assertTrue(any("outside" in p for p in problems), problems)

    def test_stability_tune_changed(self):
        # Data path far slower than the clock path: the sensor reads 0 always.
        exp, out = self.fresh("stability")
        tune = checks.read_summary(out)["tune"]
        _rewrite(out / "summary.txt", lambda t: t.replace(
            f"tune: {tune}", "tune: data=31 clock=0 select=5"))
        problems = checks.check_stability(exp, out, checks.read_summary(out))
        self.assertTrue(any("outside" in p for p in problems), problems)

    def test_stability_trigger_flag_flipped(self):
        exp, out = self.fresh("stability")
        flag = checks.read_summary(out)["stability_triggered"]
        _rewrite(out / "summary.txt", lambda t: t.replace(
            f"stability_triggered: {flag}",
            f"stability_triggered: {flag != 'True'}"))
        self.assertTrue(checks.check_stability(exp, out, checks.read_summary(out)))

    def test_stability_log_row_removed(self):
        exp, out = self.fresh("stability")
        counters = out / "counters.csv"
        lines = counters.read_text().splitlines(keepends=True)
        counters.write_text("".join(lines[:500] + lines[501:]))
        self.assertTrue(checks.check_stability(exp, out, checks.read_summary(out)))

    def test_known_false_trigger_is_reported(self):
        path = SCENARIOS / "stability.scn"
        out = self.tmp / "known"
        harness.run(harness.load_scenario(path, KNOWN_FALSE_TRIGGER_SEED), out)
        fields = checks.read_summary(out)
        self.assertEqual(checks.check_stability(self.runs["stability"], out, fields), [])
        self.assertIsNotNone(checks.false_trigger_us(out, fields))

    def test_permutation_must_be_a_bijection(self):
        exp = checks.Expect(SCENARIOS / "mtd_intra_key.scn")
        out = self.tmp / "intra"
        out.mkdir()
        log = out / "defense_log.csv"
        header = "trigger_time_us,mode,event_complete_us,placement_diff,permutation\n"
        fields = {"trigger_time_us": "1.000"}
        log.write_text(header + "1.000,mtd_intra,224.000,,(0 1 2 3)(4 5 6 7)\n")
        self.assertEqual(checks.check_mtd_intra(exp, out, fields), [])
        log.write_text(header + "1.000,mtd_intra,224.000,,(0 1 2 3)(4 5 6 6)\n")
        self.assertTrue(checks.check_mtd_intra(exp, out, fields))


if __name__ == "__main__":
    unittest.main()
