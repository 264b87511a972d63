"""Benchmark of the probesim detection race.

    python3 perfbench/run.py --workload eofm_scan --seed 1 --seconds 30 --trace 0

Runs one workload (see README.md) in a fresh single-threaded process and
prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` a separate traced
process gives the per-layer ones.  The full result, with every case, is
also written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("eofm_scan", "eop_probe", "sensor_arming")
# Set-up runs per measured run; setup_s is the median of these and of the
# measured run's own set-up.
SETUP_SAMPLES = 4
CHILD_TIMEOUT_S = 170

def child(args, *extra) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def per_case_layers(case: dict) -> dict[str, float]:
    layers = dict(case["layers"])
    layers["harness.artifact_bytes"] = case["artifact_bytes"]
    layers["defense.race_margin_us"] = case["race_margin_us"] or 0.0
    calls, windows = layers["cosim.advance_calls"], layers["cosim.windows"]
    layers["cosim.windows_per_call"] = windows / calls if calls else 0.0
    layers["cosim.host_us_per_window"] = (
        layers["cosim.advance_self_s"] * 1e6 / windows if windows else 0.0)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "probesim" / "__init__.py").is_file():
        print(f"probesim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setups = []
    if not args.trace:
        setups = [child(args, "--setup-only") for _ in range(SETUP_SAMPLES)]
    run = child(args)
    setups.append(run)
    cases = run["cases"]
    # The fixed, untimed run that fails every time counts in failed, and
    # its check failure does not make the run incorrect.
    timed = [c for c in cases if not c.get("untimed")]
    problems = run["oracle_problems"] + [p for c in timed for p in c["problems"]]
    known = [p for c in cases if c.get("untimed") for p in c["problems"]]
    failed = sum(1 for c in cases if c["problems"])
    if args.trace:
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        layers = [per_case_layers(c) for c in timed]
        metrics = {m["name"]: {"value": statistics.median(l[m["name"]] for l in layers),
                               "unit": m["unit"]} for m in per_layer}
    else:
        metrics = {
            "case_s": {"value": statistics.median(c["host_s"] for c in timed),
                       "unit": "s"},
            "sim_us_per_s": {"value": statistics.median(
                c["sim_us"] / c["host_s"] for c in timed), "unit": "us/s"},
            "setup_s": {"value": statistics.median(
                s["setup_host_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": len(cases),
              "failed": failed, "metrics": metrics}
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, problems=problems,
                  known_failures=known,
                  setups=[{k: s[k] for k in ("setup_s", "setup_host_s")}
                          for s in setups], cases=cases)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(detail, indent=1) + "\n")
    for p in problems + sorted(set(known)):
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
