"""Command-line front end.

Exit codes: 0 success, 2 config/netlist error, 3 tuning failure,
4 defense capacity error, 5 scenario error, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import harness
from .artifacts import write_columns
from .cosim import ScenarioError
from .defense import CapacityError, DefenseError
from .fabric import FabricError
from .harness import ConfigError
from .netlist import NetlistError
from .sensor import TuningError, chain_code_bits, ro_calibration

EXIT_CONFIG = 2
EXIT_TUNING = 3
EXIT_CAPACITY = 4
EXIT_SCENARIO = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probesim",
        description="Optical-probing attack and delay-sensor defense simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, multi_scenario=False):
        if multi_scenario:
            p.add_argument("--scenario", action="append", required=True,
                           metavar="FILE", help="scenario file (repeatable)")
        else:
            p.add_argument("--scenario", required=True, metavar="FILE",
                           help="scenario file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="artifact output directory")

    add_common(sub.add_parser("tune", help="tune the sensor and report the result"))
    add_common(sub.add_parser("eofm", help="run the EOFM raster scan"))
    add_common(sub.add_parser("eop", help="run the EOP waveform probe"))
    add_common(sub.add_parser("attack", help="full attack/defense pipeline"))
    add_common(sub.add_parser("stability", help="idle stability endurance run"))
    batch = sub.add_parser("batch", help="run several scenarios")
    add_common(batch, multi_scenario=True)
    return parser


def _cmd_tune(args) -> int:
    scn = harness.load_scenario(args.scenario, args.seed)
    sensor = harness.build_sensor(scn)
    harness.load_model(scn, sensor)  # the netlist rules a run checks first
    tuned, threshold = harness.arm_sensor(scn, sensor)
    print(f"tune: {tuned}")
    print(f"ambient_slack_ps: {sensor.slack_ps(1.0):.3f}")
    print(f"trigger_threshold: {threshold:.0f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "summary.txt", "w") as fh:
            fh.write(f"scenario: {scn.name}\ntune: {tuned}\n"
                     f"trigger_threshold: {threshold:.0f}\n")
        # The oscillator period of every chain code.
        n = 2 ** chain_code_bits(sensor.chain_len)
        periods = ro_calibration(np.arange(n), sensor.chain_len,
                                 per_tap_ps=sensor.per_tap_ps,
                                 base_ps=sensor.element_base_ps)
        write_columns(out / "ro_calibration.csv", "code,period_ns",
                      (range(n), periods), (None, 6))
    return 0


# The scenario kinds each run command accepts.
RUN_KINDS = {
    "eofm": ("eofm_key", "eofm_function"),
    "eop": ("eop",),
    "attack": harness.KINDS,
    "stability": ("stability",),
}


def _cmd_run(args) -> int:
    scn = harness.load_scenario(args.scenario, args.seed)
    kinds = RUN_KINDS[args.command]
    if scn.kind not in kinds:
        raise ConfigError(
            f"{args.scenario}: {args.command} command needs kind "
            f"{' | '.join(kinds)}, scenario has {scn.kind}"
        )
    result = harness.run(scn, Path(args.out) if args.out else None)
    sys.stdout.write(result.summary.to_text())
    if args.command == "stability" and result.stability.triggered:
        print("stability FAILURE: false-positive trigger at "
              f"{result.stability.false_positive_at_us:.0f} us")
        return EXIT_SCENARIO
    return 0


def _cmd_batch(args) -> int:
    out = Path(args.out) if args.out else Path("runs")
    summaries = harness.run_batch(args.scenario, out, args.seed)
    for s in summaries:
        if s.trigger_time_us is not None:
            trig = f"{s.trigger_time_us:.1f}us"
        elif s.stability and s.stability["triggered"]:
            trig = "false-positive"  # an idle run has no trigger time
        else:
            trig = "-"
        extra = ""
        if s.bits_total:
            extra = f" bits={s.bits_correct}/{s.bits_total}"
        print(f"{s.scenario}: trigger={trig}{extra}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"tune": _cmd_tune, "batch": _cmd_batch,
                **dict.fromkeys(RUN_KINDS, _cmd_run)}
    try:
        return handlers[args.command](args)
    except (ConfigError, NetlistError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TuningError as exc:
        print(f"tuning failure: {exc}", file=sys.stderr)
        return EXIT_TUNING
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except DefenseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ScenarioError, FabricError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO


if __name__ == "__main__":
    sys.exit(main())
