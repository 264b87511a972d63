"""Optical-probing attack and delay-sensor defense simulator."""

from .attacker import EofmImage, EopTrace, ScanConfig, eofm_scan, eop_probe
from .cosim import CoSimulation, ScenarioError
from .defense import (CapacityError, DefenseError, DefensePolicy, Permutation,
                      ReconfigEvent, on_trigger, permute_intra, relocate_inter)
from .fabric import (CombinationalCycleError, FabricError, FabricModel,
                     FlipFlop, Lut, SliceCoord, evaluate_lut)
from .harness import ConfigError, RunSummary, Scenario, load_scenario, run
from .netlist import NetlistError, load_netlist
from .sensor import (SensorInstance, TuneValue, TuningError, chain_delay,
                     read_counters, ro_calibration, tune)
from .thermal import LaserSpot, ThermalField

__version__ = "0.1.0"
