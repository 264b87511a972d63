"""Discrete-time model of a small FPGA-like fabric.

The fabric is a grid of slices, each offering a few flip-flop and LUT slots.
Functional simulation is cycle-accurate: combinational nets settle in
topological order, then all flip-flops update simultaneously on the clock
edge.  Sub-cycle path delays are computed analytically where they matter
(see :mod:`probesim.sensor`); there is no event-driven timing simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

# Calibrated programmable delay lines expose 31 taps (0..30).  Writing a tap
# value past the top wraps around to zero; the 5-bit code 0b11111 is handled
# by the chain encoding instead (see probesim.sensor.tap_from_code).
TAP_MAX = 30

GND_NET = "gnd"
VCC_NET = "vcc"
LATCH_NET = "sensor_latch"


class FabricError(Exception):
    """Malformed fabric model or illegal operation on one."""


class CombinationalCycleError(FabricError):
    """The LUT network contains a combinational feedback loop."""


@dataclass(frozen=True, order=True)
class SliceCoord:
    """Column/row index of one slice on the grid."""

    x: int
    y: int

    def __str__(self) -> str:
        return f"{self.x},{self.y}"


@dataclass
class Lut:
    """k-input lookup table: 2^k configuration bits behind an input mux.

    ``init_bits[i]`` is the output for the input pattern whose unsigned
    integer value is ``i``, with input 0 as the least significant bit.
    """

    name: str
    init_bits: tuple[int, ...]
    input_nets: tuple[str, ...]
    output_net: str
    site: SliceCoord
    slot: int = 0

    @property
    def arity(self) -> int:
        return len(self.input_nets)

    def __post_init__(self):
        k = len(self.input_nets)
        if not 1 <= k <= 6:
            raise FabricError(f"LUT {self.name}: arity {k} outside 1..6")
        if len(self.init_bits) != 2 ** k:
            raise FabricError(
                f"LUT {self.name}: {len(self.init_bits)} init bits for arity {k}"
            )


@dataclass
class FlipFlop:
    """D flip-flop with clock enable and synchronous reset (priority rst > ce)."""

    name: str
    d: str
    q: str
    ce: str = VCC_NET
    rst: str = GND_NET
    site: SliceCoord = SliceCoord(0, 0)
    slot: int = 0
    init: int = 0


@dataclass
class Net:
    name: str
    driver: tuple[str, str] | None = None  # (kind, primitive/name)


def evaluate_lut(lut: Lut, inputs) -> int:
    """Evaluate one LUT for a bit vector of length ``lut.arity``."""
    if len(inputs) != lut.arity:
        raise FabricError(
            f"LUT {lut.name}: got {len(inputs)} inputs, expected {lut.arity}"
        )
    index = 0
    for i, bit in enumerate(inputs):
        index |= (1 if bit else 0) << i
    return lut.init_bits[index]


class FabricModel:
    """Placed netlist of LUTs and FFs on a slice grid, plus its live state."""

    def __init__(self, grid_width=32, grid_height=16, ffs_per_slice=4,
                 luts_per_slice=4, site_pitch_um=10.0):
        self.grid_width = grid_width
        self.grid_height = grid_height
        self.ffs_per_slice = ffs_per_slice
        self.luts_per_slice = luts_per_slice
        self.site_pitch_um = site_pitch_um
        self.luts: dict[str, Lut] = {}
        self.ffs: dict[str, FlipFlop] = {}
        self.nets: dict[str, Net] = {}
        self.inputs: set[str] = set()
        # Ordered logical register bits under protection: bit i lives in
        # ffs[protected[i]].  Defense actions re-map this list.
        self.protected: list[str] = []
        self.protected_sources: list[str] = []
        self.hold_protected = False
        self.state: dict[str, int] = {}
        self.net_values: dict[str, int] = {}
        self._order: list[str] | None = None
        for name in (GND_NET, VCC_NET, LATCH_NET):
            self._net(name, driver=("const", name))

    # -- construction -----------------------------------------------------

    def _net(self, name: str, driver=None) -> Net:
        net = self.nets.get(name)
        if net is None:
            net = Net(name)
            self.nets[name] = net
        if driver is not None:
            if net.driver is not None and net.driver != driver:
                raise FabricError(
                    f"net {name}: two drivers ({net.driver} and {driver})"
                )
            net.driver = driver
        return net

    def add_net(self, name: str) -> None:
        """Declare a net; an input, a LUT or an FF must still drive it."""
        self._net(name)

    def add_input(self, name: str) -> None:
        self._net(name, driver=("input", name))
        self.inputs.add(name)

    def add_lut(self, lut: Lut) -> Lut:
        if lut.name in self.luts or lut.name in self.ffs:
            raise FabricError(f"duplicate cell name {lut.name}")
        self._check_site(lut.site, lut.slot, self.luts_per_slice, lut.name)
        for n in lut.input_nets:
            self._net(n)
        self._net(lut.output_net, driver=("lut", lut.name))
        self.luts[lut.name] = lut
        self._order = None
        return lut

    def add_ff(self, ff: FlipFlop) -> FlipFlop:
        if ff.name in self.luts or ff.name in self.ffs:
            raise FabricError(f"duplicate cell name {ff.name}")
        self._check_site(ff.site, ff.slot, self.ffs_per_slice, ff.name)
        for n in (ff.d, ff.ce, ff.rst):
            self._net(n)
        self._net(ff.q, driver=("ff", ff.name))
        self.ffs[ff.name] = ff
        self.state[ff.name] = ff.init
        self._order = None
        return ff

    def on_grid(self, site: SliceCoord) -> bool:
        return 0 <= site.x < self.grid_width and 0 <= site.y < self.grid_height

    @property
    def size_um(self) -> tuple[float, float]:
        """Width and height of the fabric."""
        return (self.grid_width * self.site_pitch_um,
                self.grid_height * self.site_pitch_um)

    def on_fabric(self, box_um) -> bool:
        """Whether the box x0, y0, x1, y1 (um) is non-empty and on the fabric."""
        x0, y0, x1, y1 = box_um
        width, height = self.size_um
        return 0 <= x0 < x1 <= width and 0 <= y0 < y1 <= height

    def _check_site(self, site: SliceCoord, slot: int, slots: int, name: str):
        if not self.on_grid(site):
            raise FabricError(f"{name}: site {site} off the {self.grid_width}x"
                              f"{self.grid_height} grid")
        if not 0 <= slot < slots:
            raise FabricError(f"{name}: slot {slot} outside 0..{slots - 1}")

    def set_protected(self, ff_names: list[str]) -> None:
        for n in ff_names:
            if n not in self.ffs:
                raise FabricError(f"protected cell {n} is not a flip-flop")
        self.protected = list(ff_names)
        self.protected_sources = [self.ffs[n].d for n in ff_names]
        self.check_placement()

    def check_placement(self) -> None:
        """Every FF slot holds at most one FF (placement stays injective)."""
        seen: dict[tuple[SliceCoord, int], str] = {}
        for ff in self.ffs.values():
            key = (ff.site, ff.slot)
            if key in seen:
                raise FabricError(
                    f"FFs {seen[key]} and {ff.name} share slot {key[0]}/{key[1]}"
                )
            seen[key] = ff.name

    def validate(self) -> None:
        for net in self.nets.values():
            if net.driver is None:
                raise FabricError(f"net {net.name} has no driver")
        self.check_placement()
        self._settle_order()

    # -- geometry ----------------------------------------------------------

    def site_center_um(self, site: SliceCoord) -> tuple[float, float]:
        p = self.site_pitch_um
        return ((site.x + 0.5) * p, (site.y + 0.5) * p)

    def slot_position_um(self, site: SliceCoord, slot: int, kind="ff"):
        """Physical position of one slot; FF and LUT columns sit 2 um apart."""
        cx, cy = self.site_center_um(site)
        dx = 2.0 if kind == "ff" else -2.0
        n = self.ffs_per_slice if kind == "ff" else self.luts_per_slice
        dy = (slot - (n - 1) / 2.0) * 2.0
        return (cx + dx, cy + dy)

    def cell_position_um(self, name: str) -> tuple[float, float]:
        """Physical position of a flip-flop or LUT, by name."""
        if name in self.ffs:
            ff = self.ffs[name]
            return self.slot_position_um(ff.site, ff.slot, "ff")
        lut = self.luts[name]
        return self.slot_position_um(lut.site, lut.slot, "lut")

    # -- evaluation ---------------------------------------------------------

    def _settle_order(self) -> list[str]:
        """Topological order of the LUT network; rejects combinational loops."""
        if self._order is not None:
            return self._order
        producers = {lut.output_net: name for name, lut in self.luts.items()}
        deps = {
            name: [producers[n] for n in lut.input_nets if n in producers]
            for name, lut in self.luts.items()
        }
        indeg = {name: len(d) for name, d in deps.items()}
        consumers: dict[str, list[str]] = {name: [] for name in self.luts}
        for name, d in deps.items():
            for p in d:
                consumers[p].append(name)
        ready = sorted(n for n, k in indeg.items() if k == 0)
        order: list[str] = []
        while ready:
            n = ready.pop()
            order.append(n)
            for c in consumers[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        if len(order) != len(self.luts):
            cyclic = sorted(n for n, k in indeg.items() if k > 0)
            raise CombinationalCycleError(
                f"combinational cycle through LUTs: {', '.join(cyclic)}"
            )
        self._order = order
        return order

    def settle(self, inputs: dict[str, int] | None = None) -> dict[str, int]:
        """Re-evaluate all combinational nets from FF state and inputs."""
        values = {GND_NET: 0, VCC_NET: 1, LATCH_NET: self.net_values.get(LATCH_NET, 0)}
        for n in self.inputs:
            values[n] = 0
        if inputs:
            for n, v in inputs.items():
                if n not in self.inputs and n != LATCH_NET:
                    raise FabricError(f"{n} is not an external input net")
                values[n] = 1 if v else 0
        for name, ff in self.ffs.items():
            values[ff.q] = self.state[name]
        for name in self._settle_order():
            lut = self.luts[name]
            values[lut.output_net] = evaluate_lut(
                lut, [values[n] for n in lut.input_nets]
            )
        self.net_values = values
        return values

    def step_clock(self, inputs: dict[str, int] | None = None) -> dict[str, int]:
        """One synchronous clock edge; returns the new register state.

        All FFs sample their pre-edge net values simultaneously.  Update
        priority is synchronous reset, then clock enable, then hold.
        """
        values = self.settle(inputs)
        held = set(self.protected) if self.hold_protected else ()
        nxt = {}
        for name, ff in self.ffs.items():
            if name in held:
                nxt[name] = self.state[name]
            elif values[ff.rst]:
                nxt[name] = 0
            elif values[ff.ce]:
                nxt[name] = values[ff.d]
            else:
                nxt[name] = self.state[name]
        self.state = nxt
        self.settle(inputs)
        return dict(nxt)

    def read_protected_bits(self) -> list[int]:
        """Logical value of the protected register, in logical bit order."""
        return [self.state[name] for name in self.protected]

    def set_latch_net(self, value: int) -> None:
        self.net_values[LATCH_NET] = 1 if value else 0

