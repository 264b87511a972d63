"""Loader for the line-based netlist/placement text format.

Grammar (one statement per line, ``#`` starts a comment):

    grid <width> <height> [ffs=<n>] [luts=<n>] [pitch=<um>]
    input <net> [<net> ...]
    net <name>
    lut <name> init=<bits> in=<net>,<net>,... out=<net> site=<x>,<y> [slot=<i>]
    ff <name> d=<net> q=<net> [ce=<net>] [rst=<net>] site=<x>,<y> slot=<i> [init=<0|1>]
    protect <ffname> [<ffname> ...]

``init=<bits>`` lists the LUT truth table with the leftmost character as the
output for input index 0 (all-zero inputs) and input 0 as the least
significant bit of the index.  The built-in nets ``gnd``, ``vcc`` and
``sensor_latch`` may be referenced anywhere; ``sensor_latch`` follows the
sensor's sticky trigger bit during co-simulation.  ``protect`` fixes the
logical bit order of the register under defense; it may appear once.
"""

from __future__ import annotations

from pathlib import Path

from .fabric import FabricModel, FlipFlop, Lut, SliceCoord


class NetlistError(Exception):
    """Syntax or semantic error in a netlist file."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")


def _split_kv(tokens, path, lineno):
    opts = {}
    for tok in tokens:
        if "=" not in tok:
            raise NetlistError(path, lineno, f"expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        opts[key] = val
    return opts


def _coord(text, path, lineno) -> SliceCoord:
    try:
        x, y = text.split(",")
        return SliceCoord(int(x), int(y))
    except ValueError:
        raise NetlistError(path, lineno, f"bad site {text!r}") from None


def load_netlist(path) -> FabricModel:
    """Parse a netlist file and return a validated FabricModel."""
    path = Path(path)
    model: FabricModel | None = None
    protected: list[str] | None = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        stmt, args = tokens[0], tokens[1:]
        if stmt == "grid":
            if model is not None:
                raise NetlistError(path, lineno, "duplicate grid statement")
            if len(args) < 2:
                raise NetlistError(path, lineno, "grid needs width and height")
            opts = _split_kv(args[2:], path, lineno)
            try:
                model = FabricModel(
                    grid_width=int(args[0]),
                    grid_height=int(args[1]),
                    ffs_per_slice=int(opts.pop("ffs", 4)),
                    luts_per_slice=int(opts.pop("luts", 4)),
                    site_pitch_um=float(opts.pop("pitch", 10.0)),
                )
            except ValueError as exc:
                raise NetlistError(path, lineno, str(exc)) from None
            if opts:
                raise NetlistError(path, lineno, f"unknown grid options {sorted(opts)}")
            continue
        if model is None:
            raise NetlistError(path, lineno, "grid statement must come first")
        try:
            if stmt == "input":
                if not args:
                    raise NetlistError(path, lineno, "input needs net names")
                for name in args:
                    model.add_input(name)
            elif stmt == "net":
                opts = _split_kv(args[1:], path, lineno)
                model._net(args[0])
                if opts:
                    raise NetlistError(path, lineno, f"unknown net options {sorted(opts)}")
            elif stmt == "lut":
                opts = _split_kv(args[1:], path, lineno)
                bits = opts.pop("init")
                if set(bits) - {"0", "1"}:
                    raise NetlistError(path, lineno, f"bad init bits {bits!r}")
                lut = Lut(
                    name=args[0],
                    init_bits=tuple(int(b) for b in bits),
                    input_nets=tuple(opts.pop("in").split(",")),
                    output_net=opts.pop("out"),
                    site=_coord(opts.pop("site"), path, lineno),
                    slot=int(opts.pop("slot", 0)),
                )
                if opts:
                    raise NetlistError(path, lineno, f"unknown lut options {sorted(opts)}")
                model.add_lut(lut)
            elif stmt == "ff":
                opts = _split_kv(args[1:], path, lineno)
                ff = FlipFlop(
                    name=args[0],
                    d=opts.pop("d"),
                    q=opts.pop("q"),
                    ce=opts.pop("ce", "vcc"),
                    rst=opts.pop("rst", "gnd"),
                    site=_coord(opts.pop("site"), path, lineno),
                    slot=int(opts.pop("slot", 0)),
                    init=int(opts.pop("init", 0)),
                )
                if opts:
                    raise NetlistError(path, lineno, f"unknown ff options {sorted(opts)}")
                model.add_ff(ff)
            elif stmt == "protect":
                if protected is not None:
                    raise NetlistError(path, lineno, "duplicate protect statement")
                protected = list(args)
            else:
                raise NetlistError(path, lineno, f"unknown statement {stmt!r}")
        except NetlistError:
            raise
        except KeyError as exc:
            raise NetlistError(path, lineno, f"missing option {exc}") from None
        except Exception as exc:
            raise NetlistError(path, lineno, str(exc)) from None
    if model is None:
        raise NetlistError(path, 0, "empty netlist (no grid statement)")
    if protected:
        try:
            model.set_protected(protected)
        except Exception as exc:
            raise NetlistError(path, 0, str(exc)) from None
    try:
        model.validate()
    except Exception as exc:
        raise NetlistError(path, 0, str(exc)) from None
    return model
