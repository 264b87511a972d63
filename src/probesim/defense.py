"""Responses fired by the sensor latch.

Moving-target defenses re-place the protected register bits (between
slices, or by permuting bits within their slices) behind a modeled partial
reconfiguration latency.  Polymorphic gates switch their logic function
combinationally through the latch net.  Zeroization clears the protected
bits at the next clock edge as a destructive fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fabric import FabricModel, SliceCoord

MODES = ("none", "mtd_inter", "mtd_intra", "polymorphic", "zeroize")


class DefenseError(Exception):
    """Defense action could not be carried out as configured."""


class CapacityError(DefenseError):
    """Not enough free slots in the allowed region."""


@dataclass
class DefensePolicy:
    """Response mode, trigger level, and reconfiguration parameters."""

    mode: str = "none"
    pr_latency_us: float = 223.0
    allowed_region: list[SliceCoord] = field(default_factory=list)
    threshold: float | None = None  # None: derived from the idle distribution
    rng_seed: int = 0
    mid_pr_state: str = "hold"  # protected outputs during PR: hold | zero
    move_sensor: bool = False  # relocate the sensor along with the targets
    fired: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise DefenseError(f"unknown defense mode {self.mode!r}")
        if self.mode in ("mtd_inter", "mtd_intra") and self.pr_latency_us <= 0:
            raise DefenseError("MTD modes need pr_latency > 0")
        if self.mode == "mtd_inter" and not self.allowed_region:
            raise DefenseError("mtd_inter needs a non-empty allowed_region")
        if self.mid_pr_state not in ("hold", "zero"):
            raise DefenseError(f"bad mid_pr_state {self.mid_pr_state!r}")


@dataclass(frozen=True)
class Permutation:
    """Bijection on 0..n-1, stored as mapping[i] = image of i."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise DefenseError(f"not a permutation: {self.mapping}")

    def __len__(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def cycle_notation(self) -> str:
        seen: set[int] = set()
        parts = []
        for start in range(len(self.mapping)):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            j = self.mapping[start]
            while j != start:
                cycle.append(j)
                seen.add(j)
                j = self.mapping[j]
            parts.append("(" + " ".join(str(c) for c in cycle) + ")")
        return "".join(parts)


@dataclass
class ReconfigEvent:
    """One scheduled partial reconfiguration."""

    fire_time_us: float
    completes_at_us: float
    mode: str
    old_placement: dict[str, tuple[SliceCoord, int]]
    new_placement: dict[str, tuple[SliceCoord, int]] | None = None
    permutation: Permutation | None = None
    applied: bool = False

    def __post_init__(self):
        if self.completes_at_us <= self.fire_time_us:
            raise DefenseError("reconfiguration must complete after it fires")

    def placement_diff(self) -> str:
        # Comma-free (CSV-safe) move list: name:x.y/slot->x.y/slot
        if not self.new_placement:
            return ""
        moves = []
        for name, (site, slot) in self.new_placement.items():
            old_site, old_slot = self.old_placement[name]
            if (old_site, old_slot) != (site, slot):
                moves.append(f"{name}:{old_site.x}.{old_site.y}/{old_slot}"
                             f"->{site.x}.{site.y}/{slot}")
        return ";".join(moves)


def region_slices(x0: int, y0: int, x1: int, y1: int) -> list[SliceCoord]:
    """All slices in the inclusive rectangle (x0, y0)..(x1, y1)."""
    return [SliceCoord(x, y) for y in range(y0, y1 + 1)
            for x in range(x0, x1 + 1)]


def free_ff_slots(model: FabricModel, region: list[SliceCoord],
                  exclude_sites=()) -> list[tuple[SliceCoord, int]]:
    occupied = {(ff.site, ff.slot) for ff in model.ffs.values()}
    banned = set(exclude_sites)
    slots = []
    for site in region:
        if site in banned:
            continue
        for slot in range(model.ffs_per_slice):
            if (site, slot) not in occupied:
                slots.append((site, slot))
    return slots


def relocate_inter(model: FabricModel, region: list[SliceCoord], rng,
                   exclude_sites=()) -> dict[str, tuple[SliceCoord, int]]:
    """Pick a uniformly random re-placement of the protected bits.

    Every protected bit maps to a distinct free FF slot in the allowed
    region; nothing else moves.  The placement is returned, not applied.
    """
    if not model.protected:
        raise DefenseError("no protected bits to relocate")
    slots = free_ff_slots(model, region, exclude_sites)
    if len(slots) < len(model.protected):
        raise CapacityError(
            f"{len(slots)} free slots for {len(model.protected)} bits"
        )
    picks = rng.permutation(len(slots))[: len(model.protected)]
    return {name: slots[int(i)] for name, i in zip(model.protected, picks)}


def apply_placement(model: FabricModel,
                    placement: dict[str, tuple[SliceCoord, int]]) -> None:
    for name, (site, slot) in placement.items():
        ff = model.ffs[name]
        ff.site, ff.slot = site, slot
    model.check_placement()


def current_placement(model: FabricModel) -> dict[str, tuple[SliceCoord, int]]:
    return {name: (model.ffs[name].site, model.ffs[name].slot)
            for name in model.protected}


def permute_intra(n: int, rng) -> Permutation:
    """Uniform random permutation of n register bits (Fisher-Yates)."""
    if n < 1:
        raise DefenseError("permutation needs n >= 1")
    return Permutation(tuple(int(i) for i in rng.permutation(n)))


def apply_intra_permutation(model: FabricModel, perm: Permutation) -> None:
    """Re-reference the protected bits so bit i lives in the FF of bit perm(i).

    The data inputs are re-wired along with the logical mapping, so the
    logical register value is unchanged once the pipeline reloads.
    """
    if len(perm) != len(model.protected):
        raise DefenseError(
            f"permutation on {len(perm)} bits, register has {len(model.protected)}"
        )
    old = list(model.protected)
    sources = list(model.protected_sources)
    new_assignment = [old[perm(i)] for i in range(len(old))]
    for i, ff_name in enumerate(new_assignment):
        model.ffs[ff_name].d = sources[i]
    model.protected = new_assignment
    model.protected_sources = sources
    model.check_placement()


def configure_polymorphic_lut(f_bits, g_bits) -> tuple[int, ...]:
    """Merge two (k-1)-input truth tables into one k-input LUT init.

    The extra (most significant) input is the control: 0 selects f, 1
    selects g.  Wire the control to the sensor latch net to switch the
    gate's function on detection.
    """
    f_bits = tuple(int(b) for b in f_bits)
    g_bits = tuple(int(b) for b in g_bits)
    if len(f_bits) != len(g_bits):
        raise DefenseError("truth tables must be the same size")
    size = len(f_bits)
    if size < 1 or size & (size - 1):
        raise DefenseError(f"truth table size {size} is not a power of two")
    return f_bits + g_bits


def on_trigger(policy: DefensePolicy, model: FabricModel, sim_time_us: float,
               rng, exclude_sites=()) -> ReconfigEvent | None:
    """React to the latch being set; idempotent on repeated triggers.

    MTD modes return a ReconfigEvent to be applied at its completion time;
    the protected region holds (or zeroes) its outputs until then.
    Polymorphic mode needs no structural change: the latch net itself flips
    every control input.  Zeroize clears the protected bits at the next
    clock edge and keeps them cleared.
    """
    if policy.fired or policy.mode == "none":
        return None
    policy.fired = True
    if policy.mode == "polymorphic":
        return None
    if policy.mode == "zeroize":
        _zeroize(model)
        return None
    old = current_placement(model)
    event = ReconfigEvent(
        fire_time_us=sim_time_us,
        completes_at_us=sim_time_us + policy.pr_latency_us,
        mode=policy.mode,
        old_placement=old,
    )
    if policy.mode == "mtd_inter":
        try:
            event.new_placement = relocate_inter(
                model, policy.allowed_region, rng, exclude_sites
            )
        except CapacityError:
            # Not enough room to move: fall back to destroying the secret.
            policy.mode = "zeroize"
            _zeroize(model)
            return None
    else:
        event.permutation = permute_intra(len(model.protected), rng)
    if policy.mid_pr_state == "hold":
        model.hold_protected = True
    else:
        for name in model.protected:
            model.state[name] = 0
        model.hold_protected = True
    return event


def apply_event(model: FabricModel, event: ReconfigEvent) -> None:
    """Complete a pending reconfiguration: swap in the new placement."""
    if event.applied:
        return
    if event.new_placement is not None:
        apply_placement(model, event.new_placement)
    if event.permutation is not None:
        apply_intra_permutation(model, event.permutation)
        event.new_placement = current_placement(model)
    model.hold_protected = False
    event.applied = True


def _zeroize(model: FabricModel) -> None:
    # Synchronous clear: contents go to 0 at the next edge and the data
    # inputs are grounded so nothing reloads.
    for name in model.protected:
        model.ffs[name].d = "gnd"
        model.ffs[name].ce = "vcc"
        model.ffs[name].rst = "vcc"
    model.zeroized = True
