"""Exactly uniform variable independent of the conditioning fibers.

On an atomless space every level t of the increasing family (B_t) is, on
every fiber, the prefix [0, q_t), where the quantile q_t is the leftmost
y whose diffuse mass of [0, y) is t. build_dyadic_family reads all dyadic
levels off one quantiles call per fiber, so every stored set has per-fiber
mass exactly t on every fiber at once; that constant conditional mass is
what makes the family independent of the fiber index. The paper's
constructive proof, repeated exact halving of the gaps between
consecutive sets, yields the same sets; it is kept in condatom.selftest
as one side of the construction-agreement criterion and pinned set for
set against this family by the unit tests. set_at_level produces any
single level, and level_set the strict level sets of the per-fiber
conditional CDFs that build_uniform packages. Those CDFs are views of
each fiber's own integer node table (FiberMeasure.table, a
space.NodeTable), not copies, so there is one table per fiber; all three
read their prefixes off its preimage and do their range checks on its
ints by cross-multiplication, comparing no Fractions. level_scan finds a
level whose intersection with a given event is conditionally strictly
between empty and full.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intervals import ONE, ZERO, intersect
from .piecewise import PiecewiseLinear
from .space import (
    EventSet,
    FiberedSpace,
    FiberSlice,
    InvariantError,
    as_fraction,
)
from .splitting import AtomObstruction, atom_witness


@dataclass(frozen=True)
class DyadicFamily:
    """Increasing events keyed by dyadic levels k / 2**depth."""

    depth: int
    sets: dict[Fraction, EventSet]

    def __post_init__(self):
        if self.depth < 0:
            raise InvariantError(f"depth {self.depth} must be >= 0")
        if ZERO not in self.sets or ONE not in self.sets:
            raise InvariantError("family must contain levels 0 and 1")

    def grid(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.sets))

    def at(self, t) -> EventSet:
        return self.sets[as_fraction(t)]


@dataclass(frozen=True)
class UniformRV:
    """Per-fiber conditional CDFs y -> mass of [0, y); each nondecreasing.
    The checks read each CDF's node table: ys[0] = 0 exactly when Y[0]
    is 0, and ys[-1] <= 1 exactly when Y[-1] <= ly."""

    cdfs: tuple[PiecewiseLinear, ...]

    def __post_init__(self):
        object.__setattr__(self, "cdfs", tuple(self.cdfs))
        for u in self.cdfs:
            table = u.table
            if table.Y[0] != 0:
                raise InvariantError("a conditional CDF must start at 0")
            if not u.nondecreasing:
                raise InvariantError("a conditional CDF must be nondecreasing")
            if table.Y[-1] > table.ly:
                raise InvariantError("a conditional CDF cannot exceed 1")


def _require_atomless(space: FiberedSpace):
    w = atom_witness(space)
    if w is not None:
        raise AtomObstruction(w.fiber, w.location)


def build_dyadic_family(space: FiberedSpace, depth: int) -> DyadicFamily:
    """All levels k / 2**depth at once: per fiber, one quantiles call over
    the sorted levels gives the prefix [0, q_t) of every level t strictly
    between 0 and 1; level 0 is empty and level 1 the whole space."""
    _require_atomless(space)
    if depth < 0:
        raise InvariantError(f"depth {depth} must be >= 0")
    levels = [Fraction(k, 2**depth) for k in range(1, 2**depth)]
    per_fiber = [f.measure.quantiles(levels) for f in space.fibers]
    sets = {ZERO: space.empty_event(), ONE: space.whole_event()}
    for k, t in enumerate(levels):
        sets[t] = EventSet(tuple(FiberSlice.trusted(((ZERO, qs[k]),)) for qs in per_fiber))
    return DyadicFamily(depth, sets)


def set_at_level(space: FiberedSpace, t) -> EventSet:
    """The event of per-fiber mass exactly t: on every fiber the prefix
    [0, q_t) read off the fiber's node table. A fiber whose diffuse mass is
    below t cannot reach it, since point masses cannot be cut; its first
    atom is named in the AtomObstruction. With t = p/q, both range checks
    cross-multiply p and q against the table's ints."""
    t = as_fraction(t)
    p, q = t.numerator, t.denominator
    if not 0 <= p <= q:
        raise InvariantError(f"level {t} outside [0,1]")
    if p == 0:
        return space.empty_event()
    if p == q:
        return space.whole_event()
    out = []
    for i, fiber in enumerate(space.fibers):
        m = fiber.measure
        table = m.table
        if p * table.ly > table.Y[-1] * q:
            raise AtomObstruction(i, m.atoms[0][0])
        out.append(FiberSlice.trusted(((ZERO, table.preimage(p, q)),)))
    return EventSet(tuple(out))


def build_uniform(space: FiberedSpace) -> UniformRV:
    """Per-fiber conditional CDFs of an atomless space, each a view of
    the fiber's own node table."""
    _require_atomless(space)
    return UniformRV(tuple(PiecewiseLinear.of_table(f.measure.table) for f in space.fibers))


def level_set(rv: UniformRV, t) -> EventSet:
    """The event {u < t}, per fiber a prefix [0, y) of the line, with y
    the leftmost preimage of t in the node table of the fiber's CDF; t
    above the CDF's last value gives the whole line [0, 1)."""
    t = as_fraction(t)
    p, q = t.numerator, t.denominator
    out = []
    for u in rv.cdfs:
        table = u.table
        if p <= 0:
            out.append(FiberSlice())
        elif p * table.ly > table.Y[-1] * q:
            out.append(FiberSlice.trusted(((ZERO, ONE),)))
        else:
            out.append(FiberSlice.trusted(((ZERO, table.preimage(p, q)),)))
    return EventSet(tuple(out))


def intersection_mass_curves(space: FiberedSpace, event: EventSet) -> tuple[PiecewiseLinear, ...]:
    """Per fiber, the map t -> mass of (event slice) inside the level set
    {u < t}, as an exact piecewise-linear function on [0, 1].

    Nodes are the CDF values at the fiber's breakpoints and at the event
    slice's endpoints; between consecutive nodes the mass grows linearly
    (at unit rate inside the slice, flat outside), so interpolation is
    exact. Requires an atomless space.
    """
    _require_atomless(space)
    space.validate_event(event)
    curves = []
    for fiber, part in zip(space.fibers, event.slices):
        m = fiber.measure
        ys = sorted(set(m.breakpoints) | {e for iv in part.intervals for e in iv})
        pts = []
        for y in ys:
            t = m.table.forward(y)
            v = m.diffuse_mass(intersect(part.intervals, ((ZERO, y),))) if y > 0 else ZERO
            pts.append((t, v))
        curves.append(PiecewiseLinear.from_graph(pts))
    return tuple(curves)


def level_scan(space: FiberedSpace, event: EventSet):
    """Find a level t in (0, 1) whose intersection with the event has,
    on a nonempty set of fibers, mass strictly between 0 and the slice
    mass; returns (t, fibers) or None when the event has mass 0.

    Deterministic choice: the midpoint of the first gap between curve
    nodes where the strict sandwich holds on some fiber.
    """
    cond = space.cond_expectation(event)
    if all(c == 0 for c in cond):
        return None
    curves = intersection_mass_curves(space, event)
    ts = sorted({x for curve in curves for x in curve.xs})
    for t0, t1 in zip(ts, ts[1:]):
        mid = (t0 + t1) / 2
        fibers = frozenset(
            i for i, curve in enumerate(curves) if 0 < curve.at(mid) < cond[i]
        )
        if fibers:
            return mid, fibers
    raise AssertionError("no strict level found for an event of positive mass")
