"""Exactly uniform variable independent of the conditioning fibers.

On an atomless space every level t of the increasing family (B_t) is, on
every fiber, the prefix [0, q_t), where the quantile q_t is the leftmost
y whose diffuse mass of [0, y) is t. set_at_level produces any single
level, and build_dyadic_family stores set_at_level at every dyadic
level, so every stored set has per-fiber mass exactly t on every fiber
at once; that constant conditional mass is what makes the family
independent of the fiber index. The paper's constructive proof,
repeated exact halving of the gaps between consecutive sets, yields the
same sets; it is kept in condatom.selftest as one side of the
construction-agreement criterion and pinned set for set against this
family by the unit tests. build_uniform packages the per-fiber
conditional CDFs, and level_set gives their strict level sets. Each CDF
is the fiber's own table (FiberMeasure.table), the one PiecewiseLinear
of its cumulative diffuse mass; set_at_level and level_set read their
prefixes off its preimage and do their range checks on its integer
image by cross-multiplication, comparing no Fractions. level_scan finds
a level whose intersection with a given event is conditionally strictly
between empty and full.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intervals import ONE, ZERO, int_keys
from .piecewise import PiecewiseLinear
from .space import (
    EMPTY_SLICE,
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
    The checks read each CDF's integer image: ys[0] = 0 exactly when Y[0]
    is 0, and ys[-1] <= 1 exactly when Y[-1] <= ly."""

    cdfs: tuple[PiecewiseLinear, ...]

    def __post_init__(self):
        object.__setattr__(self, "cdfs", tuple(self.cdfs))
        for u in self.cdfs:
            if u.Y[0] != 0:
                raise InvariantError("a conditional CDF must start at 0")
            if not u.nondecreasing:
                raise InvariantError("a conditional CDF must be nondecreasing")
            if u.Y[-1] > u.ly:
                raise InvariantError("a conditional CDF cannot exceed 1")


def _require_atomless(space: FiberedSpace):
    w = atom_witness(space)
    if w is not None:
        raise AtomObstruction(w.fiber, w.location)


def build_dyadic_family(space: FiberedSpace, depth: int) -> DyadicFamily:
    """set_at_level at every level k / 2**depth: level 0 is empty, level 1
    the whole space, and every level t between is, per fiber, the prefix
    [0, q_t)."""
    _require_atomless(space)
    if depth < 0:
        raise InvariantError(f"depth {depth} must be >= 0")
    levels = (Fraction(k, 2**depth) for k in range(2**depth + 1))
    return DyadicFamily(depth, {t: set_at_level(space, t) for t in levels})


def set_at_level(space: FiberedSpace, t) -> EventSet:
    """The event of per-fiber mass exactly t: on every fiber the prefix
    [0, q_t) read off the fiber's table. A fiber whose diffuse mass is
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
    """Per-fiber conditional CDFs of an atomless space: the fibers' own
    tables."""
    _require_atomless(space)
    return UniformRV(tuple(f.measure.table for f in space.fibers))


def level_set(rv: UniformRV, t) -> EventSet:
    """The event {u < t}, per fiber a prefix [0, y) of the line, with y
    the leftmost preimage of t under the fiber's CDF; t above the CDF's
    last value gives the whole line [0, 1), where preimage clamps."""
    t = as_fraction(t)
    p, q = t.numerator, t.denominator
    if p <= 0:
        return EventSet((EMPTY_SLICE,) * len(rv.cdfs))
    return EventSet(tuple(FiberSlice.trusted(((ZERO, u.preimage(p, q)),)) for u in rv.cdfs))


def intersection_mass_curves(space: FiberedSpace, event: EventSet) -> tuple[PiecewiseLinear, ...]:
    """Per fiber, the map t -> mass of (event slice) inside the level set
    {u < t}, as an exact piecewise-linear function on [0, 1].

    Nodes are the CDF values at the fiber's breakpoints and at the event
    slice's endpoints; between consecutive nodes the mass grows linearly
    (at unit rate inside the slice, flat outside), so interpolation is
    exact. One walk per fiber over those points, as ints over one
    denominator, reads the CDF at each and adds its rise across every
    stretch inside the slice. Requires an atomless space.
    """
    _require_atomless(space)
    space.validate_event(event)
    curves = []
    for fiber, part in zip(space.fibers, event.slices):
        table = fiber.measure.table
        ends = [e for iv in part.intervals for e in iv]
        q, keys = int_keys(sorted(set(table.xs).union(ends)))
        end_keys = [e.numerator * (q // e.denominator) for e in ends]
        den = table.unit * q
        ts, vs = [], []
        t_prev = v = k = 0
        for key in keys:
            t = table.reading(key, q)
            if k & 1:  # the stretch just walked lies inside the slice
                v += t - t_prev
            if k < len(end_keys) and end_keys[k] == key:
                k += 1
            if not ts or t != t_prev:
                ts.append(Fraction(t, den))
                vs.append(Fraction(v, den))
            t_prev = t
        curves.append(PiecewiseLinear(tuple(ts), tuple(vs)))
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
