"""Conditional atomlessness and exact splitting of events.

The workhorse is split(): given an event C and per-fiber coefficients h
in [0, 1], it returns B inside C whose per-fiber mass is exactly h times
that of C. The construction is a deterministic left fill read off the
fiber's cumulative node table (FiberMeasure.table): one prefix pass
gives each of C's intervals its diffuse mass, and the first interval to
reach the target is cut at the table's inverse, the fiber's inverse CDF,
of the mass still missing.
Point masses can never be cut, so a strict interior target is reachable
only through diffuse mass; when picked atoms make it unreachable the
split raises AtomObstruction instead of approximating.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intervals import ZERO
from .space import (
    EventSet,
    FiberedSpace,
    FiberFunction,
    FiberMeasure,
    FiberSlice,
    InvariantError,
    as_fraction,
)

HALF = Fraction(1, 2)

FiberSet = frozenset[int]


@dataclass(frozen=True)
class AtomWitness:
    """A point mass that breaks conditional atomlessness."""

    fiber: int
    location: Fraction
    weight: Fraction


class AtomObstruction(Exception):
    """An exact split target is unreachable because of a point mass."""

    def __init__(self, fiber: int, location: Fraction):
        super().__init__(f"fiber {fiber}: point mass at {location} blocks an exact split")
        self.fiber = fiber
        self.location = location


def atom_witness(space: FiberedSpace) -> AtomWitness | None:
    """First point mass found in any fiber, or None when there is none."""
    for i, fiber in enumerate(space.fibers):
        if fiber.measure.atoms:
            loc, w = fiber.measure.atoms[0]
            return AtomWitness(i, loc, w)
    return None


def is_conditionally_atomless(space: FiberedSpace) -> bool:
    """True iff no fiber measure carries a point mass.

    In this model that is exactly the condition under which every event
    of positive conditional measure admits a strict conditional
    sub-event on every fiber; the equivalence is exercised by the
    property suite against strict_split_witness.
    """
    return atom_witness(space) is None


def _read(measure: FiberMeasure, intervals) -> tuple[list, Fraction]:
    """One prefix pass over a slice's intervals: for each [lo, hi) the
    diffuse mass of [0, lo) and of [lo, hi), and the slice's total."""
    at = measure.table.forward
    reading = []
    for lo, hi in intervals:
        base = at(lo)
        reading.append((base, at(hi) - base))
    return reading, sum((gain for _, gain in reading), ZERO)


def _left_fill(measure: FiberMeasure, intervals, reading, target: Fraction):
    """Leftmost sub-intervals of the canonical intervals with diffuse mass
    exactly target, 0 < target <= their diffuse mass. The cut is the
    inverse CDF of the mass still missing, the leftmost such point."""
    for k, (base, gain) in enumerate(reading):
        if gain >= target:
            cut = measure.table.inverse(base + target)
            return intervals[:k] + ((intervals[k][0], cut),)
        target -= gain
    raise AssertionError("left fill target exceeds available diffuse mass")


def _split_slice(measure: FiberMeasure, part: FiberSlice, h: Fraction, fiber: int) -> FiberSlice:
    if h == 1:
        return part
    if h == 0:
        return FiberSlice()
    reading, diffuse = _read(measure, part.intervals)
    total = diffuse + measure.pick_mass(part.picks)
    if total == 0:
        return FiberSlice()
    target = h * total
    if target > diffuse:
        # total > diffuse, so the slice holds at least one picked atom
        raise AtomObstruction(fiber, part.picks[0])
    return FiberSlice.trusted(_left_fill(measure, part.intervals, reading, target))


def split(space: FiberedSpace, event: EventSet, coefficients: FiberFunction) -> EventSet:
    """Return B inside the event with, per fiber, mass(B) = h * mass(event).

    Coefficients 0 and 1 are always honoured (empty and full slice, with
    picks kept in the full case). A strict interior coefficient is
    realized by a pure left fill of diffuse mass; if picked atoms make
    the exact target unreachable, AtomObstruction names the first
    offending atom.
    """
    space.validate_event(event)
    hs = tuple(as_fraction(h) for h in coefficients)
    if len(hs) != space.n_fibers:
        raise InvariantError(f"expected {space.n_fibers} coefficients, got {len(hs)}")
    for h in hs:
        if not 0 <= h <= 1:
            raise InvariantError(f"split coefficient {h} outside [0,1]")
    return EventSet(
        tuple(
            _split_slice(f.measure, part, h, i)
            for i, (f, part, h) in enumerate(zip(space.fibers, event.slices, hs))
        )
    )


def _strict_readings(space: FiberedSpace, event: EventSet):
    """Per fiber, the slice's prefix reading and diffuse mass when the
    slice splits strictly, else None. A slice splits strictly unless its
    mass is zero or sits on one atom: it needs diffuse mass or two picks."""
    space.validate_event(event)
    out = []
    for f, part in zip(space.fibers, event.slices):
        reading, diffuse = _read(f.measure, part.intervals)
        out.append((reading, diffuse) if diffuse > 0 or len(part.picks) >= 2 else None)
    return out


def maximal_split_region(space: FiberedSpace, event: EventSet) -> FiberSet:
    """All fibers whose slice of the event admits a strict sub-slice.

    The event splits strictly on every fiber where it has positive mass
    iff this region equals {i : cond_expectation(event)_i > 0}.
    """
    return frozenset(i for i, r in enumerate(_strict_readings(space, event)) if r)


def strict_split_witness(
    space: FiberedSpace, event: EventSet
) -> tuple[EventSet, FiberSet] | None:
    """A sub-event B strictly between empty and the event on every
    splittable fiber, together with that exact fiber set.

    Returns None iff no fiber slice is strictly splittable. On a fiber
    with diffuse mass the witness is the left fill of half the slice
    mass (capped at the diffuse part when atoms carry the rest); on a
    purely atomic slice with two or more picks it keeps the first pick.
    """
    readings = _strict_readings(space, event)
    region = frozenset(i for i, r in enumerate(readings) if r)
    if not region:
        return None
    out = []
    for fiber, part, r in zip(space.fibers, event.slices, readings):
        if r is None:
            out.append(FiberSlice())
        elif r[1] > 0:
            m, (reading, diffuse) = fiber.measure, r
            target = min(diffuse, (diffuse + m.pick_mass(part.picks)) / 2)
            out.append(FiberSlice.trusted(_left_fill(m, part.intervals, reading, target)))
        else:
            out.append(FiberSlice.trusted((), part.picks[:1]))
    return EventSet(tuple(out)), region


def shrink_sequence(
    space: FiberedSpace, event: EventSet, fibers: FiberSet, n: int
) -> list[EventSet]:
    """Nested events B_0 = C, B_1, ..., B_n with mass halved exactly at each
    step on the designated fibers and left untouched elsewhere, so
    0 < mass(B_k) <= 2**-k there."""
    if n < 0:
        raise InvariantError(f"sequence length {n} must be >= 0")
    fibers = frozenset(fibers)
    for i in fibers:
        if not 0 <= i < space.n_fibers:
            raise InvariantError(f"fiber index {i} out of range")
    cond = space.cond_expectation(event)
    for i in fibers:
        if cond[i] == 0:
            raise InvariantError(f"fiber {i} has zero slice mass")
    hs = tuple(HALF if i in fibers else Fraction(1) for i in range(space.n_fibers))
    out = [event]
    for _ in range(n):
        out.append(split(space, out[-1], hs))
    return out
