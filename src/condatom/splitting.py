"""Conditional atomlessness and exact splitting of events.

The workhorse is split(): given an event C and per-fiber coefficients h
in [0, 1], it returns B inside C whose per-fiber mass is exactly h times
that of C. The construction is a deterministic left fill read off the
fiber's cumulative node table (FiberMeasure.table): one prefix pass
gives each of C's intervals its diffuse mass, and the first interval to
reach the target is cut at the table's preimage, the fiber's inverse
CDF, of the mass still missing. The pass reads every mass as an int over
one denominator per slice, the target and its comparisons are made by
cross-multiplying ints, and the only Fraction built is the cut.
Point masses can never be cut, so a strict interior target is reachable
only through diffuse mass; when picked atoms make it unreachable the
split raises AtomObstruction instead of approximating.

The fibers' point masses are read in one place, kernel_atom_scan: its
KernelReport gives every atom verdict, and verdict_holds tests such a
verdict against split and strict_split_witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intervals import ONE, ZERO
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


@dataclass(frozen=True)
class KernelReport:
    """Per-fiber atom lists; atomless iff all of them are empty. This is
    the one reading of the fibers' point masses: every atom verdict
    (atom_witness, is_conditionally_atomless, the uniform side's
    refusal) is taken from it."""

    fiber_atoms: tuple[tuple[tuple[Fraction, Fraction], ...], ...]

    @property
    def atomless(self) -> bool:
        return all(not atoms for atoms in self.fiber_atoms)

    @property
    def witness(self) -> AtomWitness | None:
        """The first atom of the first fiber that has one, or None."""
        for i, atoms in enumerate(self.fiber_atoms):
            if atoms:
                loc, w = atoms[0]
                return AtomWitness(i, loc, w)
        return None


def kernel_atom_scan(space: FiberedSpace) -> KernelReport:
    """Exact enumeration of every fiber's point masses."""
    return KernelReport(tuple(f.measure.atoms for f in space.fibers))


def atom_witness(space: FiberedSpace) -> AtomWitness | None:
    """First point mass found in any fiber, or None when there is none."""
    return kernel_atom_scan(space).witness


def is_conditionally_atomless(space: FiberedSpace) -> bool:
    """True iff no fiber measure carries a point mass.

    In this model that is exactly the condition under which every event
    of positive conditional measure admits a strict conditional
    sub-event on every fiber; verdict_holds checks the verdict against
    that splitting behaviour.
    """
    return kernel_atom_scan(space).atomless


def _read(measure: FiberMeasure, intervals) -> tuple[list, int, int]:
    """One prefix pass over a slice's intervals, read off the fiber's node
    table as ints over one common denominator den: for each [lo, hi) the
    diffuse mass of [0, lo) and of [lo, hi), then the slice's diffuse
    mass, then den."""
    spans, den = measure.table.spans(intervals)
    return spans, sum(gain for _, gain in spans), den


def _left_fill(measure: FiberMeasure, intervals, reading, target: int, scale: int):
    """Leftmost sub-intervals of the canonical intervals with diffuse mass
    exactly target / (den * scale), 0 < target <= their diffuse mass,
    where reading = _read(measure, intervals) is over den. The cut is the
    inverse CDF of the mass still missing, the leftmost such point."""
    spans, _, den = reading
    for k, (base, gain) in enumerate(spans):
        gain *= scale
        if gain >= target:
            cut = measure.table.preimage(base * scale + target, den * scale)
            return intervals[:k] + ((intervals[k][0], cut),)
        target -= gain
    raise AssertionError("left fill target exceeds available diffuse mass")


def _slice_mass(measure: FiberMeasure, part: FiberSlice, reading) -> tuple[int, int]:
    """The slice's mass, diffuse plus picked, as an int over den * b, where
    reading = _read(measure, part.intervals) is over den and b is the
    picked mass's denominator. Returns the int and b."""
    _, diffuse, den = reading
    picked = measure.pick_mass(part.picks)
    return diffuse * picked.denominator + picked.numerator * den, picked.denominator


def _split_slice(measure: FiberMeasure, part: FiberSlice, h: Fraction, fiber: int) -> FiberSlice:
    if h.numerator == h.denominator:
        return part
    if not h.numerator:
        return FiberSlice()
    reading = _read(measure, part.intervals)
    total, b = _slice_mass(measure, part, reading)
    if total == 0:
        return FiberSlice()
    # h times the slice mass, over den * b * h.denominator
    target, scale = h.numerator * total, b * h.denominator
    if target > reading[1] * scale:
        # total > diffuse, so the slice holds at least one picked atom
        raise AtomObstruction(fiber, part.picks[0])
    return FiberSlice.trusted(_left_fill(measure, part.intervals, reading, target, scale))


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
        if not 0 <= h.numerator <= h.denominator:
            raise InvariantError(f"split coefficient {h} outside [0,1]")
    return EventSet(
        tuple(
            _split_slice(f.measure, part, h, i)
            for i, (f, part, h) in enumerate(zip(space.fibers, event.slices, hs))
        )
    )


def _strict_readings(space: FiberedSpace, event: EventSet):
    """Per fiber, the slice's _read when the slice splits strictly, else
    None. A slice splits strictly unless its mass is zero or sits on one
    atom: it needs diffuse mass or two picks."""
    space.validate_event(event)
    out = []
    for f, part in zip(space.fibers, event.slices):
        reading = _read(f.measure, part.intervals)
        out.append(reading if reading[1] > 0 or len(part.picks) >= 2 else None)
    return out


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
            m = fiber.measure
            total, b = _slice_mass(m, part, r)
            # min(diffuse, total / 2) over den * 2b
            target = min(2 * b * r[1], total)
            out.append(FiberSlice.trusted(_left_fill(m, part.intervals, r, target, 2 * b)))
        else:
            out.append(FiberSlice.trusted((), part.picks[:1]))
    return EventSet(tuple(out)), region


def verdict_holds(space: FiberedSpace, report: KernelReport) -> bool:
    """Test the report's atom verdict against splitting behaviour, with
    one event either way. A witness atom, picked alone, must be an event
    of positive mass (its weight) with no strict split, whose exact half
    split is blocked by that very atom. An atomless verdict needs the
    interval-only event [0, 1) to carry mass exactly 1 on every fiber,
    which leaves no point mass anywhere."""
    w = report.witness
    if w is None:
        line = EventSet(tuple(FiberSlice.trusted(((ZERO, ONE),)) for _ in space.fibers))
        return all(c == 1 for c in space.cond_expectation(line))
    if not 0 <= w.fiber < space.n_fibers:
        return False
    slices = [FiberSlice()] * space.n_fibers
    slices[w.fiber] = FiberSlice.trusted((), (w.location,))
    alone = EventSet(tuple(slices))
    try:
        if not 0 < space.cond_expectation(alone)[w.fiber] == w.weight:
            return False
        if strict_split_witness(space, alone) is not None:
            return False
        split(space, alone, (HALF,) * space.n_fibers)
    except AtomObstruction as e:
        return (e.fiber, e.location) == (w.fiber, w.location)
    except InvariantError:
        return False
    return False


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
