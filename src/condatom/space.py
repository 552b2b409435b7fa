"""Exact fibered model of a probability space with a conditioning algebra.

A FiberedSpace is a finite list of weighted fibers. Conditioning on the
fiber index plays the role of the coarse algebra, and each fiber carries
its own probability measure on [0, 1] made of point masses plus a
piecewise-constant density. Events are per-fiber interval lists together
with explicit atom picks. All masses are Fractions and every operation
is exact; nothing in this package rounds. Prefix masses, interval
masses and quantiles are read off each fiber's table, its cumulative
diffuse mass as a PiecewiseLinear, whose integer image holds the nodes
as ints over common denominators; a slice's masses are summed as ints
over one denominator, and each public result is one Fraction.
InvariantError and as_fraction live in intervals and are re-exported
here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .intervals import (
    ONE,
    ZERO,
    IntervalList,
    InvariantError,
    as_fraction,
    canonical,
    difference,
    int_keys,
    intersect,
    is_subset,
    sweep,
    union,
)
from .piecewise import PiecewiseLinear

FiberFunction = tuple[Fraction, ...]


class MismatchError(ValueError):
    """Operands belong to structurally different spaces or grids."""


def as_fractions(values) -> tuple[Fraction, ...]:
    """values as a tuple of Fractions: a tuple that holds only Fractions
    as it is, anything else coerced entry by entry with as_fraction."""
    if type(values) is tuple:
        for x in values:
            if type(x) is not Fraction:
                break
        else:
            return values
    return tuple(map(as_fraction, values))


def as_fraction_pairs(pairs) -> tuple[tuple[Fraction, Fraction], ...]:
    """pairs as a tuple of Fraction pairs: as it is when it already is
    one, anything else coerced pair by pair with as_fraction."""
    if type(pairs) is tuple:
        for p in pairs:
            if type(p) is not tuple or len(p) != 2 or not type(p[0]) is type(p[1]) is Fraction:
                break
        else:
            return pairs
    return tuple([(as_fraction(a), as_fraction(b)) for a, b in pairs])


@dataclass(frozen=True)
class FiberMeasure:
    """A probability measure on [0, 1]: point masses plus a step density.

    atoms are (location, weight) pairs with strictly increasing
    locations; densities[j] is the constant density on
    [breakpoints[j], breakpoints[j+1]). Atom weights plus the density
    integral must sum to exactly 1. diffuse_cumulative[j] is the diffuse
    mass of [0, breakpoints[j]), and table is the cumulative diffuse
    mass, y -> mass of [0, y), as a piecewise-linear graph through the
    breakpoints. The constructor coerces only values that are not
    Fractions, checks every invariant and sums the cumulative mass on
    ints over common denominators, and hands those ints to the table as
    its integer image.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...] = ()
    breakpoints: tuple[Fraction, ...] = (ZERO, ONE)
    densities: tuple[Fraction, ...] = (ONE,)

    def __post_init__(self):
        atoms = as_fraction_pairs(self.atoms)
        bps = as_fractions(self.breakpoints)
        densities = as_fractions(self.densities)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "densities", densities)
        lx, X = int_keys(bps)
        if len(X) < 2 or X[0] != 0 or X[-1] != lx:
            raise InvariantError("breakpoints must run from 0 to 1")
        if not all(map(operator.lt, X, X[1:])):
            raise InvariantError("breakpoints must be strictly increasing")
        if len(densities) != len(bps) - 1:
            raise InvariantError(
                f"expected {len(bps) - 1} densities for {len(bps)} breakpoints, "
                f"got {len(densities)}"
            )
        dd, dens = int_keys(densities)
        if min(dens) < 0:
            raise InvariantError("densities must be nonnegative")
        for loc, w in atoms:
            if not 0 <= loc.numerator <= loc.denominator:
                raise InvariantError(f"atom location {loc} outside [0,1]")
            if w.numerator <= 0:
                raise InvariantError(f"atom weight {w} must be positive")
        if len(atoms) > 1 and any(
            a.numerator * b.denominator >= b.numerator * a.denominator
            for (a, _), (b, _) in zip(atoms, atoms[1:])
        ):
            raise InvariantError("atom locations must be strictly increasing")
        # the cumulative diffuse mass as ints over den = dd*lx, dd the lcm
        # of the density denominators, and the atom weights over la
        cum = [0]
        for d, a, b in zip(dens, X, X[1:]):
            cum.append(cum[-1] + d * (b - a))
        den = dd * lx
        la, weights = int_keys([w for _, w in atoms]) if atoms else (1, ())
        total = sum(weights) * den + cum[-1] * la
        if total != la * den:
            raise InvariantError(f"fiber mass sums to {Fraction(total, la * den)}, expected 1")
        # over ly = den/g, the lcm of the masses' reduced denominators
        g = gcd(den, *cum)
        ly, Y = den // g, [c // g for c in cum]
        ys = tuple([Fraction(c, ly) for c in Y])
        object.__setattr__(self, "diffuse_cumulative", ys)
        object.__setattr__(self, "table", PiecewiseLinear.trusted(bps, ys, (lx, X, ly, Y)))

    @cached_property
    def atom_weight(self) -> dict[Fraction, Fraction]:
        return dict(self.atoms)

    @cached_property
    def atom_locations(self) -> tuple[Fraction, ...]:
        return tuple(loc for loc, _ in self.atoms)

    def prefix_diffuse(self, x) -> Fraction:
        """Diffuse mass of [0, x)."""
        return self.table.forward(as_fraction(x))

    def quantiles(self, levels) -> tuple[Fraction, ...]:
        """For each t of the nondecreasing levels, each in (0, d] for d the
        fiber's diffuse mass diffuse_cumulative[-1], the leftmost y with
        diffuse mass of [0, y) exactly t. Range and order are checked on
        the table's integer image by cross-multiplication."""
        table = self.table
        Y, ly = table.Y, table.ly
        out = []
        prev_p, prev_q = Y[0], ly
        for t in map(as_fraction, levels):
            p, q = t.numerator, t.denominator
            if not Y[0] * q < p * ly <= Y[-1] * q or p * prev_q < prev_p * q:
                ys = self.diffuse_cumulative
                raise InvariantError(
                    f"quantile levels must be nondecreasing in ({ys[0]}, {ys[-1]}], got {t}"
                )
            prev_p, prev_q = p, q
            out.append(table.preimage(p, q))
        return tuple(out)

    def diffuse_mass(self, intervals: IntervalList) -> Fraction:
        """Diffuse mass of the intervals: the total of their rises on the
        table, an int over one denominator."""
        _, total, den = self.table.spans(
            [(as_fraction(lo), as_fraction(hi)) for lo, hi in intervals]
        )
        return Fraction(total, den)

    def pick_mass(self, picks) -> Fraction:
        total = ZERO
        for loc in picks:
            w = self.atom_weight.get(loc)
            if w is None:
                raise InvariantError(f"pick {loc} is not an atom location")
            total += w
        return total

    def mass(self, part: FiberSlice) -> Fraction:
        _, total, den = self.table.spans(part.intervals)
        diffuse = Fraction(total, den)
        return diffuse + self.pick_mass(part.picks) if part.picks else diffuse


@dataclass(frozen=True, slots=True)
class FiberSlice:
    """One fiber's share of an event.

    The interval part carries diffuse mass only: a point mass belongs to
    an event only through an explicit pick, so an atom location sitting
    inside an interval but not picked contributes nothing. The
    constructor checks order and range by cross-multiplying, and keeps
    intervals and picks that are already canonical and sorted as given.
    """

    intervals: IntervalList = ()
    picks: tuple[Fraction, ...] = ()

    def __post_init__(self):
        raw = as_fraction_pairs(self.intervals)
        ordered = True  # sorted with gaps between, as canonical leaves them
        pn, pd = -1, 1  # the previous end, -1 before the first interval
        for a, b in raw:
            an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
            if an * bd >= bn * ad:
                raise InvariantError(f"interval [{a},{b}) is empty or inverted")
            if an < 0 or bn > bd:
                raise InvariantError(f"interval [{a},{b}) outside [0,1]")
            if an * pd <= pn * ad:
                ordered = False
            pn, pd = bn, bd
        picks = as_fractions(self.picks)
        if len(picks) > 1 and any(
            p.numerator * q.denominator >= q.numerator * p.denominator
            for p, q in zip(picks, picks[1:])
        ):
            picks = tuple(sorted(set(picks)))
        for p in picks:
            if not 0 <= p.numerator <= p.denominator:
                raise InvariantError(f"pick {p} outside [0,1]")
        _set_intervals(self, raw if ordered else canonical(raw))
        _set_picks(self, picks)

    @classmethod
    def trusted(cls, intervals: IntervalList, picks: tuple[Fraction, ...] = ()) -> FiberSlice:
        """Wrap values that are already canonical Fractions, skipping the
        constructor's coercion and checks; the internal fast path for
        derived slices sets both slots through their descriptors."""
        out = object.__new__(cls)
        _set_intervals(out, intervals)
        _set_picks(out, picks)
        return out

    @property
    def empty(self) -> bool:
        return not self.intervals and not self.picks


_set_intervals = FiberSlice.intervals.__set__
_set_picks = FiberSlice.picks.__set__

# The empty slice, shared: slices are immutable, so one object serves
# every empty fiber of every event.
EMPTY_SLICE = FiberSlice.trusted(())


@dataclass(frozen=True, slots=True)
class EventSet:
    """An event: one canonical FiberSlice per fiber. slices is kept as
    given when it is a tuple, and made one otherwise."""

    slices: tuple[FiberSlice, ...]

    def __post_init__(self):
        if type(self.slices) is not tuple:
            object.__setattr__(self, "slices", tuple(self.slices))

    @classmethod
    def empty(cls, n_fibers: int) -> EventSet:
        return cls((EMPTY_SLICE,) * n_fibers)

    @property
    def n_fibers(self) -> int:
        return len(self.slices)

    def _check(self, other: EventSet):
        if len(self.slices) != len(other.slices):
            raise MismatchError(
                f"events span {len(self.slices)} and {len(other.slices)} fibers"
            )

    def _per_fiber(self, other: EventSet, intervals_op, picks_op) -> EventSet:
        """Apply one set operation fiber by fiber: intervals_op to the
        interval lists, picks_op to the pick sets."""
        self._check(other)
        return EventSet(
            tuple(
                FiberSlice.trusted(
                    intervals_op(a.intervals, b.intervals),
                    tuple(sorted(picks_op(set(a.picks), set(b.picks))))
                    if a.picks or b.picks
                    else (),
                )
                for a, b in zip(self.slices, other.slices)
            )
        )

    def union(self, other: EventSet) -> EventSet:
        return self._per_fiber(other, union, operator.or_)

    def intersect(self, other: EventSet) -> EventSet:
        return self._per_fiber(other, intersect, operator.and_)

    def difference(self, other: EventSet) -> EventSet:
        return self._per_fiber(other, difference, operator.sub)

    def symmetric_difference(self, other: EventSet) -> EventSet:
        return self._per_fiber(other, lambda a, b: sweep(a, b, operator.ne), operator.xor)

    def is_subset(self, other: EventSet) -> bool:
        self._check(other)
        for a, b in zip(self.slices, other.slices):
            if a.picks and not set(a.picks) <= set(b.picks):
                return False
            if not is_subset(a.intervals, b.intervals):
                return False
        return True


@dataclass(frozen=True)
class Fiber:
    weight: Fraction
    measure: FiberMeasure

    def __post_init__(self):
        weight = self.weight
        if type(weight) is not Fraction:
            weight = as_fraction(weight)
            object.__setattr__(self, "weight", weight)
        if weight.numerator <= 0:
            raise InvariantError(f"fiber weight {weight} must be positive")


@dataclass(frozen=True)
class FiberedSpace:
    """Weighted fibers; weights sum to exactly 1, checked on ints over
    their common denominator."""

    fibers: tuple[Fiber, ...]

    def __post_init__(self):
        fibers = tuple(self.fibers)
        object.__setattr__(self, "fibers", fibers)
        if not fibers:
            raise InvariantError("a space needs at least one fiber")
        den, weights = int_keys([f.weight for f in fibers])
        if sum(weights) != den:
            raise InvariantError(
                f"fiber weights sum to {Fraction(sum(weights), den)}, expected 1"
            )

    @property
    def n_fibers(self) -> int:
        return len(self.fibers)

    def validate_event(self, event: EventSet):
        """Check that event is structurally compatible with this space."""
        if event.n_fibers != self.n_fibers:
            raise MismatchError(
                f"event spans {event.n_fibers} fibers, space has {self.n_fibers}"
            )
        for i, (fiber, part) in enumerate(zip(self.fibers, event.slices)):
            known = fiber.measure.atom_weight
            for p in part.picks:
                if p not in known:
                    raise InvariantError(f"pick {p} on fiber {i} is not an atom location")

    def empty_event(self) -> EventSet:
        return EventSet.empty(self.n_fibers)

    def whole_event(self) -> EventSet:
        """The full space: [0, 1) plus every atom, per fiber."""
        return EventSet(
            tuple(
                FiberSlice.trusted(((ZERO, ONE),), f.measure.atom_locations)
                for f in self.fibers
            )
        )

    def cond_expectation(self, event: EventSet) -> FiberFunction:
        """Per-fiber mass of the event, i.e. the conditional expectation of
        its indicator given the fiber index."""
        self.validate_event(event)
        return tuple(f.measure.mass(s) for f, s in zip(self.fibers, event.slices))

    def measure(self, event: EventSet) -> Fraction:
        """Total probability: the weight-average of the per-fiber masses."""
        self.validate_event(event)
        return sum(
            (f.weight * f.measure.mass(s) for f, s in zip(self.fibers, event.slices)), ZERO
        )
