"""Exact fibered model of a probability space with a conditioning algebra.

A FiberedSpace is a finite list of weighted fibers. Conditioning on the
fiber index plays the role of the coarse algebra, and each fiber carries
its own probability measure on [0, 1] made of point masses plus a
piecewise-constant density. Events are per-fiber interval lists together
with explicit atom picks. All masses are Fractions and every operation
is exact; nothing in this package rounds. Prefix masses, interval
masses and quantiles are read off each fiber's NodeTable, its cumulative
diffuse mass held as ints over a common denominator; a slice's masses
are summed as ints over one denominator, and each public result is one
Fraction.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .intervals import (
    ONE,
    ZERO,
    IntervalList,
    canonical,
    difference,
    intersect,
    is_subset,
    union,
)

FiberFunction = tuple[Fraction, ...]


class InvariantError(ValueError):
    """A structural invariant does not hold; the message names it."""


class MismatchError(ValueError):
    """Operands belong to structurally different spaces or grids."""


def as_fraction(value) -> Fraction:
    """Coerce to Fraction, refusing floats so exactness cannot leak away."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise InvariantError(f"floating point value {value!r} is not exact")
    return Fraction(value)


class NodeTable:
    """Integer image of the piecewise-linear graph through the nodes
    (xs, ys), xs strictly increasing: every x as an int over lx, the lcm
    of the x denominators, every y as an int over ly, and the slope of
    every piece as an int S[j] over ly*W, where W is the lcm of the piece
    widths X[j+1] - X[j].

    reading and preimage bisect those ints instead of comparing
    Fractions, and take and give ints; forward and inverse wrap them for
    Fraction arguments and results. Both are exact: for x = p/q,
    x >= xs[j] holds exactly when p*lx // q >= X[j], and for t = p/q,
    t <= ys[k] exactly when ceil(p*ly / q) <= Y[k].
    """

    __slots__ = ("xs", "ys", "lx", "ly", "X", "Y", "W", "S", "unit")

    def __init__(self, xs, ys):
        self.xs, self.ys = xs, ys
        self.lx = lcm(*(x.denominator for x in xs))
        self.ly = lcm(*(y.denominator for y in ys))
        X = self.X = [x.numerator * (self.lx // x.denominator) for x in xs]
        Y = self.Y = [y.numerator * (self.ly // y.denominator) for y in ys]
        widths = [b - a for a, b in zip(X, X[1:])]
        W = self.W = lcm(*widths)
        self.S = [(b - a) * (W // w) for a, b, w in zip(Y, Y[1:], widths)]
        self.unit = self.ly * W

    def reading(self, p: int, q: int) -> int:
        """The graph's value at p/q, q > 0, as an int over unit*q (unit =
        ly*W); p/q outside [xs[0], xs[-1]] clamps to the end values."""
        X = self.X
        j = bisect_right(X, p * self.lx // q) - 1
        if j < 0:
            return self.Y[0] * self.W * q
        if j == len(X) - 1:
            return self.Y[-1] * self.W * q
        return self.Y[j] * self.W * q + self.S[j] * (p * self.lx - X[j] * q)

    def forward(self, x) -> Fraction:
        """The graph's value at x, clamped like reading."""
        q = x.denominator
        return Fraction(self.reading(x.numerator, q), self.unit * q)

    def spans(self, intervals) -> tuple[list[tuple[int, int]], int]:
        """The graph over each [lo, hi) of intervals, as ints over one
        common denominator den: the value at lo and the rise from lo to
        hi. den is unit times the lcm of the endpoint denominators, so
        it grows with the endpoints' lcm, not their product. Returns
        (pairs, den)."""
        q = lcm(*(x.denominator for pair in intervals for x in pair))
        at = self.reading
        out = []
        for lo, hi in intervals:
            base = at(lo.numerator * (q // lo.denominator), q)
            out.append((base, at(hi.numerator * (q // hi.denominator), q) - base))
        return out, self.unit * q

    def preimage(self, p: int, q: int) -> Fraction:
        """The leftmost x at which the graph, whose ys must be
        nondecreasing, reaches t = p/q, q > 0. The piece holding it is
        the first whose right-end value reaches t; its left-end value is
        below t, so it rises and x never lands inside a flat stretch. t
        at or below ys[0] gives xs[0], and t above ys[-1] clamps to
        xs[-1]."""
        Y = self.Y
        k = bisect_left(Y, -(-p * self.ly // q))
        if k == 0:
            return self.xs[0]
        if k == len(Y):
            return self.xs[-1]
        r = p * self.ly - Y[k - 1] * q  # (t - ys[k-1]) * ly * q
        dy = Y[k] - Y[k - 1]
        if r == dy * q:
            return self.xs[k]
        dx = self.X[k] - self.X[k - 1]
        return Fraction(self.X[k - 1] * q * dy + dx * r, self.lx * q * dy)

    def inverse(self, t) -> Fraction:
        """preimage at the Fraction t."""
        return self.preimage(t.numerator, t.denominator)


@dataclass(frozen=True)
class FiberMeasure:
    """A probability measure on [0, 1]: point masses plus a step density.

    atoms are (location, weight) pairs with strictly increasing
    locations; densities[j] is the constant density on
    [breakpoints[j], breakpoints[j+1]). Atom weights plus the density
    integral must sum to exactly 1.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...] = ()
    breakpoints: tuple[Fraction, ...] = (ZERO, ONE)
    densities: tuple[Fraction, ...] = (ONE,)

    def __post_init__(self):
        object.__setattr__(
            self, "atoms", tuple((as_fraction(l), as_fraction(w)) for l, w in self.atoms)
        )
        object.__setattr__(self, "breakpoints", tuple(as_fraction(x) for x in self.breakpoints))
        object.__setattr__(self, "densities", tuple(as_fraction(d) for d in self.densities))
        bps = self.breakpoints
        if len(bps) < 2 or bps[0] != 0 or bps[-1] != 1:
            raise InvariantError("breakpoints must run from 0 to 1")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise InvariantError("breakpoints must be strictly increasing")
        if len(self.densities) != len(bps) - 1:
            raise InvariantError(
                f"expected {len(bps) - 1} densities for {len(bps)} breakpoints, "
                f"got {len(self.densities)}"
            )
        if any(d < 0 for d in self.densities):
            raise InvariantError("densities must be nonnegative")
        for loc, w in self.atoms:
            if not 0 <= loc <= 1:
                raise InvariantError(f"atom location {loc} outside [0,1]")
            if w <= 0:
                raise InvariantError(f"atom weight {w} must be positive")
        if any(a >= b for (a, _), (b, _) in zip(self.atoms, self.atoms[1:])):
            raise InvariantError("atom locations must be strictly increasing")
        total = self.atom_mass + self.diffuse_total
        if total != 1:
            raise InvariantError(f"fiber mass sums to {total}, expected 1")

    @cached_property
    def atom_mass(self) -> Fraction:
        return sum((w for _, w in self.atoms), ZERO)

    @cached_property
    def diffuse_cumulative(self) -> tuple[Fraction, ...]:
        """Diffuse mass of [0, x_j) at every breakpoint x_j."""
        out = [ZERO]
        for j, d in enumerate(self.densities):
            out.append(out[-1] + d * (self.breakpoints[j + 1] - self.breakpoints[j]))
        return tuple(out)

    @property
    def diffuse_total(self) -> Fraction:
        return self.diffuse_cumulative[-1]

    @cached_property
    def atom_weight(self) -> dict[Fraction, Fraction]:
        return dict(self.atoms)

    @property
    def atom_locations(self) -> tuple[Fraction, ...]:
        return tuple(loc for loc, _ in self.atoms)

    @cached_property
    def table(self) -> NodeTable:
        """The cumulative diffuse mass as an integer node table."""
        return NodeTable(self.breakpoints, self.diffuse_cumulative)

    def prefix_diffuse(self, x) -> Fraction:
        """Diffuse mass of [0, x)."""
        return self.table.forward(as_fraction(x))

    def quantiles(self, levels) -> tuple[Fraction, ...]:
        """For each t of the nondecreasing levels, each in (0, diffuse_total],
        the leftmost y with diffuse mass of [0, y) exactly t. Range and
        order are checked on the table's ints by cross-multiplication."""
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
        """Diffuse mass of the intervals: their rises on the node table,
        summed as ints over one denominator."""
        spans, den = self.table.spans(
            [(as_fraction(lo), as_fraction(hi)) for lo, hi in intervals]
        )
        return Fraction(sum(rise for _, rise in spans), den)

    def pick_mass(self, picks) -> Fraction:
        total = ZERO
        for loc in picks:
            w = self.atom_weight.get(loc)
            if w is None:
                raise InvariantError(f"pick {loc} is not an atom location")
            total += w
        return total

    def mass(self, part: FiberSlice) -> Fraction:
        diffuse = self.diffuse_mass(part.intervals)
        return diffuse + self.pick_mass(part.picks) if part.picks else diffuse


@dataclass(frozen=True)
class FiberSlice:
    """One fiber's share of an event.

    The interval part carries diffuse mass only: a point mass belongs to
    an event only through an explicit pick, so an atom location sitting
    inside an interval but not picked contributes nothing.
    """

    intervals: IntervalList = ()
    picks: tuple[Fraction, ...] = ()

    def __post_init__(self):
        raw = tuple((as_fraction(a), as_fraction(b)) for a, b in self.intervals)
        for a, b in raw:
            if a >= b:
                raise InvariantError(f"interval [{a},{b}) is empty or inverted")
            if a < 0 or b > 1:
                raise InvariantError(f"interval [{a},{b}) outside [0,1]")
        picks = tuple(sorted({as_fraction(p) for p in self.picks}))
        for p in picks:
            if not 0 <= p <= 1:
                raise InvariantError(f"pick {p} outside [0,1]")
        object.__setattr__(self, "intervals", canonical(raw))
        object.__setattr__(self, "picks", picks)

    @classmethod
    def trusted(cls, intervals: IntervalList, picks: tuple[Fraction, ...] = ()) -> FiberSlice:
        """Wrap values that are already canonical Fractions, skipping the
        constructor's coercion; internal fast path for derived slices."""
        out = object.__new__(cls)
        object.__setattr__(out, "intervals", intervals)
        object.__setattr__(out, "picks", picks)
        return out

    @property
    def empty(self) -> bool:
        return not self.intervals and not self.picks


@dataclass(frozen=True)
class EventSet:
    """An event: one canonical FiberSlice per fiber."""

    slices: tuple[FiberSlice, ...]

    def __post_init__(self):
        object.__setattr__(self, "slices", tuple(self.slices))

    @classmethod
    def empty(cls, n_fibers: int) -> EventSet:
        return cls(tuple(FiberSlice() for _ in range(n_fibers)))

    @property
    def n_fibers(self) -> int:
        return len(self.slices)

    @property
    def is_empty(self) -> bool:
        return all(s.empty for s in self.slices)

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
        return self.difference(other).union(other.difference(self))

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
        object.__setattr__(self, "weight", as_fraction(self.weight))
        if self.weight <= 0:
            raise InvariantError(f"fiber weight {self.weight} must be positive")


@dataclass(frozen=True)
class FiberedSpace:
    """Weighted fibers; weights sum to exactly 1."""

    fibers: tuple[Fiber, ...]

    def __post_init__(self):
        object.__setattr__(self, "fibers", tuple(self.fibers))
        if not self.fibers:
            raise InvariantError("a space needs at least one fiber")
        total = sum((f.weight for f in self.fibers), ZERO)
        if total != 1:
            raise InvariantError(f"fiber weights sum to {total}, expected 1")

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
