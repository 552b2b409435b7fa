"""Exact checks that share no code with condatom's own mass machinery.

Masses come from one loop over a fiber's raw breakpoints, densities and
atoms: every interval is intersected with every density piece. Nothing
here calls prefix_diffuse, diffuse_mass, mass or cond_expectation, and
set relations are decided by point membership rather than by the
library's endpoint sweep, so a fault in those layers cannot hide behind
the check that is meant to catch it.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)


def fiber_mass(measure, intervals, picks=()) -> Fraction:
    """Mass of the intervals (diffuse part only) plus the picked atoms."""
    bps, dens = measure.breakpoints, measure.densities
    total = ZERO
    for a, b in intervals:
        for j, d in enumerate(dens):
            lo = a if a > bps[j] else bps[j]
            hi = b if b < bps[j + 1] else bps[j + 1]
            if lo < hi:
                total += d * (hi - lo)
    weights = dict(measure.atoms)
    for p in picks:
        if p not in weights:
            raise ValueError(f"pick {p} is not an atom location")
        total += weights[p]
    return total


def slice_mass(measure, part) -> Fraction:
    return fiber_mass(measure, part.intervals, part.picks)


def diffuse(measure, part) -> Fraction:
    return fiber_mass(measure, part.intervals)


def event_masses(space, event) -> tuple[Fraction, ...]:
    """Per-fiber mass of an event."""
    if len(event.slices) != len(space.fibers):
        raise ValueError("event and space differ in fiber count")
    return tuple(slice_mass(f.measure, s) for f, s in zip(space.fibers, event.slices))


def point_in(intervals, x) -> bool:
    return any(a <= x < b for a, b in intervals)


def probe_points(*interval_lists) -> list[Fraction]:
    """Every endpoint plus the midpoint of each gap between consecutive
    endpoints, and 0: membership of a finite union of half-open
    intervals is constant between endpoints, so these points decide any
    set relation between the lists exactly."""
    ends = sorted({e for ivs in interval_lists for iv in ivs for e in iv} | {ZERO})
    mids = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    return ends + mids


def is_canonical(intervals) -> bool:
    """Sorted, nonempty, pairwise disjoint and not touching."""
    if any(a >= b for a, b in intervals):
        return False
    return all(b0 < a1 for (_, b0), (a1, _) in zip(intervals, intervals[1:]))


def inside_one(inner, outer) -> bool:
    """Each interval of inner lies inside a single interval of outer."""
    return all(any(c <= a and b <= d for c, d in outer) for a, b in inner)


def slice_inside(inner, outer) -> bool:
    """Set inclusion of two fiber slices, intervals and picks."""
    return set(inner.picks) <= set(outer.picks) and all(
        point_in(outer.intervals, x)
        for x in probe_points(inner.intervals, outer.intervals)
        if point_in(inner.intervals, x)
    )


def combined_ok(result, a, b, keep) -> bool:
    """The result slice is exactly {x : keep(x in a, x in b)}, pointwise
    on intervals and on picks, and in canonical form."""
    if not is_canonical(result.intervals):
        return False
    for x in probe_points(result.intervals, a.intervals, b.intervals):
        want = keep(point_in(a.intervals, x), point_in(b.intervals, x))
        if point_in(result.intervals, x) != want:
            return False
    picks = set(a.picks) | set(b.picks)
    want_picks = sorted(p for p in picks if keep(p in a.picks, p in b.picks))
    return list(result.picks) == want_picks
