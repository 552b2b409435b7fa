"""Half-open interval lists on [0, 1] with exact rational endpoints.

A list is a tuple of (lo, hi) pairs with lo < hi, sorted, pairwise
disjoint, and with touching intervals merged. Boolean operations run an
endpoint sweep, so every result is again canonical and exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

ZERO = Fraction(0)
ONE = Fraction(1)

IntervalList = tuple[tuple[Fraction, Fraction], ...]


def canonical(pairs) -> IntervalList:
    """Sort, drop empty pairs, and merge overlapping or touching intervals."""
    items = sorted((a, b) for a, b in pairs if a < b)
    out: list[list[Fraction]] = []
    for lo, hi in items:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1][1] = hi
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out)


def contains(intervals: IntervalList, x) -> bool:
    """Point membership under the half-open convention."""
    for lo, hi in intervals:
        if x < lo:
            return False
        if x < hi:
            return True
    return False


def sweep(a: IntervalList, b: IntervalList, keep) -> IntervalList:
    """Combine two canonical lists; keep(in_a, in_b) decides per segment.

    A single endpoint walk: each endpoint toggles membership in its own
    list, and the segment up to the next endpoint is kept or dropped.
    Endpoints are ordered by integer keys over their common denominator,
    and the output holds the original endpoint objects.
    """
    den = lcm(*(x.denominator for ivs in (a, b) for iv in ivs for x in iv))
    events = []
    for which, intervals in enumerate((a, b)):
        for lo, hi in intervals:
            events.append((lo.numerator * (den // lo.denominator), which, 1, lo))
            events.append((hi.numerator * (den // hi.denominator), which, -1, hi))
    events.sort()
    kept: list[tuple[Fraction, Fraction]] = []
    in_a = in_b = 0
    prev = prev_key = end_key = None
    for key, which, delta, x in events:
        if prev_key is not None and key != prev_key and keep(in_a, in_b):
            # output arrives sorted and disjoint; merge touching segments
            if end_key == prev_key:
                kept[-1] = (kept[-1][0], x)
            else:
                kept.append((prev, x))
            end_key = key
        if which:
            in_b += delta
        else:
            in_a += delta
        prev, prev_key = x, key
    return tuple(kept)


def union(a: IntervalList, b: IntervalList) -> IntervalList:
    return sweep(a, b, lambda x, y: x or y)


def intersect(a: IntervalList, b: IntervalList) -> IntervalList:
    return sweep(a, b, lambda x, y: x and y)


def difference(a: IntervalList, b: IntervalList) -> IntervalList:
    return sweep(a, b, lambda x, y: x and not y)


def is_subset(a: IntervalList, b: IntervalList) -> bool:
    """Each interval of a must sit inside a single interval of b.

    Endpoints are compared by cross-multiplying their int numerators and
    denominators. The walk reads only the endpoints it reaches, so unlike
    sweep it builds no keys over a common denominator."""
    i = 0
    n = len(b)
    for lo, hi in a:
        p, q = lo.numerator, lo.denominator
        # skip b's intervals that end at or before lo
        while i < n and b[i][1].numerator * q <= p * b[i][1].denominator:
            i += 1
        if i == n:
            return False
        start, end = b[i]
        if start.numerator * q > p * start.denominator:
            return False
        if end.numerator * hi.denominator < hi.numerator * end.denominator:
            return False
    return True


def total_length(intervals: IntervalList) -> Fraction:
    return sum((hi - lo for lo, hi in intervals), ZERO)


def clip(intervals: IntervalList, lo, hi) -> IntervalList:
    """Restrict to [lo, hi)."""
    if lo >= hi:
        return ()
    return intersect(intervals, ((lo, hi),))
