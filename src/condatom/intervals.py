"""Half-open interval lists on [0, 1] with exact rational endpoints.

A list is a tuple of (lo, hi) pairs with lo < hi, sorted, pairwise
disjoint, and with touching intervals merged. Boolean operations merge
the two lists' endpoints, so every result is again canonical and exact.
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


def sweep(a: IntervalList, b: IntervalList, keep) -> IntervalList:
    """Combine two canonical lists; keep(in_a, in_b) decides per segment.

    A linear merge of the two lists' endpoints, each already sorted: the
    k-th endpoint of a list leaves its inside for odd k, and a kept run
    opens and closes where keep's answer changes, so touching kept
    segments come out merged. Endpoints are ordered by integer keys over
    their common denominator, and the output holds the original endpoint
    objects. With an operand empty, the answer is the other list or ().
    """
    if not b:
        return a if a and keep(1, 0) else ()
    if not a:
        return b if keep(0, 1) else ()
    den = lcm(*(x.denominator for ivs in (a, b) for iv in ivs for x in iv))
    xa = [x for iv in a for x in iv]
    xb = [x for iv in b for x in iv]
    ka = [x.numerator * (den // x.denominator) for x in xa]
    kb = [x.numerator * (den // x.denominator) for x in xb]
    stop = max(ka[-1], kb[-1]) + 1
    ka.append(stop)
    kb.append(stop)
    kept: list[tuple[Fraction, Fraction]] = []
    i = j = 0
    start = None
    while True:
        ki, kj = ka[i], kb[j]
        if ki <= kj:
            if ki == stop:
                return tuple(kept)
            x = xa[i]
            i += 1
            if ki == kj:
                j += 1
        else:
            x = xb[j]
            j += 1
        if keep(i & 1, j & 1):
            if start is None:
                start = x
        elif start is not None:
            kept.append((start, x))
            start = None


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

