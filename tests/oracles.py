"""Independent oracles for cross-checking exact results.

These deliberately avoid the library's interval algebra and prefix sums:
membership is a linear scan and masses are Riemann sums on a fixed grid,
exact whenever every endpoint involved is a multiple of the grid step.
"""

from fractions import Fraction


def point_in(intervals, x) -> bool:
    return any(a <= x < b for a, b in intervals)


def density_at(measure, x) -> Fraction:
    for j in range(len(measure.densities)):
        if measure.breakpoints[j] <= x < measure.breakpoints[j + 1]:
            return measure.densities[j]
    return Fraction(0)


def grid_mass(measure, part, k: int = 4096) -> Fraction:
    """Riemann sum on the 1/k grid plus picked atom weights."""
    total = Fraction(0)
    for j in range(k):
        x = Fraction(j, k)
        if point_in(part.intervals, x):
            total += density_at(measure, x) / k
    picked = set(part.picks)
    return total + sum((w for loc, w in measure.atoms if loc in picked), Fraction(0))


def grid_space_measure(space, event, k: int = 4096) -> Fraction:
    return sum(
        (f.weight * grid_mass(f.measure, s, k) for f, s in zip(space.fibers, event.slices)),
        Fraction(0),
    )


def staircase_value(family, fiber: int, y) -> Fraction:
    """The level-n approximant at a point: the smallest stored level whose
    set contains it."""
    for t in family.grid():
        if point_in(family.sets[t].slices[fiber].intervals, y):
            return t
    return Fraction(1)


def density_pieces(measure):
    """(left, right, density) for each constant-density piece, in order."""
    bps = measure.breakpoints
    return list(zip(bps, bps[1:], measure.densities))


def diffuse_in(measure, intervals) -> Fraction:
    """Diffuse mass of an interval list: each interval's overlap with each
    density piece, times that piece's density."""
    total = Fraction(0)
    for lo, hi in intervals:
        for a, b, d in density_pieces(measure):
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                total += d * overlap
    return total


def picked_weight(measure, picks) -> Fraction:
    return sum((w for loc, w in measure.atoms if loc in set(picks)), Fraction(0))


def left_fill(measure, intervals, target):
    """Reference left fill: the leftmost sub-intervals of the canonical
    intervals with diffuse mass exactly target, 0 < target <= available.

    Walks every interval against every density piece from the left and
    cuts inside the first piece whose mass reaches the target; that piece
    has positive density, so the cut is the leftmost such point.
    """
    out = []
    acc = Fraction(0)
    for lo, hi in intervals:
        for a, b, d in density_pieces(measure):
            p, q = max(a, lo), min(b, hi)
            if p >= q:
                continue
            if acc + d * (q - p) >= target:
                out.append((lo, p + (target - acc) / d))
                return tuple(out)
            acc += d * (q - p)
        out.append((lo, hi))
    raise ValueError("left fill target exceeds the available diffuse mass")


def interpolate(xs, ys, x) -> Fraction:
    """Value at x of the graph through the nodes (xs, ys), xs increasing,
    held constant beyond the end nodes: a linear scan of the pieces."""
    if x <= xs[0]:
        return ys[0]
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return ys[-1]


def leftmost_preimage(xs, ys, t) -> Fraction:
    """For nondecreasing ys, the leftmost x at which the graph through the
    nodes reaches t: xs[0] for t at or below ys[0], xs[-1] for t above
    ys[-1], else a solve inside the first piece rising past t."""
    if t <= ys[0]:
        return xs[0]
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        if y0 < t <= y1:
            return x0 + (t - y0) * (x1 - x0) / (y1 - y0)
    return xs[-1]


def pushforward_residuals(space, rv, tests):
    """Reference pushforward residuals: per fiber and test g, the
    integral of g(u(y)) against the fiber measure minus the integral of
    g over [0, 1], u the fiber's CDF in rv.

    Between consecutive points of the fiber's breakpoints, u's nodes and
    u's leftmost preimages of g's nodes, the density is constant, u is
    linear and u's image crosses no node of g, so g(u(y)) is linear
    there and trapezoids against the density are exact; each atom adds
    its weight times g(u(location))."""
    rows = []
    for fiber, u in zip(space.fibers, rv.cdfs):
        m = fiber.measure
        row = []
        for g in tests:

            def gu(y):
                return interpolate(g.xs, g.ys, interpolate(u.xs, u.ys, y))

            cuts = {leftmost_preimage(u.xs, u.ys, t) for t in g.xs}
            pts = sorted(set(m.breakpoints) | set(u.xs) | cuts)
            total = sum((w * gu(loc) for loc, w in m.atoms), Fraction(0))
            for a, b in zip(pts, pts[1:]):
                total += density_at(m, a) * (b - a) * (gu(a) + gu(b)) / 2
            for a, b, ga, gb in zip(g.xs, g.xs[1:], g.ys, g.ys[1:]):
                total -= (b - a) * (ga + gb) / 2
            row.append(total)
        rows.append(tuple(row))
    return tuple(rows)
