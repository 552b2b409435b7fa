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


def cumulative_diffuse(breakpoints, densities) -> tuple:
    """Diffuse mass of [0, x) at every breakpoint x, summed on Fractions."""
    out = [Fraction(0)]
    for d, a, b in zip(densities, breakpoints, breakpoints[1:]):
        out.append(out[-1] + d * (b - a))
    return tuple(out)


def fiber_measure_violation(atoms, breakpoints, densities):
    """Reference check of a fiber measure's Fraction fields, in the order
    the constructor checks them: the message of the first invariant
    violated, or None when all hold."""
    bps = breakpoints
    if len(bps) < 2 or bps[0] != 0 or bps[-1] != 1:
        return "breakpoints must run from 0 to 1"
    if any(a >= b for a, b in zip(bps, bps[1:])):
        return "breakpoints must be strictly increasing"
    if len(densities) != len(bps) - 1:
        return f"expected {len(bps) - 1} densities for {len(bps)} breakpoints, got {len(densities)}"
    if any(d < 0 for d in densities):
        return "densities must be nonnegative"
    for loc, w in atoms:
        if not 0 <= loc <= 1:
            return f"atom location {loc} outside [0,1]"
        if w <= 0:
            return f"atom weight {w} must be positive"
    if any(a >= b for (a, _), (b, _) in zip(atoms, atoms[1:])):
        return "atom locations must be strictly increasing"
    total = sum((w for _, w in atoms), Fraction(0)) + cumulative_diffuse(bps, densities)[-1]
    if total != 1:
        return f"fiber mass sums to {total}, expected 1"
    return None


def merged_intervals(pairs) -> tuple:
    """Sorted, with overlapping or touching intervals merged."""
    out = []
    for lo, hi in sorted(pairs):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out)


def fiber_slice_violation(intervals, picks):
    """Reference check of a fiber slice's intervals and picks: the message
    of the first invariant violated, or None when all hold. Picks are
    checked in increasing order."""
    for a, b in intervals:
        if a >= b:
            return f"interval [{a},{b}) is empty or inverted"
        if a < 0 or b > 1:
            return f"interval [{a},{b}) outside [0,1]"
    for p in sorted(set(picks)):
        if not 0 <= p <= 1:
            return f"pick {p} outside [0,1]"
    return None


def cell_violation(fiber, lo, hi):
    """Reference check of one grid cell."""
    if fiber < 0:
        return f"cell fiber index {fiber} is negative"
    if not 0 <= lo <= hi <= 1:
        return f"cell [{lo},{hi}) outside [0,1] or inverted"
    return None


def measure_family_violation(cells, masses, weights):
    """Reference check of a measure family whose cells, each a valid
    (fiber, lo, hi) triple, carry the given mass rows and mixture
    weights: the message of the first invariant violated, or None."""
    if not cells:
        return "a family needs at least one cell"
    if len(set(cells)) != len(cells):
        return "duplicate cells in the grid"
    fibers = []
    for fiber, _, _ in cells:
        if fiber not in fibers:
            fibers.append(fiber)
    for i in fibers:
        spans = sorted((lo, hi) for fiber, lo, hi in cells if fiber == i and lo != hi)
        if any(l1 < h0 for (_, h0), (l1, _) in zip(spans, spans[1:])):
            return f"overlapping cells on fiber {i}"
    if len(masses) != len(weights):
        return f"{len(masses)} measures but {len(weights)} weights"
    if not masses:
        return "a family needs at least one measure"
    for k, row in enumerate(masses):
        if len(row) != len(cells):
            return f"measure {k} covers {len(row)} cells, grid has {len(cells)}"
        if any(v < 0 for v in row):
            return f"measure {k} has a negative cell mass"
        total = sum(row, Fraction(0))
        if total != 1:
            return f"measure {k} masses sum to {total}, expected 1"
    for w in weights:
        if w <= 0:
            return f"mixture weight {w} must be strictly positive"
    total = sum(weights, Fraction(0))
    if total != 1:
        return f"mixture weights sum to {total}, expected 1"
    return None


def mixture_masses(masses, weights) -> tuple:
    """Per cell, the weighted sum of the measures' masses."""
    return tuple(
        sum((w * row[c] for w, row in zip(weights, masses)), Fraction(0))
        for c in range(len(masses[0]))
    )


def intersection_mass_nodes(measure, intervals):
    """Reference nodes (ts, vs) of the map t -> diffuse mass of the
    intervals inside the level set {u < t}, u the fiber's CDF: at every
    breakpoint and interval endpoint y, t = diffuse mass of [0, y) and
    v = diffuse mass of the intervals below y, keeping the first of
    equal ts."""
    ts, vs = [], []
    for y in sorted(set(measure.breakpoints) | {e for iv in intervals for e in iv}):
        t = diffuse_in(measure, [(Fraction(0), y)])
        if not ts or t != ts[-1]:
            ts.append(t)
            vs.append(diffuse_in(measure, [(lo, min(hi, y)) for lo, hi in intervals]))
    return tuple(ts), tuple(vs)


# The generator's draws as first written, on Fractions throughout. The
# generator may compute differently, but for every seed it must make the
# same rng calls in the same order and build equal values.
GENERATOR_DENOMINATORS = (8, 12, 16, 24, 32, 48, 64)


def reference_grid_points(rng, den: int, count: int) -> list:
    ks = rng.sample(range(1, den), min(count, den - 1))
    return sorted(Fraction(k, den) for k in ks)


def reference_measure_fields(rng, max_pieces: int, atom_probability: float):
    """(atoms, breakpoints, densities) of one generated fiber measure:
    a grid of cuts, small raw densities and atom weights, normalized by
    exact division by their total mass."""
    den = rng.choice(GENERATOR_DENOMINATORS)
    pieces = rng.randint(1, max_pieces)
    cuts = reference_grid_points(rng, den, pieces - 1)
    breakpoints = [Fraction(0)] + cuts + [Fraction(1)]
    raw_density = [rng.randint(0, 6) for _ in range(len(breakpoints) - 1)]

    atoms = []
    if rng.random() < atom_probability:
        n_atoms = rng.randint(1, 2)
        locs = rng.sample(range(0, den + 1), n_atoms)
        atoms = [(Fraction(k, den), rng.randint(1, 6)) for k in sorted(locs)]

    def diffuse():
        return sum(
            Fraction(d) * (b - a)
            for d, a, b in zip(raw_density, breakpoints, breakpoints[1:])
        )

    diffuse_raw = diffuse()
    if diffuse_raw == 0 and not atoms:
        raw_density[rng.randrange(len(raw_density))] = 1
        diffuse_raw = diffuse()
    total = diffuse_raw + sum(Fraction(w) for _, w in atoms)
    return (
        tuple((loc, Fraction(w) / total) for loc, w in atoms),
        tuple(breakpoints),
        tuple(Fraction(d) / total for d in raw_density),
    )


def reference_slice_fields(rng, atom_locations):
    """(intervals, picks) of one generated fiber slice: an even number of
    grid points paired in order, and each atom picked with chance 1/2."""
    den = rng.choice(GENERATOR_DENOMINATORS)
    n_pairs = rng.randint(0, 3)
    points = reference_grid_points(rng, den, 2 * n_pairs)
    if len(points) % 2:
        points.pop()
    intervals = tuple(zip(points[0::2], points[1::2]))
    picks = tuple(loc for loc in atom_locations if rng.random() < 0.5)
    return intervals, picks
