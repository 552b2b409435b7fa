"""The integer node table, the integer-keyed sweep and is_subset against
plain-Fraction references from tests/oracles.py."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import diffuse_in, interpolate, leftmost_preimage, point_in

from condatom import intervals as iv
from condatom.cli import MAX_CHAIN
from condatom.generate import generate_positive_event, generate_space
from condatom.piecewise import PiecewiseLinear
from condatom.selftest import FULL_ATOMLESS, FULL_MIXED
from condatom.space import FiberMeasure, NodeTable
from condatom.splitting import shrink_sequence

F = Fraction

unit = st.fractions(min_value=0, max_value=1, max_denominator=64)
# points outside [0, 1] too: the table clamps there
anywhere = st.fractions(min_value=-1, max_value=2, max_denominator=97)


@st.composite
def graphs(draw, monotone=False):
    """Nodes from 0 to 1. Monotone ys come from a coarse grid, so sorted
    draws repeat values and make flat stretches, at the ends too."""
    xs = tuple(sorted({F(0), F(1)} | set(draw(st.lists(unit, max_size=8)))))
    if monotone:
        ys = sorted(draw(st.lists(
            st.fractions(min_value=0, max_value=3, max_denominator=4),
            min_size=len(xs), max_size=len(xs),
        )))
    else:
        ys = draw(st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=48),
            min_size=len(xs), max_size=len(xs),
        ))
    return xs, tuple(ys)


@given(graphs(), anywhere)
def test_forward_matches_interpolation(graph, x):
    xs, ys = graph
    table = NodeTable(xs, ys)
    for point in xs + (F(0), F(1), F(-1, 3), F(5, 4), x):
        assert table.forward(point) == interpolate(xs, ys, point)


@given(graphs(monotone=True), st.fractions(min_value=-1, max_value=4, max_denominator=97))
def test_inverse_is_the_leftmost_preimage(graph, t):
    xs, ys = graph
    table = NodeTable(xs, ys)
    for level in ys + (t,):
        x = table.inverse(level)
        assert x == leftmost_preimage(xs, ys, level)
        if ys[0] <= level <= ys[-1]:
            assert interpolate(xs, ys, x) == level
            assert all(y < level for a, y in zip(xs, ys) if a < x)


def test_inverse_skips_flat_stretches():
    table = NodeTable((F(0), F(1, 4), F(1, 2), F(3, 4), F(1)), (F(0), F(0), F(1, 2), F(1, 2), F(1)))
    assert table.inverse(F(0)) == 0
    assert table.inverse(F(1, 4)) == F(3, 8)
    assert table.inverse(F(1, 2)) == F(1, 2)
    assert table.inverse(F(3, 4)) == F(7, 8)
    assert table.inverse(F(2)) == 1


@given(graphs(), unit)
def test_piecewise_at_matches_interpolation_on_any_ys(graph, x):
    xs, ys = graph
    f = PiecewiseLinear(xs, ys)
    for point in xs + (x,):
        assert f.at(point) == interpolate(xs, ys, point)


@given(graphs())
def test_nondecreasing_on_the_table_ints_matches_the_fractions(graph):
    xs, ys = graph
    f = PiecewiseLinear(xs, ys)
    assert f.nondecreasing == all(a <= b for a, b in zip(ys, ys[1:]))
    view = PiecewiseLinear.of_table(f.table)
    assert view == f and view.table is f.table
    assert view.nondecreasing == f.nondecreasing


def test_piecewise_at_still_refuses_points_outside_the_unit_interval():
    f = PiecewiseLinear((F(0), F(1)), (F(0), F(1)))
    with pytest.raises(ValueError, match=r"argument 5/4 outside \[0,1\]"):
        f.at(F(5, 4))
    with pytest.raises(ValueError, match=r"argument -1/3 outside \[0,1\]"):
        f.at(F(-1, 3))


@pytest.mark.parametrize("params", [FULL_ATOMLESS, FULL_MIXED], ids=["atomless", "mixed"])
def test_fiber_table_on_generated_measures(params):
    rng = random.Random(17)
    for _ in range(40):
        for fiber in generate_space(rng, params).fibers:
            m = fiber.measure
            xs, ys = m.breakpoints, m.diffuse_cumulative
            for x in xs + (F(rng.randrange(0, 97), 96),):
                assert m.prefix_diffuse(x) == diffuse_in(m, ((F(0), x),)) == interpolate(xs, ys, x)
            t = F(rng.randrange(1, 97), 96) * m.diffuse_total
            assert m.quantiles((t,)) == (leftmost_preimage(xs, ys, t),)


def test_max_chain_endpoints_with_wide_denominators():
    """The endpoints after MAX_CHAIN exact halvings carry denominators of
    more than 64 bits; the table still agrees with the references there."""
    rng = random.Random(3)
    space = generate_space(rng, FULL_ATOMLESS)
    event = generate_positive_event(rng, space)
    fibers = frozenset(range(space.n_fibers))
    last = shrink_sequence(space, event, fibers, MAX_CHAIN)[-1]
    ends = [e for part in last.slices for pair in part.intervals for e in pair]
    assert max(e.denominator.bit_length() for e in ends) > 64
    for fiber, part in zip(space.fibers, last.slices):
        m = fiber.measure
        xs, ys = m.breakpoints, m.diffuse_cumulative
        for pair in part.intervals:
            for e in pair:
                mass = m.table.forward(e)
                assert mass == interpolate(xs, ys, e) == diffuse_in(m, ((F(0), e),))
                if mass > 0:
                    assert m.table.inverse(mass) == leftmost_preimage(xs, ys, mass)


def test_fiber_table_reads_a_zero_density_stretch():
    m = FiberMeasure(breakpoints=(0, F(1, 4), F(3, 4), 1), densities=(2, 0, 2))
    assert m.prefix_diffuse(F(1, 2)) == F(1, 2)
    assert m.prefix_diffuse(F(7, 8)) == F(3, 4)
    assert m.quantiles((F(1, 2),)) == (F(1, 4),)


# Large pairwise coprime denominators: the sweep's common denominator is
# their product, far wider than a machine word.
WIDE = (2**61 - 1, 2**31 - 1, 10**9 + 7, 3**40, 2**64, 999983)


@st.composite
def wide_points(draw):
    d = draw(st.sampled_from(WIDE))
    return F(draw(st.integers(0, d)), d)


@st.composite
def touching_pair(draw):
    """Two canonical lists on wide endpoints, b reusing some of a's
    endpoints so that intervals of the two lists touch or share ends."""
    a_pts = sorted(set(draw(st.lists(wide_points(), max_size=8))))
    own = draw(st.lists(wide_points(), max_size=6))
    shared = draw(st.lists(st.sampled_from(a_pts), max_size=4)) if a_pts else []
    b_pts = sorted(set(own) | set(shared))

    def pairs(points):
        points = points[: len(points) - len(points) % 2]
        return iv.canonical(zip(points[0::2], points[1::2]))

    return pairs(a_pts), pairs(b_pts)


@given(touching_pair())
def test_sweep_agrees_with_pointwise_membership(lists):
    a, b = lists
    originals = [e for pair in a + b for e in pair]
    ends = sorted(set(originals))
    probes = ends + [(x + y) / 2 for x, y in zip(ends, ends[1:])]
    ops = [
        (iv.union, lambda p, q: p or q),
        (iv.intersect, lambda p, q: p and q),
        (iv.difference, lambda p, q: p and not q),
    ]
    for op, rule in ops:
        out = op(a, b)
        assert all(lo < hi for lo, hi in out)
        assert all(h < l for (_, h), (l, _) in zip(out, out[1:]))
        for x in probes:
            assert point_in(out, x) == rule(point_in(a, x), point_in(b, x))
        # the output reuses the input endpoint objects
        assert all(any(e is x for x in originals) for pair in out for e in pair)


def test_sweep_orders_nearly_equal_wide_endpoints():
    """x1 <= 7/10 <= x2, apart by less than 1/d for every pair of WIDE
    denominators: the keys must tell them apart exactly."""
    for d1 in WIDE:
        for d2 in WIDE:
            x1, x2 = F(d1 * 7 // 10, d1), F(-(-d2 * 7 // 10), d2)
            a, b = ((x1, F(1)),), ((F(0), x2),)
            assert iv.intersect(a, b) == ((x1, x2),)
            assert iv.union(a, b) == ((F(0), F(1)),)
            assert iv.difference(b, a) == ((F(0), x1),)
            assert iv.difference(a, b) == ((x2, F(1)),)


@given(touching_pair())
def test_is_subset_agrees_with_pointwise_membership(lists):
    a, b = lists
    ends = sorted({e for pair in a + b for e in pair})
    probes = ends + [(x + y) / 2 for x, y in zip(ends, ends[1:])]
    for x, y in ((a, b), (b, a), (a, a), (iv.intersect(a, b), a), (a, iv.union(a, b)), (a, ()), ((), b)):
        assert iv.is_subset(x, y) == all(point_in(y, p) for p in probes if point_in(x, p))


def test_is_subset_tells_nearly_equal_wide_endpoints_apart():
    """x1 < 7/10 < x2, apart by less than 1/d for every pair of WIDE
    denominators."""
    for d1 in WIDE:
        for d2 in WIDE:
            x1, x2 = F(d1 * 7 // 10, d1), F(-(-d2 * 7 // 10), d2)
            gap = ((F(0), x1), (x2, F(1)))
            cases = [
                (((F(0), x1),), ((F(0), x2),), True),
                (((F(0), x2),), ((F(0), x1),), False),
                (((x2, F(1)),), ((x1, F(1)),), True),
                (((x1, F(1)),), ((x2, F(1)),), False),
                (((F(0), x1),), gap, True),
                (gap, gap, True),
                (((x1, x2),), gap, False),
                (((F(1, 2), x2),), gap, False),
                ((), gap, True),
                (gap, (), False),
            ]
            for a, b, want in cases:
                assert iv.is_subset(a, b) == want
                probes = [e for pair in a + b for e in pair] + [F(7, 10)]
                assert want == all(point_in(b, p) for p in probes if point_in(a, p))
