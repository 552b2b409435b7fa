from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import point_in

from condatom import intervals as iv

F = Fraction

fracs = st.fractions(min_value=0, max_value=1, max_denominator=16)


@st.composite
def interval_lists(draw):
    points = sorted(draw(st.lists(fracs, max_size=8, unique=True)))
    if len(points) % 2:
        points.pop()
    return iv.canonical(zip(points[0::2], points[1::2]))


def test_canonical_merges_touching_and_overlapping():
    raw = [(F(1, 2), F(3, 4)), (F(0), F(1, 4)), (F(1, 4), F(1, 2))]
    assert iv.canonical(raw) == ((F(0), F(3, 4)),)
    assert iv.canonical([(F(0), F(1, 2)), (F(1, 4), F(3, 4))]) == ((F(0), F(3, 4)),)
    assert iv.canonical([(F(0), F(0))]) == ()


def test_basic_operations():
    a = ((F(0), F(1, 2)),)
    b = ((F(1, 4), F(3, 4)),)
    assert iv.intersect(a, b) == ((F(1, 4), F(1, 2)),)
    assert iv.union(a, b) == ((F(0), F(3, 4)),)
    whole = ((F(0), F(1)),)
    mid = ((F(1, 3), F(2, 3)),)
    assert iv.difference(whole, mid) == ((F(0), F(1, 3)), (F(2, 3), F(1)))


def test_subset_examples():
    half = ((F(0), F(1, 2)),)
    assert iv.is_subset((), half)
    assert iv.is_subset(half, ((F(0), F(1)),))
    assert not iv.is_subset(half, ((F(1, 4), F(1)),))


@given(interval_lists(), interval_lists(), fracs)
def test_operations_agree_with_membership(a, b, x):
    in_a, in_b = point_in(a, x), point_in(b, x)
    assert point_in(iv.union(a, b), x) == (in_a or in_b)
    assert point_in(iv.intersect(a, b), x) == (in_a and in_b)
    assert point_in(iv.difference(a, b), x) == (in_a and not in_b)


@given(interval_lists(), interval_lists())
def test_results_are_canonical(a, b):
    for out in (iv.union(a, b), iv.intersect(a, b), iv.difference(a, b)):
        assert iv.canonical(out) == out
        assert all(lo < hi for lo, hi in out)


@given(interval_lists(), interval_lists())
def test_subset_matches_difference(a, b):
    assert iv.is_subset(a, b) == (not iv.difference(a, b))


def _length(intervals) -> Fraction:
    return sum((hi - lo for lo, hi in intervals), F(0))


@given(interval_lists(), interval_lists())
def test_lengths_are_additive(a, b):
    only_a = _length(iv.difference(a, b))
    only_b = _length(iv.difference(b, a))
    both = _length(iv.intersect(a, b))
    assert _length(iv.union(a, b)) == only_a + only_b + both


# the largest 64-bit primes: pairwise coprime, so two endpoints with
# different denominators never share a key below the lists' full lcm
PRIMES_64 = tuple(2**64 - k for k in (59, 83, 95, 179))
OPS = {
    "union": lambda x, y: x or y,
    "intersect": lambda x, y: x and y,
    "difference": lambda x, y: x and not y,
}

wide_fracs = st.builds(
    lambda q, p: F(p % (q + 1), q), st.sampled_from(PRIMES_64), st.integers(0, 2**64)
)


def _pairs(points):
    points = sorted(points)
    return iv.canonical(zip(points[0::2], points[1::2]))


@st.composite
def touching_lists(draw):
    """Two canonical lists whose endpoints come from one shared pool, so
    an interval of one often starts or ends where one of the other does."""
    pool = draw(st.lists(wide_fracs, min_size=2, max_size=10, unique=True))
    a = _pairs(draw(st.sets(st.sampled_from(pool))))
    b = _pairs(draw(st.sets(st.sampled_from(pool))))
    return a, b


def _agrees_with_point_in(a, b):
    """Each result is canonical and, at every endpoint and between every
    two neighbouring ones, matches pointwise membership."""
    ends = sorted({x for ivs in (a, b) for pair in ivs for x in pair} | {F(0), F(1)})
    probes = ends + [(x + y) / 2 for x, y in zip(ends, ends[1:])]
    for name, truth in OPS.items():
        out = getattr(iv, name)(a, b)
        assert iv.canonical(out) == out
        for x in probes:
            assert point_in(out, x) == truth(point_in(a, x), point_in(b, x)), (name, x)


@given(touching_lists())
def test_operations_on_touching_wide_endpoints(lists):
    _agrees_with_point_in(*lists)


EXAMPLE = ((F(1, PRIMES_64[0]), F(1, 3)), (F(1, 2), F(PRIMES_64[1] - 1, PRIMES_64[1])))


@pytest.mark.parametrize("a,b", [((), ()), (EXAMPLE, ()), ((), EXAMPLE)])
def test_operations_with_an_empty_operand(a, b):
    _agrees_with_point_in(a, b)
    assert iv.union(a, b) == a + b
    assert iv.intersect(a, b) == ()
    assert iv.difference(a, b) == a


def test_touching_across_lists_merges():
    x, y = F(1, PRIMES_64[2]), F(2, PRIMES_64[3])
    a, b = ((F(0), x),), ((x, y),)
    assert iv.union(a, b) == ((F(0), y),)
    assert iv.intersect(a, b) == ()
    assert iv.difference(b, a) == b
    _agrees_with_point_in(a, b)
