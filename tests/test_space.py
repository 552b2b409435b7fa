import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import grid_mass, grid_space_measure, leftmost_preimage

from condatom import (
    EventSet,
    Fiber,
    FiberedSpace,
    FiberMeasure,
    FiberSlice,
    InvariantError,
    MismatchError,
)
from condatom.generate import generate_space
from condatom.selftest import FULL_MIXED

F = Fraction

LEBESGUE = FiberMeasure()
DOUBLED = FiberMeasure(breakpoints=(0, F(1, 2), 1), densities=(2, 0))


@pytest.fixture
def two_fiber_space():
    return FiberedSpace((Fiber(F(1, 2), LEBESGUE), Fiber(F(1, 2), DOUBLED)))


def both(intervals):
    return EventSet((FiberSlice(intervals), FiberSlice(intervals)))


class TestInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvariantError, match="sum to 7/8"):
            FiberedSpace((Fiber(F(1, 2), LEBESGUE), Fiber(F(3, 8), LEBESGUE)))

    def test_fiber_mass_must_sum_to_one(self):
        with pytest.raises(InvariantError, match="fiber mass"):
            FiberMeasure(breakpoints=(0, 1), densities=(F(1, 2),))

    def test_atom_location_outside(self):
        with pytest.raises(InvariantError, match="outside"):
            FiberMeasure(atoms=((F(3, 2), F(1, 2)),), densities=(F(1, 2),))

    def test_atom_weight_positive(self):
        with pytest.raises(InvariantError, match="positive"):
            FiberMeasure(atoms=((F(1, 2), F(0)),))

    def test_breakpoints_increasing(self):
        with pytest.raises(InvariantError, match="increasing"):
            FiberMeasure(breakpoints=(0, F(1, 2), F(1, 2), 1), densities=(1, 1, 1))

    def test_floats_are_rejected(self):
        with pytest.raises(InvariantError, match="not exact"):
            FiberSlice(((0.0, 0.5),))

    def test_single_point_interval_rejected(self):
        with pytest.raises(InvariantError, match="empty or inverted"):
            FiberSlice(((F(1, 2), F(1, 2)),))

    def test_pick_must_be_atom_location(self, two_fiber_space):
        event = EventSet((FiberSlice(picks=(F(1, 3),)), FiberSlice()))
        with pytest.raises(InvariantError, match="not an atom location"):
            two_fiber_space.measure(event)

    def test_fiber_count_mismatch(self, two_fiber_space):
        with pytest.raises(MismatchError):
            two_fiber_space.measure(EventSet((FiberSlice(),)))
        with pytest.raises(MismatchError):
            both(()).union(EventSet((FiberSlice(),)))


class TestMeasure:
    def test_whole_space_has_mass_one(self, two_fiber_space):
        assert two_fiber_space.measure(two_fiber_space.whole_event()) == 1

    def test_lebesgue_interval_length(self):
        space = FiberedSpace((Fiber(1, LEBESGUE),))
        a = EventSet((FiberSlice(((0, F(1, 3)),)),))
        assert space.measure(a) == F(1, 3)

    def test_two_fiber_example_against_grid_oracle(self, two_fiber_space):
        a = both(((0, F(1, 4)),))
        oracle = grid_space_measure(two_fiber_space, a)
        assert oracle == F(3, 8)
        assert two_fiber_space.measure(a) == F(3, 8)

    def test_atoms_enter_only_through_picks(self):
        m = FiberMeasure(atoms=((F(1, 4), F(1, 2)),), densities=(F(1, 2),))
        space = FiberedSpace((Fiber(1, m),))
        covering = EventSet((FiberSlice(((0, F(1, 2)),)),))
        picked = EventSet((FiberSlice(((0, F(1, 2)),), (F(1, 4),)),))
        assert space.measure(covering) == F(1, 4)
        assert space.measure(picked) == F(3, 4)

    def test_quantiles_are_leftmost_and_inverse_to_prefix_mass(self):
        m = FiberMeasure(breakpoints=(0, F(1, 4), F(3, 4), 1), densities=(2, 0, 2))
        levels = (F(1, 4), F(1, 2), F(1, 2), F(3, 4), F(1))
        qs = m.quantiles(levels)
        assert qs == (F(1, 8), F(1, 4), F(1, 4), F(7, 8), F(1))
        assert tuple(m.prefix_diffuse(q) for q in qs) == levels
        # one level per call starts at its piece by bisection: same points
        assert tuple(m.quantiles((t,))[0] for t in levels) == qs
        assert m.quantiles(()) == ()

    @pytest.mark.parametrize(
        "levels", [(F(1, 2), F(1, 4)), (F(0),), (F(3, 2),)], ids=["decreasing", "zero", "above"]
    )
    def test_quantile_levels_out_of_order_or_range_rejected(self, levels):
        with pytest.raises(InvariantError, match="quantile levels"):
            LEBESGUE.quantiles(levels)


def fraction_level_check(measure, levels):
    """The range and order check of quantiles done on Fractions: the
    message of the InvariantError it raises, or None when it accepts."""
    ys = measure.diffuse_cumulative
    prev = ys[0]
    for t in levels:
        if not ys[0] < t <= ys[-1] or t < prev:
            return f"quantile levels must be nondecreasing in ({ys[0]}, {ys[-1]}], got {t}"
        prev = t
    return None


D64 = 2**64 - 59  # the largest prime below 2**64


@st.composite
def levels_near_the_edges(draw, total):
    """Up to five levels: inside the range, at its ends, or one part in a
    wide denominator off them, and repeats of or just below the last."""
    d = draw(st.sampled_from((D64, 2**64, 3**40)))
    levels = []
    for _ in range(draw(st.integers(1, 5))):
        prev = levels[-1] if levels else total / 2
        levels.append(draw(st.sampled_from((
            F(0), F(-1, d), F(1, d), total, total - F(1, d), total + F(1, d),
            total * F(draw(st.integers(1, 64)), 64), prev, prev - F(1, d), prev + F(1, d),
        ))))
    return levels


class TestQuantileLevelCheck:
    """quantiles checks its levels on the table's ints; it must accept and
    reject exactly what the check on Fractions did, with the same message."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(0, 2**32))
    def test_int_check_matches_the_fraction_check(self, data, seed):
        fiber = generate_space(random.Random(seed), FULL_MIXED).fibers[0]
        m = fiber.measure
        levels = data.draw(levels_near_the_edges(m.diffuse_total))
        message = fraction_level_check(m, levels)
        if message is None:
            xs, ys = m.breakpoints, m.diffuse_cumulative
            assert m.quantiles(levels) == tuple(leftmost_preimage(xs, ys, t) for t in levels)
        else:
            with pytest.raises(InvariantError) as exc:
                m.quantiles(levels)
            assert str(exc.value) == message

    def test_edges_of_the_range(self):
        m = FiberMeasure(atoms=((F(1, 3), F(1, 3)),), breakpoints=(0, F(1, 2), 1), densities=(1, F(1, 3)))
        total = m.diffuse_total
        assert total == F(2, 3)
        assert m.quantiles((total,)) == (1,)
        assert m.quantiles((F(1, 4), F(1, 4), total, total)) == (F(1, 4), F(1, 4), 1, 1)
        bad = [
            [F(0)],
            [total + F(1, D64)],
            [F(1, 3), F(1, 3) - F(1, D64)],
        ]
        for levels in bad:
            with pytest.raises(InvariantError) as exc:
                m.quantiles(levels)
            assert str(exc.value) == fraction_level_check(m, levels)
        with pytest.raises(InvariantError, match="floating point value 0.5 is not exact"):
            m.quantiles((0.5,))


class TestExactInputs:
    """The public measure methods coerce their inputs like the
    constructors do: a float is refused, never evaluated."""

    def test_prefix_diffuse_refuses_a_float(self):
        with pytest.raises(InvariantError, match="0.3 is not exact"):
            DOUBLED.prefix_diffuse(0.3)
        assert DOUBLED.prefix_diffuse(F(1, 4)) == F(1, 2)
        assert DOUBLED.prefix_diffuse("3/4") == 1

    def test_diffuse_mass_refuses_a_float(self):
        with pytest.raises(InvariantError, match="not exact"):
            DOUBLED.diffuse_mass(((0.1, 0.3),))
        assert DOUBLED.diffuse_mass(((0, F(1, 4)), (F(3, 8), 1))) == F(3, 4)

    def test_quantiles_refuses_a_float(self):
        with pytest.raises(InvariantError, match="0.5 is not exact"):
            DOUBLED.quantiles((0.5,))
        assert DOUBLED.quantiles(("1/2", 1)) == (F(1, 4), F(1, 2))


class TestCondExpectation:
    def test_whole_and_empty(self, two_fiber_space):
        assert two_fiber_space.cond_expectation(two_fiber_space.whole_event()) == (1, 1)
        assert two_fiber_space.cond_expectation(two_fiber_space.empty_event()) == (0, 0)

    def test_two_fiber_example(self, two_fiber_space):
        a = both(((0, F(1, 4)),))
        assert two_fiber_space.cond_expectation(a) == (F(1, 4), F(1, 2))
        for fiber, part in zip(two_fiber_space.fibers, a.slices):
            assert grid_mass(fiber.measure, part) == fiber.measure.mass(part)

    def test_tower_property(self, two_fiber_space):
        a = EventSet(
            (FiberSlice(((0, F(1, 3)), (F(1, 2), F(5, 8)))), FiberSlice(((F(1, 8), F(3, 4)),)))
        )
        cond = two_fiber_space.cond_expectation(a)
        total = sum(f.weight * c for f, c in zip(two_fiber_space.fibers, cond))
        assert total == two_fiber_space.measure(a)

    def test_disjoint_additivity(self, two_fiber_space):
        a = both(((0, F(1, 4)),))
        b = both(((F(1, 2), F(3, 4)),))
        union = a.union(b)
        ca = two_fiber_space.cond_expectation(a)
        cb = two_fiber_space.cond_expectation(b)
        assert two_fiber_space.cond_expectation(union) == tuple(x + y for x, y in zip(ca, cb))

    def test_monotone_under_subset(self, two_fiber_space):
        small = both(((0, F(1, 4)),))
        large = both(((0, F(1, 2)),))
        assert small.is_subset(large)
        cs = two_fiber_space.cond_expectation(small)
        cl = two_fiber_space.cond_expectation(large)
        assert all(s <= l for s, l in zip(cs, cl))


class TestCombine:
    def test_union_with_empty_is_identity(self, two_fiber_space):
        a = both(((0, F(1, 2)),))
        assert two_fiber_space.empty_event().union(a) == a

    def test_intersect_example(self):
        a = EventSet((FiberSlice(((0, F(1, 2)),)),))
        b = EventSet((FiberSlice(((F(1, 4), F(3, 4)),)),))
        assert a.intersect(b) == EventSet((FiberSlice(((F(1, 4), F(1, 2)),)),))

    def test_difference_example(self):
        whole = EventSet((FiberSlice(((0, 1),)),))
        mid = EventSet((FiberSlice(((F(1, 3), F(2, 3)),)),))
        expected = EventSet((FiberSlice(((0, F(1, 3)), (F(2, 3), 1))),))
        assert whole.difference(mid) == expected

    @pytest.mark.parametrize("side", [0, 1])
    def test_picks_on_one_side_only(self, side):
        picked = EventSet((FiberSlice(((0, F(1, 4)),), picks=(F(1, 2), F(1, 3))),))
        plain = EventSet((FiberSlice(((F(1, 8), 1),)),))
        a, b = (picked, plain) if side == 0 else (plain, picked)
        picks = (F(1, 3), F(1, 2))
        assert a.union(b).slices[0].picks == picks
        assert a.intersect(b).slices[0].picks == ()
        assert a.difference(b).slices[0].picks == (picks if side == 0 else ())
        assert plain.difference(plain).slices[0].picks == ()

    def test_results_stable_under_recanonicalization(self, two_fiber_space):
        a = both(((0, F(1, 2)),))
        b = both(((F(1, 2), F(3, 4)),))
        out = a.union(b)
        rebuilt = EventSet(tuple(FiberSlice(s.intervals, s.picks) for s in out.slices))
        assert rebuilt == out

    def test_subset_examples(self, two_fiber_space):
        a = both(((0, F(1, 2)),))
        assert two_fiber_space.empty_event().is_subset(a)
        assert a.is_subset(both(((0, 1),)))
        assert not a.is_subset(both(((F(1, 4), 1),)))
