from fractions import Fraction

import pytest
from oracles import (
    density_pieces,
    diffuse_in,
    intersection_mass_nodes,
    leftmost_preimage,
    staircase_value,
)

from condatom import (
    AtomObstruction,
    EventSet,
    Fiber,
    FiberedSpace,
    FiberMeasure,
    FiberSlice,
    InvariantError,
    PiecewiseLinear,
    UniformRV,
    build_dyadic_family,
    build_uniform,
    intersection_mass_curves,
    level_scan,
    level_set,
    set_at_level,
    split,
)
from condatom.generate import generate_event, generate_space, rng_for
from condatom.selftest import FULL_ATOMLESS, _halving_family

F = Fraction

LEBESGUE = FiberMeasure()
DOUBLED = FiberMeasure(breakpoints=(0, F(1, 2), 1), densities=(2, 0))
ZERO_STRETCH = FiberMeasure(breakpoints=(0, F(1, 4), F(3, 4), 1), densities=(2, 0, 2))
WITH_ATOM = FiberMeasure(
    atoms=((F(1, 2), F(1, 2)),), breakpoints=(0, F(1, 2), 1), densities=(1, 0)
)
# diffuse mass 3/4 on [0, 1/2), then two atoms of 1/8 each
TWO_ATOMS = FiberMeasure(
    atoms=((F(1, 4), F(1, 8)), (F(3, 4), F(1, 8))),
    breakpoints=(0, F(1, 2), 1),
    densities=(F(3, 2), 0),
)
LEBESGUE_CDF = PiecewiseLinear((0, 1), (0, 1))


def single(measure):
    return FiberedSpace((Fiber(1, measure),))


@pytest.fixture
def two_fiber_space():
    return FiberedSpace((Fiber(F(1, 2), LEBESGUE), Fiber(F(1, 2), DOUBLED)))


class TestDyadicFamily:
    def test_depth_zero_is_empty_and_whole(self):
        space = single(LEBESGUE)
        family = build_dyadic_family(space, 0)
        assert family.grid() == (F(0), F(1))
        assert family.at(0) == space.empty_event()
        assert family.at(1) == space.whole_event()

    def test_depth_one_halves_lebesgue(self):
        family = build_dyadic_family(single(LEBESGUE), 1)
        assert family.at(F(1, 2)).slices[0].intervals == ((F(0), F(1, 2)),)

    def test_depth_two_exact_on_two_fibers(self, two_fiber_space):
        family = build_dyadic_family(two_fiber_space, 2)
        for k in range(5):
            t = F(k, 4)
            assert two_fiber_space.cond_expectation(family.at(t)) == (t, t)

    def test_monotone_nesting(self, two_fiber_space):
        family = build_dyadic_family(two_fiber_space, 3)
        grid = family.grid()
        for a, b in zip(grid, grid[1:]):
            assert family.at(a).is_subset(family.at(b))

    def test_atom_blocks_construction(self):
        with pytest.raises(AtomObstruction):
            build_dyadic_family(single(WITH_ATOM), 1)


class TestQuantileWalkMatchesHalving:
    """build_dyadic_family reads every level off one quantiles call per
    fiber; the paper's repeated halving must give the very same sets."""

    @staticmethod
    def assert_same_sets(space, depth):
        walked = build_dyadic_family(space, depth)
        halved = _halving_family(space, depth)
        assert walked.grid() == halved.grid()
        for t in halved.grid():
            assert walked.at(t) == halved.at(t), f"level {t}"

    @pytest.mark.parametrize("depth", range(5))
    def test_two_fiber_space(self, two_fiber_space, depth):
        self.assert_same_sets(two_fiber_space, depth)

    @pytest.mark.parametrize("depth", range(5))
    def test_interior_zero_density_stretch(self, depth):
        space = FiberedSpace((Fiber(F(1, 3), LEBESGUE), Fiber(F(2, 3), ZERO_STRETCH)))
        self.assert_same_sets(space, depth)

    @pytest.mark.parametrize("index", range(4))
    def test_generated_spaces(self, index):
        rng = rng_for(index, "quantile-walk")
        space = generate_space(rng, FULL_ATOMLESS)
        for depth in range(5):
            self.assert_same_sets(space, depth)


class TestSetAtLevel:
    def test_endpoints(self, two_fiber_space):
        assert set_at_level(two_fiber_space, 0) == two_fiber_space.empty_event()
        assert set_at_level(two_fiber_space, 1) == two_fiber_space.whole_event()

    def test_lebesgue_third(self):
        b = set_at_level(single(LEBESGUE), F(1, 3))
        assert b.slices[0].intervals == ((F(0), F(1, 3)),)

    def test_doubled_density_third(self):
        b = set_at_level(single(DOUBLED), F(1, 3))
        assert b.slices[0].intervals == ((F(0), F(1, 6)),)

    def test_level_outside_range_rejected(self):
        with pytest.raises(Exception, match="outside"):
            set_at_level(single(LEBESGUE), F(3, 2))


class TestUniformVariable:
    def test_identity_cdf_on_lebesgue(self):
        rv = build_uniform(single(LEBESGUE))
        assert rv.cdfs[0].xs == (F(0), F(1))
        assert rv.cdfs[0].ys == (F(0), F(1))

    def test_doubled_density_cdf(self):
        rv = build_uniform(single(DOUBLED))
        u = rv.cdfs[0]
        assert u.at(F(1, 4)) == F(1, 2)
        assert u.at(F(1, 2)) == 1
        assert u.at(F(3, 4)) == 1

    def test_atom_blocks_uniform(self):
        with pytest.raises(AtomObstruction):
            build_uniform(single(WITH_ATOM))

    def test_level_sets_have_exact_mass(self, two_fiber_space):
        rv = build_uniform(two_fiber_space)
        for k in range(1, 129):
            t = F(k, 128)
            cond = two_fiber_space.cond_expectation(level_set(rv, t))
            assert cond == (t, t)

    def test_level_sets_agree_with_direct_fill(self, two_fiber_space):
        rv = build_uniform(two_fiber_space)
        for k in range(0, 33):
            t = F(k, 32)
            via_cdf = level_set(rv, t)
            direct = split(two_fiber_space, two_fiber_space.whole_event(), (t, t))
            assert two_fiber_space.cond_expectation(via_cdf) == two_fiber_space.cond_expectation(direct)
            assert two_fiber_space.measure(via_cdf.symmetric_difference(direct)) == 0

    def test_staircase_approximants_dominate_cdf(self, two_fiber_space):
        depth = 4
        family = build_dyadic_family(two_fiber_space, depth)
        rv = build_uniform(two_fiber_space)
        for i, fiber in enumerate(two_fiber_space.fibers):
            m = fiber.measure
            for p, q, d in density_pieces(m):
                if d == 0:
                    continue  # null stretches are exempt
                y = (p + q) / 2
                u_n = staircase_value(family, i, y)
                u = rv.cdfs[i].at(y)
                assert 0 <= u_n - u <= F(1, 2**depth)


class TestLevelScan:
    def test_empty_event_returns_none(self):
        space = single(LEBESGUE)
        assert level_scan(space, space.empty_event()) is None

    def test_right_half_of_lebesgue(self):
        space = single(LEBESGUE)
        a = EventSet((FiberSlice(((F(1, 2), F(1)),)),))
        t, fibers = level_scan(space, a)
        assert t == F(3, 4)
        assert fibers == frozenset({0})
        inter = a.intersect(set_at_level(space, t))
        assert space.cond_expectation(inter) == (F(1, 4),)

    def test_whole_space_any_level(self):
        space = single(LEBESGUE)
        t, fibers = level_scan(space, space.whole_event())
        assert t == F(1, 2)
        assert fibers == frozenset({0})

    def test_returned_fibers_are_exactly_the_strict_ones(self, two_fiber_space):
        a = EventSet((FiberSlice(((F(1, 2), F(1)),)), FiberSlice()))
        t, fibers = level_scan(two_fiber_space, a)
        conda = two_fiber_space.cond_expectation(a)
        condi = two_fiber_space.cond_expectation(a.intersect(set_at_level(two_fiber_space, t)))
        expected = frozenset(
            i for i in range(2) if 0 < condi[i] < conda[i]
        )
        assert fibers == expected


class TestMassCurves:
    def test_endpoint_values(self, two_fiber_space):
        a = EventSet((FiberSlice(((0, F(1, 3)),)), FiberSlice(((F(1, 4), F(1, 2)),))))
        curves = intersection_mass_curves(two_fiber_space, a)
        cond = two_fiber_space.cond_expectation(a)
        for curve, total in zip(curves, cond):
            assert curve.at(0) == 0
            assert curve.at(1) == total

    def test_matches_direct_intersection_masses(self, two_fiber_space):
        a = EventSet(
            (FiberSlice(((F(1, 8), F(1, 3)),)), FiberSlice(((F(1, 4), F(5, 8)),)))
        )
        curves = intersection_mass_curves(two_fiber_space, a)
        for k in range(0, 17):
            t = F(k, 16)
            direct = two_fiber_space.cond_expectation(
                a.intersect(set_at_level(two_fiber_space, t))
            )
            assert tuple(c.at(t) for c in curves) == direct

    def test_one_lipschitz_between_levels(self, two_fiber_space):
        a = EventSet((FiberSlice(((0, F(2, 3)),)), FiberSlice(((F(1, 8), F(3, 8)),))))
        curves = intersection_mass_curves(two_fiber_space, a)
        grid = [F(k, 64) for k in range(65)]
        for curve in curves:
            values = [curve.at(t) for t in grid]
            for (s, gs), (t, gt) in zip(zip(grid, values), zip(grid[1:], values[1:])):
                assert 0 <= gt - gs <= t - s


    @pytest.mark.parametrize("index", range(40))
    def test_nodes_match_the_oracle_on_generated_spaces(self, index):
        """The one walk per fiber gives the nodes of the plain-Fraction
        reference: the CDF and the slice's mass below every breakpoint and
        endpoint, flat stretches of the CDF collapsed."""
        rng = rng_for(index, "mass-curves")
        space = generate_space(rng, FULL_ATOMLESS)
        event = generate_event(rng, space)
        curves = intersection_mass_curves(space, event)
        for fiber, part, curve in zip(space.fibers, event.slices, curves):
            ts, vs = intersection_mass_nodes(fiber.measure, part.intervals)
            assert (curve.xs, curve.ys) == (ts, vs)


class TestOneTablePerFiber:
    """The uniform side reads each fiber's own table: the CDFs are those
    tables, and set_at_level and level_set check their ranges on its
    integer image. Results are pinned against the plain-Fraction
    oracles."""

    @staticmethod
    def assert_prefix(measure, part, t):
        """part is the prefix [0, y) whose y is the leftmost preimage of t
        under the fiber's cumulative diffuse mass, and has that mass t."""
        y = leftmost_preimage(measure.breakpoints, measure.diffuse_cumulative, t)
        assert part.intervals == (((F(0), y),) if y > 0 else ())
        assert part.picks == ()
        assert diffuse_in(measure, part.intervals) == t

    @pytest.mark.parametrize("index", range(3))
    def test_cdfs_share_the_fiber_tables(self, index):
        space = generate_space(rng_for(index, "one-table"), FULL_ATOMLESS)
        rv = build_uniform(space)
        for u, fiber in zip(rv.cdfs, space.fibers):
            m = fiber.measure
            assert u is m.table
            assert u.xs is m.breakpoints and u.ys is m.diffuse_cumulative
            assert u == PiecewiseLinear(m.breakpoints, m.diffuse_cumulative)

    def test_endpoints_match_the_oracle(self, two_fiber_space):
        rv = build_uniform(two_fiber_space)
        for t in (F(0), F(1)):
            direct = set_at_level(two_fiber_space, t)
            via_rv = level_set(rv, t)
            for fiber, a, b in zip(two_fiber_space.fibers, direct.slices, via_rv.slices):
                m = fiber.measure
                assert diffuse_in(m, a.intervals) == t
                self.assert_prefix(m, b, t)

    @pytest.mark.parametrize("k", range(1, 16))
    def test_interior_levels_match_the_oracle(self, two_fiber_space, k):
        t = F(k, 16)
        rv = build_uniform(two_fiber_space)
        direct = set_at_level(two_fiber_space, t)
        assert direct == level_set(rv, t)
        for fiber, part in zip(two_fiber_space.fibers, direct.slices):
            self.assert_prefix(fiber.measure, part, t)

    def test_set_at_level_at_a_fibers_diffuse_total(self):
        space = FiberedSpace((Fiber(F(1, 2), TWO_ATOMS), Fiber(F(1, 2), LEBESGUE)))
        t = TWO_ATOMS.diffuse_total
        event = set_at_level(space, t)
        for fiber, part in zip(space.fibers, event.slices):
            self.assert_prefix(fiber.measure, part, t)

    def test_set_at_level_just_above_a_fibers_diffuse_total(self):
        space = FiberedSpace((Fiber(F(1, 2), LEBESGUE), Fiber(F(1, 2), TWO_ATOMS)))
        t = TWO_ATOMS.diffuse_total + F(1, 2**70)
        with pytest.raises(AtomObstruction) as info:
            set_at_level(space, t)
        assert (info.value.fiber, info.value.location) == (1, F(1, 4))

    @pytest.mark.parametrize("t", [F(-1), F(-1, 3), F(0)])
    def test_level_set_at_or_below_zero_is_empty(self, t):
        rv = UniformRV((TWO_ATOMS.table,))
        assert level_set(rv, t) == EventSet((FiberSlice(),))

    def test_level_set_up_to_a_cdfs_last_value(self):
        rv = UniformRV((TWO_ATOMS.table,))
        top = TWO_ATOMS.diffuse_total
        for t in (F(1, 3), top - F(1, 2**70), top):
            self.assert_prefix(TWO_ATOMS, level_set(rv, t).slices[0], t)

    @pytest.mark.parametrize("above", [F(1, 2**70), F(1, 8), F(1, 4), F(5, 4)])
    def test_level_set_above_a_cdfs_last_value_is_the_whole_line(self, above):
        rv = UniformRV((TWO_ATOMS.table,))
        t = TWO_ATOMS.diffuse_total + above
        assert level_set(rv, t).slices[0].intervals == ((F(0), F(1)),)

    @pytest.mark.parametrize(
        "ys,message",
        [
            ((F(1, 8), F(1)), "a conditional CDF must start at 0"),
            ((0, F(3, 4), F(1, 2)), "a conditional CDF must be nondecreasing"),
            ((0, F(1, 2), F(9, 8)), "a conditional CDF cannot exceed 1"),
        ],
    )
    def test_hand_made_cdfs_are_still_refused(self, ys, message):
        xs = (0, 1) if len(ys) == 2 else (0, F(1, 2), 1)
        with pytest.raises(InvariantError, match=f"^{message}$"):
            UniformRV((LEBESGUE_CDF, PiecewiseLinear(xs, ys)))
