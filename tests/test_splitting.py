import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import diffuse_in, grid_mass, left_fill, picked_weight

from condatom import (
    AtomObstruction,
    EventSet,
    Fiber,
    FiberedSpace,
    FiberMeasure,
    FiberSlice,
    atom_witness,
    is_conditionally_atomless,
    maximal_split_region,
    shrink_sequence,
    split,
    strict_split_witness,
)
from condatom.cli import MAX_CHAIN
from condatom.generate import (
    GeneratorParams,
    generate_coefficients,
    generate_event,
    generate_positive_event,
    generate_space,
    rng_for,
)
from condatom.selftest import FULL_ATOMLESS, FULL_MIXED

F = Fraction

LEBESGUE = FiberMeasure()


def single(measure):
    return FiberedSpace((Fiber(1, measure),))


class TestAtomlessVerdict:
    def test_lebesgue_is_atomless(self):
        assert is_conditionally_atomless(single(LEBESGUE))
        assert atom_witness(single(LEBESGUE)) is None

    def test_explicit_atom_is_witnessed(self):
        m = FiberMeasure(
            atoms=((F(1, 2), F(1, 2)),), breakpoints=(0, F(1, 2), 1), densities=(1, 0)
        )
        w = atom_witness(single(m))
        assert (w.fiber, w.location, w.weight) == (0, F(1, 2), F(1, 2))
        assert not is_conditionally_atomless(single(m))

    def test_atom_instances_admit_a_defeating_event(self):
        # the witness atom alone is a positive event that cannot split
        rng = rng_for(29, "unit-converse")
        params = GeneratorParams(max_fibers=4, max_pieces=5, atom_probability=1.0)
        for _ in range(10):
            space = generate_space(rng, params)
            w = atom_witness(space)
            slices = [FiberSlice() for _ in range(space.n_fibers)]
            slices[w.fiber] = FiberSlice(picks=(w.location,))
            a = EventSet(tuple(slices))
            assert space.cond_expectation(a)[w.fiber] == w.weight > 0
            assert maximal_split_region(space, a) == frozenset()
            assert strict_split_witness(space, a) is None

    def test_random_five_fiber_atomless_instance_splits_everywhere(self):
        rng = rng_for(7, "unit-atomless")
        params = GeneratorParams(max_fibers=5, max_pieces=6, atom_probability=0.0)
        space = generate_space(rng, params)
        while space.n_fibers != 5:
            space = generate_space(rng, params)
        assert is_conditionally_atomless(space)
        for _ in range(100):
            a = generate_positive_event(rng, space, every_fiber=True)
            res = strict_split_witness(space, a)
            assert res is not None
            _, region = res
            assert region == frozenset(range(5))


class TestStrictSplitWitness:
    def test_lebesgue_left_fill(self):
        space = single(LEBESGUE)
        a = space.whole_event()
        b, region = strict_split_witness(space, a)
        assert b.slices[0].intervals == ((F(0), F(1, 2)),)
        assert region == frozenset({0})
        assert 0 < space.cond_expectation(b)[0] < 1

    def test_single_atom_slice_has_no_witness(self):
        m = FiberMeasure(atoms=((F(1, 2), F(1, 4)),), densities=(F(3, 4),))
        space = single(m)
        a = EventSet((FiberSlice(picks=(F(1, 2),)),))
        assert strict_split_witness(space, a) is None
        assert maximal_split_region(space, a) == frozenset()

    def test_empty_event_has_no_witness(self):
        space = single(LEBESGUE)
        assert strict_split_witness(space, space.empty_event()) is None

    def test_two_atoms_split_by_pick(self):
        m = FiberMeasure(atoms=((F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))), densities=(0,))
        space = single(m)
        a = space.whole_event()
        b, region = strict_split_witness(space, a)
        assert region == frozenset({0})
        assert space.cond_expectation(b)[0] == F(1, 2)

    def test_mixed_slice_keeps_diffuse_part(self):
        m = FiberMeasure(atoms=((F(7, 8), F(3, 4)),), densities=(F(1, 4),))
        space = single(m)
        a = space.whole_event()
        b, region = strict_split_witness(space, a)
        cond = space.cond_expectation(b)[0]
        assert region == frozenset({0})
        assert 0 < cond < 1
        assert not b.slices[0].picks


class TestMaximalSplitRegion:
    def test_empty_event(self):
        assert maximal_split_region(single(LEBESGUE), single(LEBESGUE).empty_event()) == frozenset()

    def test_mixed_two_fiber_instance(self):
        atom_only = FiberMeasure(atoms=((F(1, 2), 1),), densities=(0,))
        space = FiberedSpace((Fiber(F(1, 2), LEBESGUE), Fiber(F(1, 2), atom_only)))
        a = EventSet(
            (FiberSlice(((0, F(1, 2)),)), FiberSlice(picks=(F(1, 2),)))
        )
        assert maximal_split_region(space, a) == frozenset({0})

    def test_dichotomy_on_atomless_space(self):
        rng = rng_for(11, "unit-dichotomy")
        params = GeneratorParams(max_fibers=4, max_pieces=5, atom_probability=0.0)
        for _ in range(20):
            space = generate_space(rng, params)
            a = generate_positive_event(rng, space, every_fiber=False)
            cond = space.cond_expectation(a)
            positive = frozenset(i for i, c in enumerate(cond) if c > 0)
            assert maximal_split_region(space, a) == positive
            assert (strict_split_witness(space, a) is None) == (not positive)

    def test_region_stays_within_positive_fibers_with_atoms(self):
        rng = rng_for(11, "unit-dichotomy-atoms")
        params = GeneratorParams(max_fibers=4, max_pieces=5, atom_probability=0.7)
        for _ in range(20):
            space = generate_space(rng, params)
            a = generate_positive_event(rng, space, every_fiber=False)
            cond = space.cond_expectation(a)
            positive = frozenset(i for i, c in enumerate(cond) if c > 0)
            region = maximal_split_region(space, a)
            assert region <= positive
            assert (strict_split_witness(space, a) is None) == (not region)


class TestSplit:
    def test_half_of_lebesgue(self):
        space = single(LEBESGUE)
        b = split(space, space.whole_event(), (F(1, 2),))
        assert b.slices[0].intervals == ((F(0), F(1, 2)),)

    def test_zero_coefficient_gives_empty(self):
        space = single(LEBESGUE)
        assert split(space, space.whole_event(), (F(0),)).is_empty

    def test_doubled_density_cut_point(self):
        m = FiberMeasure(breakpoints=(0, F(1, 2), 1), densities=(2, 0))
        space = single(m)
        c = EventSet((FiberSlice(((0, F(1, 2)),)),))
        b = split(space, c, (F(3, 4),))
        assert b.slices[0].intervals == ((F(0), F(3, 8)),)
        assert grid_mass(m, b.slices[0]) == F(3, 4)

    def test_exactness_across_gaps_and_dead_zones(self):
        m = FiberMeasure(
            breakpoints=(0, F(1, 4), F(1, 2), F(3, 4), 1), densities=(2, 0, 1, 1)
        )
        space = single(m)
        c = EventSet((FiberSlice(((F(1, 8), F(5, 8)), (F(3, 4), 1))),))
        cond_c = space.cond_expectation(c)
        for h in (F(1, 3), F(2, 5), F(15, 16)):
            b = split(space, c, (h,))
            assert space.cond_expectation(b) == (h * cond_c[0],)
            assert b.is_subset(c)

    def test_degenerate_coefficients_allowed_on_atom_slices(self):
        m = FiberMeasure(atoms=((F(1, 2), F(1, 2)),), densities=(F(1, 2),))
        space = single(m)
        c = space.whole_event()
        assert split(space, c, (F(1),)) == c
        assert split(space, c, (F(0),)).is_empty

    def test_atom_obstruction_when_target_needs_point_mass(self):
        m = FiberMeasure(atoms=((F(1, 2), F(1, 2)),), densities=(F(1, 2),))
        space = single(m)
        with pytest.raises(AtomObstruction) as exc:
            split(space, space.whole_event(), (F(3, 4),))
        assert exc.value.fiber == 0
        assert exc.value.location == F(1, 2)

    def test_reachable_target_despite_picked_atom(self):
        # diffuse mass 1/2 covers the target 3/8, so no obstruction
        m = FiberMeasure(atoms=((F(3, 4), F(1, 2)),), densities=(1, 0), breakpoints=(0, F(1, 2), 1))
        space = single(m)
        b = split(space, space.whole_event(), (F(3, 8),))
        assert space.cond_expectation(b) == (F(3, 8),)
        assert not b.slices[0].picks

    def test_coefficient_validation(self):
        space = single(LEBESGUE)
        with pytest.raises(Exception, match="outside"):
            split(space, space.whole_event(), (F(3, 2),))
        with pytest.raises(Exception, match="coefficients"):
            split(space, space.whole_event(), (F(1, 2), F(1, 2)))

    def test_left_fill_monotone_in_coefficient(self):
        m = FiberMeasure(breakpoints=(0, F(1, 3), F(2, 3), 1), densities=(1, 0, 2))
        space = single(m)
        c = space.whole_event()
        previous = space.empty_event()
        for k in range(9):
            b = split(space, c, (F(k, 8),))
            assert previous.is_subset(b)
            previous = b


class TestShrinkSequence:
    def test_lebesgue_chain(self):
        space = single(LEBESGUE)
        chain = shrink_sequence(space, space.whole_event(), frozenset({0}), 3)
        masses = [space.cond_expectation(e)[0] for e in chain]
        assert masses == [1, F(1, 2), F(1, 4), F(1, 8)]
        for small, big in zip(chain[1:], chain):
            assert small.is_subset(big)

    def test_zero_steps_returns_start(self):
        space = single(LEBESGUE)
        c = space.whole_event()
        assert shrink_sequence(space, c, frozenset({0}), 0) == [c]

    def test_two_fiber_bounds(self):
        space = FiberedSpace((Fiber(F(1, 2), LEBESGUE), Fiber(F(1, 2), LEBESGUE)))
        c = EventSet((FiberSlice(((0, 1),)), FiberSlice(((0, F(1, 2)),))))
        chain = shrink_sequence(space, c, frozenset({0, 1}), 2)
        assert space.cond_expectation(chain[2]) == (F(1, 4), F(1, 8))
        for k, event in enumerate(chain):
            cond = space.cond_expectation(event)
            assert all(0 < v <= F(1, 2**k) for v in cond)

    def test_untouched_fibers_keep_their_slice(self):
        space = FiberedSpace((Fiber(F(1, 2), LEBESGUE), Fiber(F(1, 2), LEBESGUE)))
        c = space.whole_event()
        chain = shrink_sequence(space, c, frozenset({0}), 4)
        assert all(e.slices[1] == c.slices[1] for e in chain)

    def test_zero_mass_designated_fiber_is_an_error(self):
        space = single(LEBESGUE)
        with pytest.raises(ValueError, match="zero slice mass"):
            shrink_sequence(space, space.empty_event(), frozenset({0}), 1)


def reference_split(space, event, hs):
    """split rebuilt on the reference left fill; an obstruction comes back
    as ("obstruction", fiber, location)."""
    out = []
    for i, (f, part, h) in enumerate(zip(space.fibers, event.slices, hs)):
        m = f.measure
        diffuse = diffuse_in(m, part.intervals)
        total = diffuse + picked_weight(m, part.picks)
        if h == 1:
            out.append(part)
        elif h == 0 or total == 0:
            out.append(FiberSlice())
        elif h * total > diffuse:
            return ("obstruction", i, part.picks[0])
        else:
            out.append(FiberSlice(left_fill(m, part.intervals, h * total)))
    return EventSet(tuple(out))


def reference_witness(space, event):
    """strict_split_witness rebuilt on the reference left fill."""
    out, region = [], set()
    for i, (f, part) in enumerate(zip(space.fibers, event.slices)):
        m = f.measure
        diffuse = diffuse_in(m, part.intervals)
        if diffuse > 0:
            target = min(diffuse, (diffuse + picked_weight(m, part.picks)) / 2)
            out.append(FiberSlice(left_fill(m, part.intervals, target)))
        elif len(part.picks) >= 2:
            out.append(FiberSlice(picks=part.picks[:1]))
        else:
            out.append(FiberSlice())
            continue
        region.add(i)
    return (EventSet(tuple(out)), frozenset(region)) if region else None


def split_or_obstruction(space, event, hs):
    try:
        return split(space, event, hs)
    except AtomObstruction as e:
        return ("obstruction", e.fiber, e.location)


class TestAgainstReferenceLeftFill:
    """split, strict_split_witness and shrink_sequence give exactly the sets
    of the reference left fill in tests/oracles.py, which walks the density
    pieces directly instead of reading prefix masses and quantiles."""

    @pytest.mark.parametrize("params", [FULL_ATOMLESS, FULL_MIXED], ids=["atomless", "mixed"])
    def test_generated_multi_interval_events(self, params):
        rng = rng_for(5, "unit-reference-fill")
        for _ in range(60):
            space = generate_space(rng, params)
            c = generate_positive_event(rng, space).union(generate_event(rng, space))
            hs = generate_coefficients(rng, space)
            assert split_or_obstruction(space, c, hs) == reference_split(space, c, hs)
            assert strict_split_witness(space, c) == reference_witness(space, c)
            diffuse_c = EventSet(tuple(FiberSlice(s.intervals) for s in c.slices))
            fibers = frozenset(
                i for i, v in enumerate(space.cond_expectation(diffuse_c)) if v > 0
            )
            halves = tuple(F(1, 2) if i in fibers else F(1) for i in range(space.n_fibers))
            expected = [diffuse_c]
            for _ in range(3):
                expected.append(reference_split(space, expected[-1], halves))
            assert shrink_sequence(space, diffuse_c, fibers, 3) == expected

    @pytest.mark.parametrize(
        "measure,intervals,h,expected",
        [
            # the cut lands exactly on a breakpoint
            (
                FiberMeasure(breakpoints=(0, F(1, 2), 1), densities=(F(3, 2), F(1, 2))),
                ((0, 1),),
                F(3, 4),
                ((0, F(1, 2)),),
            ),
            # ... of a later interval
            (
                FiberMeasure(breakpoints=(0, F(1, 2), 1), densities=(F(3, 2), F(1, 2))),
                ((0, F(1, 8)), (F(1, 4), 1)),
                F(9, 13),  # diffuse 13/16 in all, 9/16 up to 1/2
                ((0, F(1, 8)), (F(1, 4), F(1, 2))),
            ),
            # the cut is an interval's right end
            (LEBESGUE, ((0, F(1, 4)), (F(1, 2), F(3, 4))), F(1, 2), ((0, F(1, 4)),)),
            # a zero-density stretch just before the cut
            (
                FiberMeasure(breakpoints=(0, F(1, 4), F(3, 4), 1), densities=(2, 0, 2)),
                ((0, 1),),
                F(3, 4),
                ((0, F(7, 8)),),
            ),
            # target reached where the stretch begins: the cut stays left of it
            (
                FiberMeasure(breakpoints=(0, F(1, 4), F(3, 4), 1), densities=(2, 0, 2)),
                ((0, 1),),
                F(1, 2),
                ((0, F(1, 4)),),
            ),
        ],
    )
    def test_hand_cut_points(self, measure, intervals, h, expected):
        space = single(measure)
        c = EventSet((FiberSlice(intervals),))
        assert split(space, c, (h,)).slices[0].intervals == expected
        assert left_fill(measure, c.slices[0].intervals, h * diffuse_in(measure, intervals)) == expected

    def test_whole_diffuse_mass_as_target(self):
        # diffuse 1/4 on [0, 1/2) (flat from 1/4), plus a picked atom of 1/2:
        # both the split at 1/3 and the witness need all the diffuse mass,
        # and the fill stops where that mass is reached, at 1/4
        m = FiberMeasure(
            atoms=((F(7, 8), F(1, 2)),), breakpoints=(0, F(1, 4), F(3, 4), 1), densities=(1, 0, 1)
        )
        space = single(m)
        c = EventSet((FiberSlice(((0, F(1, 2)),), (F(7, 8),)),))
        assert split(space, c, (F(1, 3),)).slices[0] == FiberSlice(((0, F(1, 4)),))
        witness, region = strict_split_witness(space, c)
        assert witness.slices[0] == FiberSlice(((0, F(1, 4)),))
        assert region == frozenset({0})
        assert reference_split(space, c, (F(1, 3),)) == split(space, c, (F(1, 3),))
        assert reference_witness(space, c) == (witness, region)

    def test_obstruction_names_the_same_fiber_and_atom(self):
        atomic = FiberMeasure(atoms=((F(1, 4), F(1, 4)), (F(3, 4), F(1, 4))), densities=(F(1, 2),))
        space = FiberedSpace((Fiber(F(1, 2), LEBESGUE), Fiber(F(1, 2), atomic)))
        c = space.whole_event()
        with pytest.raises(AtomObstruction) as exc:
            split(space, c, (F(1, 2), F(3, 4)))
        assert (exc.value.fiber, exc.value.location) == (1, F(1, 4))
        assert str(exc.value) == "fiber 1: point mass at 1/4 blocks an exact split"
        assert reference_split(space, c, (F(1, 2), F(3, 4))) == ("obstruction", 1, F(1, 4))


densities_strategy = st.lists(
    st.integers(min_value=0, max_value=4), min_size=1, max_size=5
).filter(lambda ds: sum(ds) > 0)


@st.composite
def atomless_spaces(draw):
    cuts = draw(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=12).filter(
                lambda q: 0 < q < 1
            ),
            max_size=4,
            unique=True,
        )
    )
    breakpoints = [F(0)] + sorted(cuts) + [F(1)]
    raw = draw(
        st.lists(
            st.integers(min_value=0, max_value=4),
            min_size=len(breakpoints) - 1,
            max_size=len(breakpoints) - 1,
        )
    )
    total = sum(F(d) * (b - a) for d, a, b in zip(raw, breakpoints, breakpoints[1:]))
    if total == 0:
        raw[0] = 1
        total = sum(F(d) * (b - a) for d, a, b in zip(raw, breakpoints, breakpoints[1:]))
    m = FiberMeasure(
        breakpoints=tuple(breakpoints), densities=tuple(F(d) / total for d in raw)
    )
    return single(m)


@st.composite
def events_on(draw, space):
    points = sorted(
        draw(
            st.lists(
                st.fractions(min_value=0, max_value=1, max_denominator=12),
                max_size=6,
                unique=True,
            )
        )
    )
    if len(points) % 2:
        points.pop()
    return EventSet((FiberSlice(tuple(zip(points[0::2], points[1::2]))),))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.fractions(min_value=0, max_value=1, max_denominator=16))
def test_split_exactness_property(data, h):
    space = data.draw(atomless_spaces())
    c = data.draw(events_on(space))
    b = split(space, c, (h,))
    assert space.cond_expectation(b) == (h * space.cond_expectation(c)[0],)
    assert b.is_subset(c)


# Pairwise coprime denominators of 55 to 64 bits: for each of the first
# 128 primes, its largest power that fits in 64 bits.
def _first_primes(n):
    out, k = [], 2
    while len(out) < n:
        if all(k % p for p in out):
            out.append(k)
        k += 1
    return out


def _largest_power(p, bits=64):
    out = p
    while out * p <= 2**bits:
        out *= p
    return out


COPRIME_WIDE = tuple(_largest_power(p) for p in _first_primes(128))
WIDE_PARAMS = GeneratorParams(max_fibers=2, max_pieces=15, atom_probability=0.5)


@st.composite
def wide_slices(draw, space, fiber):
    """Up to 64 intervals whose endpoints all have different denominators
    from COPRIME_WIDE, so the slice's common denominator is their
    product, plus any subset of the fiber's atoms as picks."""
    n = draw(st.integers(0, 64))
    dens = draw(st.permutations(COPRIME_WIDE))[: 2 * n]
    points = sorted(F(draw(st.integers(1, d - 1)), d) for d in dens)
    atoms = space.fibers[fiber].measure.atom_locations
    picks = [loc for loc in atoms if draw(st.booleans())]
    return FiberSlice(tuple(zip(points[0::2], points[1::2])), picks)


@st.composite
def wide_instances(draw):
    """A generated space with up to two fibers, atoms on about half of
    them, a wide slice on each fiber, and per-fiber coefficients that are
    0, 1, 1/2 or have a wide denominator."""
    space = generate_space(random.Random(draw(st.integers(0, 2**32))), WIDE_PARAMS)
    event = EventSet(tuple(draw(wide_slices(space, i)) for i in range(space.n_fibers)))
    wide_h = st.builds(lambda d, k: F(k % (d + 1), d), st.sampled_from(COPRIME_WIDE), st.integers(0, 2**64))
    coefficient = st.one_of(st.sampled_from((F(0), F(1, 2), F(1))), wide_h)
    hs = tuple(draw(coefficient) for _ in range(space.n_fibers))
    return space, event, hs


def obstruction_message(fiber, location):
    return f"fiber {fiber}: point mass at {location} blocks an exact split"


class TestWideSlicesAgainstOracles:
    """The int readings of diffuse_mass, split and strict_split_witness
    against the plain-Fraction references in tests/oracles.py, on slices
    whose common denominator runs to thousands of bits."""

    @settings(max_examples=40, deadline=None)
    @given(wide_instances())
    def test_masses_splits_and_witnesses(self, instance):
        space, event, hs = instance
        for f, part in zip(space.fibers, event.slices):
            m = f.measure
            assert m.diffuse_mass(part.intervals) == diffuse_in(m, part.intervals)
            assert m.mass(part) == diffuse_in(m, part.intervals) + picked_weight(m, part.picks)
        expected = reference_split(space, event, hs)
        try:
            got = split(space, event, hs)
        except AtomObstruction as e:
            got = ("obstruction", e.fiber, e.location)
            assert str(e) == obstruction_message(e.fiber, e.location)
        assert got == expected
        assert strict_split_witness(space, event) == reference_witness(space, event)

    def test_target_exactly_at_the_diffuse_mass(self):
        """With a picked atom, h = diffuse/total is the largest reachable
        coefficient: it takes all the diffuse mass, and one part in a
        wide denominator more is an obstruction."""
        m = FiberMeasure(
            atoms=((F(1, 2), F(1, 4)),), breakpoints=(0, F(1, 3), 1), densities=(F(3, 2), F(3, 8))
        )
        space = single(m)
        dens = COPRIME_WIDE[:128]
        points = sorted(F(d // 3 + k, d) for k, d in enumerate(dens))
        part = FiberSlice(tuple(zip(points[0::2], points[1::2])), (F(1, 2),))
        event = EventSet((part,))
        diffuse = diffuse_in(m, part.intervals)
        h = diffuse / (diffuse + F(1, 4))
        assert split(space, event, (h,)) == reference_split(space, event, (h,))
        assert space.cond_expectation(split(space, event, (h,))) == (diffuse,)
        for step in (F(1, 2**64), F(1, COPRIME_WIDE[-1])):
            with pytest.raises(AtomObstruction) as exc:
                split(space, event, (h + step,))
            assert (exc.value.fiber, exc.value.location) == (0, F(1, 2))
            assert str(exc.value) == obstruction_message(0, F(1, 2))
            assert reference_split(space, event, (h + step,)) == ("obstruction", 0, F(1, 2))

    def test_max_chain_shrink_sequence(self):
        """MAX_CHAIN exact halvings, step by step against the reference fill."""
        rng = rng_for(11, "unit-wide-chain")
        space = generate_space(rng, FULL_MIXED)
        c = generate_positive_event(rng, space)
        diffuse_c = EventSet(tuple(FiberSlice(s.intervals) for s in c.slices))
        fibers = frozenset(i for i, v in enumerate(space.cond_expectation(diffuse_c)) if v > 0)
        halves = tuple(F(1, 2) if i in fibers else F(1) for i in range(space.n_fibers))
        chain = shrink_sequence(space, diffuse_c, fibers, MAX_CHAIN)
        assert len(chain) == MAX_CHAIN + 1
        for prev, step in zip(chain, chain[1:]):
            assert step == reference_split(space, prev, halves)
        last = chain[-1]
        assert max(e.denominator.bit_length() for s in last.slices for iv in s.intervals for e in iv) > 64
