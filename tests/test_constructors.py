"""The constructors every parsed scenario goes through check their
invariants on ints over common denominators. They must accept exactly
what the plain-Fraction reference checks in tests/oracles.py accept, and
reject with the same message, on valid inputs and on inputs a few edits
away from valid ones."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    cell_violation,
    cumulative_diffuse,
    fiber_measure_violation,
    fiber_slice_violation,
    measure_family_violation,
    merged_intervals,
    mixture_masses,
)

from condatom import (
    Cell,
    FiberMeasure,
    FiberSlice,
    InvariantError,
    MeasureFamily,
    PiecewiseLinear,
    Scenario,
    mixture,
)
from condatom.generate import GeneratorParams, generate_event, generate_family, generate_space
from condatom.scenario import parse_scenario, serialize_scenario
from condatom.selftest import FULL_ATOMLESS, FULL_MIXED

F = Fraction
D64 = 2**64 - 59  # the largest prime below 2**64


@st.composite
def near_values(draw, anchors):
    """A value at or one part in a wide denominator off 0, 1, a half or
    one of the anchors."""
    d = draw(st.sampled_from((D64, 2**64, 3**40)))
    base = draw(st.sampled_from((F(0), F(1), F(1, 2), *anchors)))
    return base + draw(st.sampled_from((0, 0, 1, -1))) * F(1, d)


@st.composite
def edited(draw, values, near=True):
    """values after up to three edits: two entries swapped, one repeated,
    one dropped or, when near is true, one moved to a near value."""
    values = list(values)
    kinds = ("near", "swap", "repeat", "drop") if near else ("swap", "repeat", "drop")
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(kinds))
        if not values:
            break
        k = draw(st.integers(0, len(values) - 1))
        if kind == "near":
            values[k] = draw(near_values(values[k : k + 1]))
        elif kind == "swap":
            j = draw(st.integers(0, len(values) - 1))
            values[k], values[j] = values[j], values[k]
        elif kind == "repeat":
            values.insert(k, values[k])
        else:
            del values[k]
    return values


def seeds():
    return st.integers(0, 2**32)


def rejects_with(build, message):
    with pytest.raises(InvariantError) as exc:
        build()
    assert str(exc.value) == message


class TestFiberMeasure:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), seeds())
    def test_accepts_and_rejects_like_the_reference(self, data, seed):
        m = generate_space(random.Random(seed), FULL_MIXED).fibers[0].measure
        bps = tuple(data.draw(edited(m.breakpoints)))
        densities = tuple(data.draw(edited(m.densities)))
        flat = data.draw(edited([x for atom in m.atoms for x in atom]))
        atoms = tuple(zip(flat[0::2], flat[1::2]))
        message = fiber_measure_violation(atoms, bps, densities)
        if message is None:
            built = FiberMeasure(atoms, bps, densities)
            assert built.diffuse_cumulative == cumulative_diffuse(bps, densities)
        else:
            rejects_with(lambda: FiberMeasure(atoms, bps, densities), message)

    def test_hand_cases(self):
        half = F(1, 2)
        cases = [
            ((), (0,), ()),
            ((), (0, half, half, 1), (1, 1, 1)),
            ((), (0, 1), (1, 1)),
            ((), (0, half, 1), (F(-1, D64), 2)),
            (((half, F(-1, D64)),), (0, 1), (1,)),
            (((half, F(0)),), (0, 1), (1,)),
            (((1 + F(1, D64), half),), (0, 1), (half,)),
            (((half, F(1, 4)), (half, F(1, 4))), (0, 1), (half,)),
            (((half, F(1, D64)),), (0, 1), (1,)),
            ((), (0, 1), (1 + F(1, D64),)),
        ]
        for atoms, bps, densities in cases:
            message = fiber_measure_violation(
                atoms, tuple(map(F, bps)), tuple(map(F, densities))
            )
            assert message is not None
            rejects_with(lambda: FiberMeasure(atoms, bps, densities), message)

    @settings(max_examples=50, deadline=None)
    @given(seeds())
    def test_parsed_tables_hold_the_reduced_ints(self, seed):
        """A parsed fiber's table holds its xs and ys as ints over the
        lcm of their own reduced denominators."""
        space = generate_space(random.Random(seed), FULL_MIXED)
        for fiber in parse_scenario(serialize_scenario(Scenario(space=space))).space.fibers:
            m = fiber.measure
            xs, ys = m.breakpoints, cumulative_diffuse(m.breakpoints, m.densities)
            lx = lcm(*(x.denominator for x in xs))
            ly = lcm(*(y.denominator for y in ys))
            table = m.table
            assert (table.lx, table.ly) == (lx, ly)
            assert table.X == [x.numerator * (lx // x.denominator) for x in xs]
            assert table.Y == [y.numerator * (ly // y.denominator) for y in ys]


    @settings(max_examples=100, deadline=None)
    @given(seeds(), st.sampled_from((FULL_ATOMLESS, FULL_MIXED)))
    def test_seeded_table_image_equals_the_lazy_one(self, seed, params):
        """The constructor hands its table the ints it checked the
        measure on; they equal the image a table built on first read."""
        for fiber in generate_space(random.Random(seed), params).fibers:
            m = fiber.measure
            assert {"lx", "X", "ly", "Y"} <= vars(m.table).keys()
            lazy = PiecewiseLinear.trusted(m.breakpoints, m.diffuse_cumulative)
            assert (m.table.xs, m.table.ys) == (lazy.xs, lazy.ys)
            for name in ("lx", "X", "ly", "Y", "W", "S", "unit"):
                assert getattr(m.table, name) == getattr(lazy, name), name

class TestFiberSlice:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), seeds())
    def test_accepts_and_rejects_like_the_reference(self, data, seed):
        rng = random.Random(seed)
        space = generate_space(rng, FULL_MIXED)
        part = generate_event(rng, space).slices[0]
        flat = data.draw(edited([x for iv in part.intervals for x in iv]))
        intervals = tuple(zip(flat[0::2], flat[1::2]))
        picks = tuple(data.draw(edited(part.picks)))
        message = fiber_slice_violation(intervals, picks)
        if message is None:
            built = FiberSlice(intervals, picks)
            assert built.intervals == merged_intervals(intervals)
            assert built.picks == tuple(sorted(set(picks)))
        else:
            rejects_with(lambda: FiberSlice(intervals, picks), message)

    def test_canonical_input_is_kept_and_other_input_canonicalized(self):
        third = F(1, 3)
        canonical = ((F(0), third), (F(1, 2), F(1)))
        assert FiberSlice(canonical).intervals == canonical
        touching = ((F(0), third), (third, F(1, 2)))
        assert FiberSlice(touching).intervals == ((F(0), F(1, 2)),)
        unsorted = ((F(1, 2), F(1)), (F(0), third))
        assert FiberSlice(unsorted).intervals == canonical
        assert FiberSlice((), (F(1), F(0), F(1))).picks == (F(0), F(1))
        rejects_with(lambda: FiberSlice((), (F(2), F(-1))), "pick -1 outside [0,1]")


def family_parts(family):
    return [(c.fiber, c.lo, c.hi) for c in family.cells], family.masses, family.weights


PARAMS = GeneratorParams(max_fibers=3, max_pieces=4, max_measures=3)


class TestCellAndMeasureFamily:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-1, 2), near_values(()), near_values(()))
    def test_cell_accepts_and_rejects_like_the_reference(self, fiber, lo, hi):
        message = cell_violation(fiber, lo, hi)
        if message is None:
            cell = Cell(fiber, lo, hi)
            assert (cell.lo, cell.hi) == (lo, hi)
        else:
            rejects_with(lambda: Cell(fiber, lo, hi), message)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), seeds())
    def test_family_accepts_and_rejects_like_the_reference(self, data, seed):
        cells, masses, weights = family_parts(generate_family(random.Random(seed), PARAMS))
        ends = data.draw(edited([x for _, lo, hi in cells for x in (lo, hi)]))
        fibers = data.draw(
            st.just([f for f, _, _ in cells])
            | st.lists(st.integers(0, 2), min_size=len(cells), max_size=len(cells))
        )
        triples = [
            (f, lo, hi)
            for f, lo, hi in zip(fibers, ends[0::2], ends[1::2])
            if cell_violation(f, lo, hi) is None
        ]
        triples = data.draw(edited(triples, near=False))
        masses = [tuple(data.draw(edited(row))) for row in data.draw(edited(masses, near=False))]
        weights = tuple(data.draw(edited(weights)))
        message = measure_family_violation(triples, masses, weights)

        def build():
            return MeasureFamily(tuple(Cell(*t) for t in triples), tuple(masses), weights)

        if message is None:
            family = build()
            assert mixture(family) == mixture_masses(masses, weights)
        else:
            rejects_with(build, message)

    def test_family_hand_cases(self):
        half = F(1, 2)
        cells = (Cell(0, 0, half), Cell(0, half, 1))
        cases = [
            ((Cell(0, 0, half), Cell(0, 0, half)), ((half, half),), (1,)),
            ((Cell(0, 0, half), Cell(0, F(1, 4), 1)), ((half, half),), (1,)),
            ((Cell(1, 0, half), Cell(0, 0, 1), Cell(1, F(1, 4), 1)), ((half, half, 0),), (1,)),
            (cells, ((half, half + F(1, D64)),), (1,)),
            (cells, ((F(-1, D64), 1 + F(1, D64)),), (1,)),
            (cells, ((half, half), (half, half)), (F(-1, D64), 1 + F(1, D64))),
            (cells, ((half, half), (half, half)), (half, half + F(1, D64))),
        ]
        for cell_list, masses, weights in cases:
            masses = tuple(tuple(map(F, row)) for row in masses)
            weights = tuple(map(F, weights))
            message = measure_family_violation(
                [(c.fiber, c.lo, c.hi) for c in cell_list], masses, weights
            )
            assert message is not None
            rejects_with(lambda: MeasureFamily(cell_list, masses, weights), message)
        # a point site inside an interval cell overlaps nothing
        with_site = MeasureFamily((Cell(0, 0, 1), Cell(0, half, half)), ((half, half),), (1,))
        assert mixture(with_site) == (half, half)
