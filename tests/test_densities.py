from fractions import Fraction

import pytest
from oracles import mixture_masses

from condatom import (
    AtomObstruction,
    Cell,
    CellPartition,
    MeasureFamily,
    MismatchError,
    build_uniform,
    cond_exp_on_partition,
    conditionally_atomless,
    density_partition,
    density_vectors,
    inclusion_mod_null,
    is_conditionally_atomless,
    kernel_atom_scan,
    level_set,
    mixture,
    null_cells,
    site_witness,
    to_fibered_space,
)
from condatom.generate import GeneratorParams, generate_family, positive_weights, rng_for

F = Fraction


@pytest.fixture
def lebesgue_vs_doubled():
    """Q1 uniform on [0,1), Q2 with density 2 on [0,1/2); two half cells."""
    cells = (Cell(0, F(0), F(1, 2)), Cell(0, F(1, 2), F(1)))
    return MeasureFamily(
        cells=cells,
        masses=((F(1, 2), F(1, 2)), (F(1), F(0))),
        weights=(F(1, 2), F(1, 2)),
    )


class TestMixture:
    def test_single_measure_is_its_own_mixture(self):
        fam = MeasureFamily(
            cells=(Cell(0, F(0), F(1)),), masses=((F(1),),), weights=(F(1),)
        )
        assert mixture(fam) == (F(1),)

    def test_equal_measures_are_a_fixed_point(self):
        cells = (Cell(0, F(0), F(1, 2)), Cell(0, F(1, 2), F(1)))
        fam = MeasureFamily(
            cells=cells,
            masses=((F(1, 4), F(3, 4)), (F(1, 4), F(3, 4))),
            weights=(F(1, 3), F(2, 3)),
        )
        assert mixture(fam) == (F(1, 4), F(3, 4))

    def test_worked_example(self, lebesgue_vs_doubled):
        assert mixture(lebesgue_vs_doubled) == (F(3, 4), F(1, 4))

    @pytest.mark.parametrize("seed", range(20))
    def test_computed_once_per_family_and_exact(self, seed):
        fam = generate_family(rng_for(seed, "mixture"), GeneratorParams(max_measures=4))
        assert mixture(fam) is mixture(fam)
        assert mixture(fam) == mixture_masses(fam.masses, fam.weights)
        reweighted = fam.with_weights(reversed(fam.weights))
        assert mixture(reweighted) == mixture_masses(reweighted.masses, reweighted.weights)


class TestDensityVectors:
    def test_single_measure_gives_unit_density(self):
        fam = MeasureFamily(
            cells=(Cell(0, F(0), F(1)),), masses=((F(1),),), weights=(F(1),)
        )
        assert density_vectors(fam) == ((F(1),),)

    def test_worked_example(self, lebesgue_vs_doubled):
        assert density_vectors(lebesgue_vs_doubled) == (
            (F(2, 3), F(4, 3)),
            (F(2), F(0)),
        )

    def test_null_cells_get_zero_vectors(self):
        cells = (Cell(0, F(0), F(1, 2)), Cell(0, F(1, 2), F(1)))
        fam = MeasureFamily(
            cells=cells,
            masses=((F(1), F(0)), (F(1), F(0))),
            weights=(F(1, 2), F(1, 2)),
        )
        assert density_vectors(fam)[1] == (F(0), F(0))
        assert null_cells(fam) == frozenset({1})

    def test_weighted_sum_is_one_off_nulls(self, lebesgue_vs_doubled):
        fam = lebesgue_vs_doubled
        for c, vec in enumerate(density_vectors(fam)):
            if c not in null_cells(fam):
                assert sum(w * v for w, v in zip(fam.weights, vec)) == 1


class TestDensityPartition:
    def test_constant_vector_gives_one_block(self):
        assert density_partition(((F(1),), (F(1),))).blocks == (0, 0)

    def test_worked_example_splits_in_two(self, lebesgue_vs_doubled):
        assert density_partition(density_vectors(lebesgue_vs_doubled)).blocks == (0, 1)

    def test_distinct_vectors_give_discrete_partition(self):
        vectors = ((F(1), F(2)), (F(2), F(1)), (F(0), F(0)))
        assert density_partition(vectors).blocks == (0, 1, 2)


class TestInclusionModNull:
    def test_reflexive(self):
        p = CellPartition((0, 1, 0, 1))
        assert inclusion_mod_null(p, p, frozenset())

    def test_trivial_partition_is_included_in_anything(self):
        p = CellPartition((0, 0, 0))
        q = CellPartition((0, 1, 2))
        assert inclusion_mod_null(p, q, frozenset())
        assert not inclusion_mod_null(q, p, frozenset())

    def test_nulls_are_ignored(self):
        p = CellPartition((0, 1, 0))
        q = CellPartition((0, 0, 1))
        assert not inclusion_mod_null(p, q, frozenset())
        assert inclusion_mod_null(p, q, frozenset({1}))

    def test_grid_mismatch(self):
        with pytest.raises(MismatchError):
            inclusion_mod_null(CellPartition((0,)), CellPartition((0, 1)), frozenset())

    def test_two_positive_weightings_agree_mod_null(self):
        rng = rng_for(13, "unit-weightings")
        params = GeneratorParams(max_fibers=3, max_pieces=6, atom_probability=0.2, max_measures=4)
        for _ in range(50):
            fam = generate_family(rng, params)
            other = fam.with_weights(positive_weights(rng, fam.n_measures))
            nulls = null_cells(fam)
            p = density_partition(density_vectors(fam))
            q = density_partition(density_vectors(other))
            assert inclusion_mod_null(p, q, nulls)
            assert inclusion_mod_null(q, p, nulls)


class TestCondExpOnPartition:
    def test_trivial_partition_gives_global_mean(self):
        base = (F(1, 4), F(1, 4), F(1, 2))
        xi = (F(1), F(2), F(4))
        p = CellPartition((0, 0, 0))
        mean = F(1, 4) + F(1, 2) + F(2)
        assert cond_exp_on_partition(base, p, xi) == (mean, mean, mean)

    def test_discrete_partition_returns_xi(self):
        base = (F(1, 2), F(1, 2), F(0))
        xi = (F(3), F(5), F(7))
        p = CellPartition((0, 1, 2))
        out = cond_exp_on_partition(base, p, xi)
        assert out[:2] == (F(3), F(5))
        assert out[2] == 0  # zero-mass block convention

    def test_refinement_on_nulls_is_invisible(self):
        base = (F(1, 2), F(0), F(1, 2))
        xi = (F(1), F(9), F(3))
        coarse = CellPartition((0, 0, 0))
        fine = CellPartition((0, 1, 0))  # only the null cell moved out
        c = cond_exp_on_partition(base, coarse, xi)
        f = cond_exp_on_partition(base, fine, xi)
        assert all(c[i] == f[i] for i in range(3) if base[i] > 0)


class TestAtomlessVerdict:
    def test_purely_diffuse_family_is_atomless(self, lebesgue_vs_doubled):
        assert conditionally_atomless(lebesgue_vs_doubled)
        assert site_witness(lebesgue_vs_doubled) is None

    def test_point_site_is_witnessed(self):
        cells = (Cell(0, F(0), F(1)), Cell(0, F(1, 2), F(1, 2)))
        fam = MeasureFamily(
            cells=cells,
            masses=((F(1, 2), F(1, 2)),),
            weights=(F(1),),
        )
        assert not conditionally_atomless(fam)
        assert site_witness(fam) == 1

    def test_zero_mass_site_does_not_matter(self):
        cells = (Cell(0, F(0), F(1)), Cell(0, F(1, 2), F(1, 2)))
        fam = MeasureFamily(
            cells=cells,
            masses=((F(1), F(0)),),
            weights=(F(1),),
        )
        assert conditionally_atomless(fam)

    def test_uniform_transform_levels_are_exact(self):
        rng = rng_for(17, "unit-transform")
        params = GeneratorParams(max_fibers=3, max_pieces=5, atom_probability=0.0, max_measures=3)
        fam = generate_family(rng, params)
        partition = density_partition(density_vectors(fam))
        space = to_fibered_space(fam, partition)
        rv = build_uniform(space)
        assert space.n_fibers
        for k in range(0, 1025, 64):
            t = F(k, 1024)
            assert space.cond_expectation(level_set(rv, t)) == (t,) * space.n_fibers

    def test_transform_refuses_positive_sites(self):
        cells = (Cell(0, F(0), F(1)), Cell(0, F(1, 2), F(1, 2)))
        fam = MeasureFamily(cells=cells, masses=((F(1, 2), F(1, 2)),), weights=(F(1),))
        partition = density_partition(density_vectors(fam))
        with pytest.raises(AtomObstruction, match="point mass"):
            build_uniform(to_fibered_space(fam, partition))


class TestRegroupedSpace:
    def test_verdicts_agree_on_random_families(self):
        rng = rng_for(19, "unit-regroup")
        params = GeneratorParams(max_fibers=3, max_pieces=5, atom_probability=0.4, max_measures=3)
        for _ in range(50):
            fam = generate_family(rng, params)
            partition = density_partition(density_vectors(fam))
            space = to_fibered_space(fam, partition)
            assert is_conditionally_atomless(space) == conditionally_atomless(fam)
            assert kernel_atom_scan(space).atomless == conditionally_atomless(fam)

    def test_block_masses_become_fiber_weights(self, lebesgue_vs_doubled):
        partition = density_partition(density_vectors(lebesgue_vs_doubled))
        space = to_fibered_space(lebesgue_vs_doubled, partition)
        assert tuple(f.weight for f in space.fibers) == (F(3, 4), F(1, 4))
        assert space.measure(space.whole_event()) == 1
