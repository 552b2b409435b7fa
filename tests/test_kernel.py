from fractions import Fraction

import pytest

from condatom import (
    Fiber,
    FiberedSpace,
    FiberMeasure,
    PiecewiseLinear,
    UniformRV,
    build_uniform,
    hat_family,
    is_conditionally_atomless,
    kernel_atom_scan,
    pushforward_uniformity_check,
    system_nodes,
)
from condatom.generate import GeneratorParams, generate_space, rng_for

F = Fraction

LEBESGUE = FiberMeasure()
DOUBLED = FiberMeasure(breakpoints=(0, F(1, 2), 1), densities=(2, 0))


def single(measure):
    return FiberedSpace((Fiber(1, measure),))


class TestAtomScan:
    def test_all_lebesgue_is_atomless(self):
        report = kernel_atom_scan(single(LEBESGUE))
        assert report.atomless
        assert report.fiber_atoms == ((),)

    def test_atom_is_listed(self):
        m = FiberMeasure(
            atoms=((F(1, 2), F(1, 2)),), breakpoints=(0, F(1, 2), 1), densities=(1, 0)
        )
        report = kernel_atom_scan(single(m))
        assert not report.atomless
        assert report.fiber_atoms == (((F(1, 2), F(1, 2)),),)

    def test_agreement_with_conditional_verdict_on_random_spaces(self):
        from condatom import atom_witness

        rng = rng_for(3, "unit-kernel")
        params = GeneratorParams(max_fibers=5, max_pieces=6, atom_probability=0.5)
        for _ in range(200):
            space = generate_space(rng, params)
            report = kernel_atom_scan(space)
            assert report.atomless == is_conditionally_atomless(space)
            w = atom_witness(space)
            if w is not None:
                assert (w.location, w.weight) in report.fiber_atoms[w.fiber]


class TestPushforwardResiduals:
    def test_constant_test_function(self):
        space = single(DOUBLED)
        rv = build_uniform(space)
        residuals = pushforward_uniformity_check(space, rv, [PiecewiseLinear.constant(1)])
        assert residuals == ((F(0),),)

    def test_identity_on_lebesgue(self):
        space = single(LEBESGUE)
        rv = build_uniform(space)
        identity = PiecewiseLinear((F(0), F(1)), (F(0), F(1)))
        residuals = pushforward_uniformity_check(space, rv, [identity])
        assert residuals == ((F(0),),)

    def test_hat_at_half_on_doubled_density(self):
        space = single(DOUBLED)
        rv = build_uniform(space)
        hat = PiecewiseLinear((F(0), F(1, 2), F(1)), (F(0), F(1), F(0)))
        residuals = pushforward_uniformity_check(space, rv, [hat])
        assert residuals == ((F(0),),)

    def test_full_hat_family_vanishes_on_atomless_space(self):
        rng = rng_for(5, "unit-hats")
        params = GeneratorParams(max_fibers=3, max_pieces=5, atom_probability=0.0)
        space = generate_space(rng, params)
        rv = build_uniform(space)
        tents = hat_family(system_nodes(rv))
        residuals = pushforward_uniformity_check(space, rv, tents)
        assert all(r == 0 for row in residuals for r in row)

    def test_atom_produces_nonzero_residual(self):
        # half the mass sits at one point, so some tent must see it
        m = FiberMeasure(
            atoms=((F(1, 2), F(1, 2)),), breakpoints=(0, F(1, 2), 1), densities=(1, 0)
        )
        space = single(m)
        cdf = PiecewiseLinear((F(0), F(1)), (F(0), F(1)))
        rv = UniformRV((cdf,))
        tents = hat_family((F(0), F(1, 4), F(1, 2), F(3, 4), F(1)))
        residuals = pushforward_uniformity_check(space, rv, tents)
        assert any(r != 0 for r in residuals[0])


class TestHatFamily:
    def test_partition_of_unity(self):
        nodes = (F(0), F(1, 4), F(1, 2), F(1))
        tents = hat_family(nodes)
        assert len(tents) == len(nodes)
        for x in (F(0), F(1, 8), F(1, 4), F(3, 8), F(2, 3), F(1)):
            assert sum(t.at(x) for t in tents) == 1

    def test_peak_values(self):
        nodes = (F(0), F(1, 3), F(1))
        tents = hat_family(nodes)
        for node, tent in zip(nodes, tents):
            assert tent.at(node) == 1
            for other in nodes:
                if other != node:
                    assert tent.at(other) == 0

    def test_nodes_must_cover_the_interval(self):
        with pytest.raises(Exception, match="include 0 and 1"):
            hat_family((F(1, 4), F(1, 2)))


class TestPiecewiseMachinery:
    def test_compose_refines_nodes_exactly(self):
        g = PiecewiseLinear((F(0), F(1, 2), F(1)), (F(0), F(1), F(0)))
        u = PiecewiseLinear((F(0), F(1, 2), F(1)), (F(0), F(1), F(1)))
        composed = g.compose(u)
        # g(u(y)) peaks where u crosses 1/2, i.e. at y = 1/4
        assert composed.at(F(1, 4)) == 1
        assert composed.at(F(1, 2)) == 0
        assert composed.definite_integral(F(0), F(1, 2)) == F(1, 4)

    def test_compose_nodes_on_an_inner_map_with_offset_and_flat_stretch(self):
        # u runs from 1/4 to 3/4 and is flat at 1/2 on [1/4, 1/2]; only
        # g's nodes 3/8 and 5/8 lie strictly inside a rising piece of u
        u = PiecewiseLinear((F(0), F(1, 4), F(1, 2), F(1)), (F(1, 4), F(1, 2), F(1, 2), F(3, 4)))
        g_xs = (F(0), F(1, 8), F(3, 8), F(1, 2), F(5, 8), F(7, 8), F(1))
        g = PiecewiseLinear(g_xs, tuple(F(k % 2) for k in range(len(g_xs))))
        composed = g.compose(u)
        assert composed.xs == (F(0), F(1, 8), F(1, 4), F(1, 2), F(3, 4), F(1))
        assert composed.ys == tuple(g.at(u.at(x)) for x in composed.xs)

    def test_integral_is_exact_on_trapezoids(self):
        g = PiecewiseLinear((F(0), F(1, 4), F(1)), (F(1), F(1, 2), F(1, 2)))
        assert g.definite_integral() == F(3, 4) * F(1, 2) + F(1, 4) * F(3, 4)
