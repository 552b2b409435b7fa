import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import condatom.cli
import condatom.selftest
from condatom import (
    AtomObstruction,
    EventSet,
    Fiber,
    FiberedSpace,
    FiberMeasure,
    FiberSlice,
    KernelReport,
    MismatchError,
    PiecewiseLinear,
    UniformRV,
    build_uniform,
    hat_family,
    kernel_atom_scan,
    pushforward_uniformity_check,
    split,
    strict_split_witness,
    system_nodes,
)
from condatom.cli import main
from condatom.generate import GeneratorParams, generate_space, rng_for
from condatom.selftest import FULL_MIXED, kernel_agreement
from condatom.splitting import verdict_holds
from oracles import pushforward_residuals

F = Fraction

LEBESGUE = FiberMeasure()
DOUBLED = FiberMeasure(breakpoints=(0, F(1, 2), 1), densities=(2, 0))
GOLDEN = Path(__file__).parent / "golden"
# the README scenario's space: fiber 1 has diffuse mass 1/2 on [0, 1/2)
# and an atom of weight 1/2 at 3/4
README_SPACE = FiberedSpace(
    (
        Fiber(F(1, 2), LEBESGUE),
        Fiber(
            F(1, 2),
            FiberMeasure(
                atoms=((F(3, 4), F(1, 2)),), breakpoints=(0, F(1, 2), 1), densities=(1, 0)
            ),
        ),
    )
)


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


class TestVerdictHolds:
    """verdict_holds tests a report against splitting behaviour, so it
    accepts the scan's own verdict and refuses a wrong one."""

    def test_the_scan_holds_both_ways(self):
        for space in (README_SPACE, single(LEBESGUE), single(DOUBLED)):
            assert verdict_holds(space, kernel_atom_scan(space))

    def test_an_atomless_claim_fails_where_the_atom_fiber_has_diffuse_mass(self):
        assert not verdict_holds(README_SPACE, KernelReport(((), ())))

    @pytest.mark.parametrize(
        "fiber_atoms",
        [
            (((F(3, 4), F(1, 2)),), ()),  # the right atom on the wrong fiber
            ((), ((F(1, 4), F(1, 2)),)),  # the wrong location
            ((), ((F(3, 4), F(1, 4)),)),  # the wrong weight
            ((), (), ((F(3, 4), F(1, 2)),)),  # a fiber the space does not have
        ],
    )
    def test_a_misplaced_witness_fails(self, fiber_atoms):
        assert not verdict_holds(README_SPACE, KernelReport(fiber_atoms))

    def test_the_scan_holds_and_a_moved_witness_fails_on_random_spaces(self):
        rng = rng_for(3, "unit-kernel")
        params = GeneratorParams(max_fibers=5, max_pieces=6, atom_probability=0.5)
        moved = 0
        for _ in range(200):
            space = generate_space(rng, params)
            report = kernel_atom_scan(space)
            assert verdict_holds(space, report)
            w = report.witness
            if w is None:
                continue
            atoms = report.fiber_atoms[w.fiber]
            location = (w.location + 1) / 2 if w.location < 1 else w.location / 2
            while location in dict(atoms):
                location = (location + w.location) / 2
            fiber_atoms = list(report.fiber_atoms)
            fiber_atoms[w.fiber] = ((location, w.weight),) + atoms[1:]
            assert not verdict_holds(space, KernelReport(tuple(fiber_atoms)))
            moved += 1
        assert moved >= 50

    def test_a_phantom_atom_on_an_atomless_space_fails(self):
        assert not verdict_holds(single(LEBESGUE), KernelReport((((F(1, 2), F(1)),),)))

    def test_converse_on_atom_carrying_spaces(self):
        # the paper's converse: an atom makes a positive event that no
        # strict sub-event splits, and an exact half split names it
        rng = rng_for(23, "unit-kernel-converse")
        seen = 0
        while seen < 100:
            space = generate_space(rng, FULL_MIXED)
            report = kernel_atom_scan(space)
            w = report.witness
            if w is None:
                continue
            seen += 1
            assert (w.location, w.weight) == report.fiber_atoms[w.fiber][0]
            slices = [FiberSlice()] * space.n_fibers
            slices[w.fiber] = FiberSlice(picks=(w.location,))
            alone = EventSet(tuple(slices))
            assert space.cond_expectation(alone)[w.fiber] == w.weight > 0
            assert strict_split_witness(space, alone) is None
            with pytest.raises(AtomObstruction) as blocked:
                split(space, alone, (F(1, 2),) * space.n_fibers)
            assert (blocked.value.fiber, blocked.value.location) == (w.fiber, w.location)
            assert verdict_holds(space, report)


class TestChecksFailOnAWrongScan:
    """With the scan replaced by a wrong one, the CLI checks and
    criterion 4 fail instead of comparing the scan with itself."""

    def test_no_atoms_on_the_readme_scenario(self, monkeypatch, capsys):
        def scan(space):
            return KernelReport(tuple(() for _ in space.fibers))

        monkeypatch.setattr(condatom.cli, "kernel_atom_scan", scan)
        monkeypatch.setattr(condatom.selftest, "kernel_atom_scan", scan)
        assert main(["check", "--scenario", str(GOLDEN / "readme.json")]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["checks"] == {"kernel-agreement": False}
        result = kernel_agreement(42, instances=10, sets_per=2)
        assert not result.passed
        assert not result.detail.endswith(" 0 violations")

    @pytest.mark.parametrize(
        "command,key", [("check", "kernel-agreement"), ("kernel", "conditional-agreement")]
    )
    def test_a_phantom_atom_on_an_atomless_scenario(self, monkeypatch, capsys, command, key):
        def scan(space):
            return KernelReport((((F(1, 2), F(1, 2)),),) + ((),) * (space.n_fibers - 1))

        monkeypatch.setattr(condatom.cli, "kernel_atom_scan", scan)
        assert main([command, "--scenario", str(GOLDEN / "readme-no-atom.json")]) == 1
        report = json.loads(capsys.readouterr().out)
        assert (report["verdict"], report["checks"][key]) == ("atom", False)


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

    def test_identity_cdf_on_doubled_density(self):
        # worked by hand: density 2 on [0, 1/2) pushed by the identity
        # integrates y to 1/4 against 1/2 under Lebesgue, while the
        # constant and the hat at 1/2 integrate to 1 and 1/2 either way
        identity = PiecewiseLinear((F(0), F(1)), (F(0), F(1)))
        hat = PiecewiseLinear((F(0), F(1, 2), F(1)), (F(0), F(1), F(0)))
        tests = [PiecewiseLinear.constant(1), identity, hat]
        residuals = pushforward_uniformity_check(single(DOUBLED), UniformRV((identity,)), tests)
        assert residuals == ((F(0), F(-1, 4), F(0)),)

    def test_fiber_count_mismatch(self):
        rv = build_uniform(single(LEBESGUE))
        two = FiberedSpace((Fiber(F(1, 2), LEBESGUE), Fiber(F(1, 2), DOUBLED)))
        with pytest.raises(MismatchError, match="variable spans 1 fibers, space has 2"):
            pushforward_uniformity_check(two, rv, [PiecewiseLinear.constant(1)])

    def test_a_decreasing_cdf_is_refused(self):
        rv = build_uniform(single(LEBESGUE))
        down = PiecewiseLinear((F(0), F(1, 2), F(1)), (F(0), F(1, 2), F(1, 4)))
        object.__setattr__(rv, "cdfs", (down,))  # past UniformRV's own check
        with pytest.raises(ValueError, match="inner map must be nondecreasing"):
            pushforward_uniformity_check(single(LEBESGUE), rv, [PiecewiseLinear.constant(1)])

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


class TestPushforwardAgainstOracle:
    """Residuals equal tests/oracles.py's reference, which composes each
    test with the CDF and integrates by trapezoids, on 50 generated spaces
    per kind: the true CDFs (every residual 0), the true CDFs rotated one
    fiber on, a CDF with a flat stretch on fiber 0, CDFs scaled to end at
    3/4, and the diffuse-mass CDFs of atom-carrying measures. The tests
    are the tents at the system nodes plus two random non-tent functions;
    every case of a wrong kind has a nonzero residual."""

    FLAT = PiecewiseLinear((F(0), F(1, 3), F(2, 3), F(1)), (F(0), F(1, 2), F(1, 2), F(1)))
    ATOMLESS = GeneratorParams(max_fibers=3, max_pieces=4, atom_probability=0.0)
    MIXED = GeneratorParams(max_fibers=3, max_pieces=4, atom_probability=0.7)

    @staticmethod
    def random_test(rng):
        inner = {F(rng.randint(1, 15), 16) for _ in range(rng.randint(0, 3))}
        xs = (F(0), *sorted(inner), F(1))
        return PiecewiseLinear(xs, tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in xs))

    def cdfs(self, kind, space):
        """The kind's CDFs for space, or None when space does not fit it."""
        if kind == "atoms":
            if kernel_atom_scan(space).atomless:
                return None
            return tuple(PiecewiseLinear.of_table(f.measure.table) for f in space.fibers)
        true = build_uniform(space).cdfs
        if kind == "true":
            return true
        if kind == "rotated":
            rotated = true[1:] + true[:1]
            return None if rotated == true else rotated
        if kind == "flat":
            return (self.FLAT,) + true[1:]
        return tuple(PiecewiseLinear(u.xs, tuple(y * F(3, 4) for y in u.ys)) for u in true)

    @pytest.mark.parametrize("kind", ["true", "rotated", "flat", "short", "atoms"])
    def test_residuals_equal_the_reference(self, kind):
        grng, rng = rng_for(7, "unit-pushforward-" + kind), random.Random(kind)
        params = self.MIXED if kind == "atoms" else self.ATOMLESS
        seen = 0
        while seen < 50:
            space = generate_space(grng, params)
            cdfs = self.cdfs(kind, space)
            if cdfs is None:
                continue
            seen += 1
            rv = UniformRV(cdfs)
            tests = hat_family(system_nodes(rv)) + (self.random_test(rng), self.random_test(rng))
            residuals = pushforward_uniformity_check(space, rv, tests)
            assert residuals == pushforward_residuals(space, rv, tests)
            assert all(type(r) is Fraction for row in residuals for r in row)
            nonzero = any(r != 0 for row in residuals for r in row)
            assert nonzero == (kind != "true")


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
