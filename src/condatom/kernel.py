"""Fiber-level atom scanning and exact pushforward uniformity checks.

Each fiber measure is the conditional law on its fiber, so scanning the
fibers' point masses decides atomlessness at the kernel level. That
scan, kernel_atom_scan with its KernelReport, lives in splitting next to
the verdicts read off it and is re-exported here. The complementary
check transports each fiber measure mu by its CDF u and compares the
pushforward nu = u_#mu with Lebesgue measure on [0, 1]. One pass per
fiber, independent of the test functions, reads the signed measure
nu - lambda off the fiber's breakpoints refined at u's nodes: on each
refined segment the density is constant and u linear, so the segment
carries either a constant density onto u's image of it or, where u is
flat, a point mass; atoms carry their weights to their images, and
Lebesgue mass beyond u's range counts -1. A test g's residual is g
integrated against that signed measure, read off g's exact
antiderivative, g.antiderivative(). On an atomless space with its true
CDFs the signed measure is 0, so every residual is exactly 0 without
evaluating a test. Hat functions at every system node determine the
whole pushforward, standing in for a dense family of continuous tests.
"""

from __future__ import annotations

from fractions import Fraction

from .intervals import ONE, ZERO, as_fraction
from .piecewise import PiecewiseLinear
from .space import FiberedSpace, FiberMeasure, InvariantError, MismatchError
from .splitting import KernelReport, kernel_atom_scan  # re-exported: the kernel-level scan
from .uniform import UniformRV

TestFunction = PiecewiseLinear


def _signed_pushforward(measure: FiberMeasure, u: PiecewiseLinear):
    """u_#measure - lambda on [0, 1] as point masses (v, w) and excess
    density pieces (lo, hi, s), each nonzero; u starts at 0, as
    UniformRV checks."""
    if not u.nondecreasing:
        raise ValueError("inner map must be nondecreasing")
    M, U = measure.table.forward, u.forward
    masses = [(U(loc), w) for loc, w in measure.atoms]
    excess = []
    xs = sorted(set(measure.breakpoints).union(u.xs))
    m0, u0 = M(xs[0]), U(xs[0])
    for x in xs[1:]:
        m1, u1 = M(x), U(x)
        mass, rise = m1 - m0, u1 - u0
        if rise:
            if mass != rise:
                excess.append((u0, u1, mass / rise - 1))
        elif mass:
            masses.append((u0, mass))
        m0, u0 = m1, u1
    if u0 < 1:
        excess.append((u0, ONE, -ONE))
    return masses, excess


def pushforward_uniformity_check(
    space: FiberedSpace, rv: UniformRV, tests
) -> tuple[tuple[Fraction, ...], ...]:
    """Residuals, per fiber and test g: the integral of g(u(y)) against
    the fiber measure minus the integral of g over [0, 1], computed as
    the integral of g against u_#mu - lambda. All residuals are exactly
    0 when the transported variable is uniform under every fiber
    measure."""
    if len(rv.cdfs) != space.n_fibers:
        raise MismatchError(
            f"variable spans {len(rv.cdfs)} fibers, space has {space.n_fibers}"
        )
    rows = []
    for fiber, u in zip(space.fibers, rv.cdfs):
        masses, excess = _signed_pushforward(fiber.measure, u)
        row = []
        for g in tests:
            residual = sum((w * g.at(v) for v, w in masses), ZERO)
            if excess:
                G = g.antiderivative()
                residual += sum((s * (G(hi) - G(lo)) for lo, hi, s in excess), ZERO)
            row.append(residual)
        rows.append(tuple(row))
    return tuple(rows)


def system_nodes(rv: UniformRV) -> tuple[Fraction, ...]:
    """All CDF values at breakpoints, pooled across fibers, plus 0 and 1."""
    nodes = {ZERO, ONE}
    for u in rv.cdfs:
        nodes.update(u.ys)
    return tuple(sorted(nodes))


def hat_family(nodes) -> tuple[TestFunction, ...]:
    """One tent per distinct node: value 1 there, 0 at the neighbouring
    distinct nodes and beyond. A tent's nodes are its node's window in
    the sorted distinct nodes, padded with 0 and 1 where the window does
    not reach them. Together the tents determine any piecewise-linear
    pushforward with breakpoints among the nodes."""
    nodes = sorted(set(map(as_fraction, nodes)))
    if len(nodes) < 2 or nodes[0] != 0 or nodes[-1] != 1:
        raise InvariantError("nodes must include 0 and 1")
    tents = []
    for k, node in enumerate(nodes):
        xs = tuple(nodes[max(k - 1, 0) : k + 2])
        if xs[0] != 0:
            xs = (ZERO, *xs)
        if xs[-1] != 1:
            xs = (*xs, ONE)
        tents.append(PiecewiseLinear.trusted(xs, tuple(ONE if x == node else ZERO for x in xs)))
    return tuple(tents)
