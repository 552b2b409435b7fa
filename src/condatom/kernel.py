"""Fiber-level atom scanning and exact pushforward uniformity checks.

Each fiber measure is the conditional law on its fiber, so scanning the
fibers' point masses decides atomlessness at the kernel level. That
scan, kernel_atom_scan with its KernelReport, lives in splitting next to
the verdicts read off it and is re-exported here. The complementary
check integrates test functions against the transported variable: for g
piecewise linear and u a fiber CDF, g(u(y)) integrates exactly against
the fiber's step density after refining nodes, and on an atomless space
every residual against the flat integral of g is 0. Hat functions at
every system node determine the whole pushforward, standing in for a
dense family of continuous tests.
"""

from __future__ import annotations

from fractions import Fraction

from .intervals import ONE, ZERO
from .piecewise import PiecewiseLinear
from .space import FiberedSpace, InvariantError, MismatchError
from .splitting import KernelReport, kernel_atom_scan  # re-exported: the kernel-level scan
from .uniform import UniformRV

TestFunction = PiecewiseLinear


def pushforward_uniformity_check(
    space: FiberedSpace, rv: UniformRV, tests
) -> tuple[tuple[Fraction, ...], ...]:
    """Residuals, per fiber and test g: the integral of g(u(y)) against
    the fiber measure minus the integral of g over [0, 1]. All residuals
    are exactly 0 when the transported variable is uniform under every
    fiber measure."""
    if len(rv.cdfs) != space.n_fibers:
        raise MismatchError(
            f"variable spans {len(rv.cdfs)} fibers, space has {space.n_fibers}"
        )
    rows = []
    for fiber, u in zip(space.fibers, rv.cdfs):
        m = fiber.measure
        row = []
        for g in tests:
            composed = g.compose(u)
            lhs = sum((w * composed.at(loc) for loc, w in m.atoms), ZERO)
            for p, q, d in m.pieces():
                if d:
                    lhs += d * composed.definite_integral(p, q)
            row.append(lhs - g.definite_integral())
        rows.append(tuple(row))
    return tuple(rows)


def system_nodes(rv: UniformRV) -> tuple[Fraction, ...]:
    """All CDF values at breakpoints, pooled across fibers, plus 0 and 1."""
    nodes = {ZERO, ONE}
    for u in rv.cdfs:
        nodes.update(u.ys)
    return tuple(sorted(nodes))


def hat_family(nodes) -> tuple[TestFunction, ...]:
    """One tent per node: value 1 there, 0 at the neighbouring nodes and
    beyond. Together the tents determine any piecewise-linear pushforward
    with breakpoints among the nodes."""
    nodes = tuple(sorted(nodes))
    if len(nodes) < 2 or nodes[0] != 0 or nodes[-1] != 1:
        raise InvariantError("nodes must be sorted and include 0 and 1")
    tents = []
    for k, node in enumerate(nodes):
        values = {ZERO: ZERO, ONE: ZERO}
        if k > 0:
            values[nodes[k - 1]] = ZERO
        if k + 1 < len(nodes):
            values[nodes[k + 1]] = ZERO
        values[node] = ONE
        tents.append(PiecewiseLinear.from_graph(values.items()))
    return tuple(tents)
