"""Piecewise-linear functions on [0, 1] with exact rational nodes.

Evaluation, leftmost preimages and the monotonicity check all read the
function's integer node table (space.NodeTable), built once per function
or shared with the table it was made from (PiecewiseLinear.of_table).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .intervals import ONE, ZERO
from .space import InvariantError, NodeTable, as_fraction


@dataclass(frozen=True)
class PiecewiseLinear:
    """Nodes (xs, ys) with linear interpolation; xs runs from 0 to 1.

    The constructor coerces and validates its nodes. of_table instead
    makes a view of an existing NodeTable, such as a fiber's cumulative
    diffuse mass (FiberMeasure.table), sharing its nodes and the table
    itself, so no Fraction is compared or converted again.
    """

    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple(as_fraction(x) for x in self.xs))
        object.__setattr__(self, "ys", tuple(as_fraction(y) for y in self.ys))
        if len(self.xs) != len(self.ys):
            raise InvariantError("node lists differ in length")
        if len(self.xs) < 2:
            raise InvariantError("need at least the two endpoint nodes")
        if self.xs[0] != 0 or self.xs[-1] != 1:
            raise InvariantError("nodes must run from 0 to 1")
        if any(a >= b for a, b in zip(self.xs, self.xs[1:])):
            raise InvariantError("nodes must be strictly increasing")

    @classmethod
    def from_graph(cls, points) -> PiecewiseLinear:
        """Build from (x, y) pairs, collapsing duplicate x nodes."""
        xs: list[Fraction] = []
        ys: list[Fraction] = []
        for x, y in sorted(points):
            if xs and x == xs[-1]:
                if y != ys[-1]:
                    raise InvariantError(f"conflicting values at node {x}")
                continue
            xs.append(x)
            ys.append(y)
        return cls(tuple(xs), tuple(ys))

    @classmethod
    def of_table(cls, table: NodeTable) -> PiecewiseLinear:
        """The function through table's nodes, whose xs must already run
        strictly increasing from 0 to 1; shares table.xs, table.ys and
        table itself."""
        out = object.__new__(cls)
        object.__setattr__(out, "xs", table.xs)
        object.__setattr__(out, "ys", table.ys)
        object.__setattr__(out, "table", table)
        return out

    @classmethod
    def constant(cls, value) -> PiecewiseLinear:
        return cls((ZERO, ONE), (as_fraction(value), as_fraction(value)))

    @cached_property
    def nondecreasing(self) -> bool:
        Y = self.table.Y
        return all(a <= b for a, b in zip(Y, Y[1:]))

    @cached_property
    def table(self) -> NodeTable:
        return NodeTable(self.xs, self.ys)

    def at(self, x) -> Fraction:
        x = as_fraction(x)
        if not 0 <= x.numerator <= x.denominator:
            raise ValueError(f"argument {x} outside [0,1]")
        return self.table.forward(x)

    def definite_integral(self, lo=ZERO, hi=ONE) -> Fraction:
        """Exact integral over [lo, hi] via trapezoids on refined nodes."""
        lo, hi = as_fraction(lo), as_fraction(hi)
        if not 0 <= lo <= hi <= 1:
            raise ValueError(f"bad integration range [{lo}, {hi}]")
        pts = [lo] + [x for x in self.xs if lo < x < hi] + [hi]
        total = ZERO
        for a, b in zip(pts, pts[1:]):
            if b > a:
                total += (b - a) * (self.at(a) + self.at(b)) / 2
        return total

    def compose(self, inner: PiecewiseLinear) -> PiecewiseLinear:
        """The map y -> self(inner(y)); inner must be nondecreasing.

        New nodes are inner's nodes plus the leftmost preimages under
        inner of self's nodes in its range, read off inner's node table,
        so the result is exactly linear between consecutive nodes.
        """
        if not inner.nondecreasing:
            raise ValueError("inner map must be nondecreasing")
        levels = [t for t in self.xs if inner.ys[0] < t <= inner.ys[-1]]
        xs = tuple(sorted(set(inner.xs).union(map(inner.table.inverse, levels))))
        return PiecewiseLinear(xs, tuple(self.at(inner.at(x)) for x in xs))
