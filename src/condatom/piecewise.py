"""Piecewise-linear functions on [0, 1] with exact rational nodes.

A PiecewiseLinear is the graph through its nodes together with that
graph's integer image, which is built on the first read of any of its
fields. Evaluation, leftmost preimages, the rises over a list of
intervals and the monotonicity check all read those ints; the
trapezoid antiderivative, which definite_integral and the kernel's
pushforward check read, works on the Fractions. A fiber's
cumulative diffuse mass (FiberMeasure.table) is one of these functions,
made without checks by PiecewiseLinear.trusted, and is also the fiber's
conditional CDF on the uniform side: each fiber CDF is one object.
FiberMeasure hands its table the node ints it checked the measure on,
so that table's first read builds only the slopes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .intervals import ONE, ZERO, InvariantError, as_fraction, int_keys


class _IntField:
    """One field of a PiecewiseLinear's integer image. The first read of
    any field builds them all into the instance's dict, where every
    later read finds them without calling this descriptor. A function
    made with a seeded image already holds lx, X, ly and Y there, and
    the first read adds only the slopes."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        image = vars(obj)
        if "Y" not in image:
            image["lx"], image["X"] = int_keys(obj.xs)
            image["ly"], image["Y"] = int_keys(obj.ys)
        X, Y = image["X"], image["Y"]
        widths = [b - a for a, b in zip(X, X[1:])]
        W = lcm(*widths)
        S = [(b - a) * (W // w) for a, b, w in zip(Y, Y[1:], widths)]
        image.update(W=W, S=S, unit=image["ly"] * W)
        return image[self.name]


@dataclass(frozen=True)
class PiecewiseLinear:
    """Nodes (xs, ys) with linear interpolation; xs runs strictly
    increasing from 0 to 1.

    The constructor coerces and validates its nodes; trusted skips both.
    The integer image holds every x as an int over lx, the lcm of the x
    denominators, every y as an int over ly, and the slope of every
    piece as an int S[j] over unit = ly*W, where W is the lcm of the
    piece widths X[j+1] - X[j]. reading and preimage bisect those ints
    instead of comparing Fractions, and take and give ints; forward
    wraps reading for a Fraction argument and result. Both reads are
    exact: for x = p/q, x >= xs[j] holds exactly when p*lx // q >= X[j],
    and for t = p/q, t <= ys[k] exactly when ceil(p*ly / q) <= Y[k].
    """

    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]

    lx, X, ly, Y, W, S, unit = (_IntField() for _ in range(7))

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
    def trusted(
        cls, xs: tuple[Fraction, ...], ys: tuple[Fraction, ...], image=None
    ) -> PiecewiseLinear:
        """The function through nodes that are already Fractions, xs
        strictly increasing from 0 to 1, made without the constructor's
        coercion and checks; internal fast path for derived graphs.
        image, when given, is the nodes' (lx, X, ly, Y) exactly as the
        first read would build them, lx and ly the lcm of the reduced
        denominators, and seeds the integer image."""
        out = object.__new__(cls)
        object.__setattr__(out, "xs", xs)
        object.__setattr__(out, "ys", ys)
        if image is not None:
            lx, X, ly, Y = image
            vars(out).update(lx=lx, X=X, ly=ly, Y=Y)
        return out

    @cached_property
    def nondecreasing(self) -> bool:
        Y = self.Y
        return all(a <= b for a, b in zip(Y, Y[1:]))

    def reading(self, p: int, q: int) -> int:
        """The graph's value at p/q, q > 0, as an int over unit*q; p/q
        outside [0, 1] clamps to the end values."""
        X, lx = self.X, self.lx
        j = bisect_right(X, p * lx // q) - 1
        if j < 0:
            return self.Y[0] * self.W * q
        if j == len(X) - 1:
            return self.Y[-1] * self.W * q
        return self.Y[j] * self.W * q + self.S[j] * (p * lx - X[j] * q)

    def forward(self, x) -> Fraction:
        """The graph's value at the Fraction x, clamped like reading."""
        q = x.denominator
        return Fraction(self.reading(x.numerator, q), self.unit * q)

    def spans(self, intervals) -> tuple[list[tuple[int, int]], int, int]:
        """The graph over each [lo, hi) of intervals, as ints over one
        common denominator den: the value at lo and the rise from lo to
        hi. den is unit times the lcm of the endpoint denominators, so
        it grows with the endpoints' lcm, not their product. Returns
        (pairs, the total of the rises, den)."""
        q = lcm(*(x.denominator for pair in intervals for x in pair))
        at = self.reading
        out = []
        total = 0
        for lo, hi in intervals:
            base = at(lo.numerator * (q // lo.denominator), q)
            rise = at(hi.numerator * (q // hi.denominator), q) - base
            out.append((base, rise))
            total += rise
        return out, total, self.unit * q

    def preimage(self, p: int, q: int) -> Fraction:
        """The leftmost x at which the graph, whose ys must be
        nondecreasing, reaches t = p/q, q > 0. The piece holding it is
        the first whose right-end value reaches t; its left-end value is
        below t, so it rises and x never lands inside a flat stretch. t
        at or below ys[0] gives 0, and t above ys[-1] clamps to 1."""
        Y = self.Y
        k = bisect_left(Y, -(-p * self.ly // q))
        if k == 0:
            return self.xs[0]
        if k == len(Y):
            return self.xs[-1]
        r = p * self.ly - Y[k - 1] * q  # (t - ys[k-1]) * ly * q
        dy = Y[k] - Y[k - 1]
        if r == dy * q:
            return self.xs[k]
        X = self.X
        dx = X[k] - X[k - 1]
        return Fraction(X[k - 1] * q * dy + dx * r, self.lx * q * dy)

    def at(self, x) -> Fraction:
        x = as_fraction(x)
        if not 0 <= x.numerator <= x.denominator:
            raise ValueError(f"argument {x} outside [0,1]")
        return self.forward(x)

    def antiderivative(self):
        """x -> the integral of the graph over [0, x], x in [0, 1]:
        trapezoids up to the node at or below x, then the trapezoid from
        that node to x."""
        xs, ys = self.xs, self.ys
        cumulative = [ZERO]
        for a, b, ya, yb in zip(xs, xs[1:], ys, ys[1:]):
            cumulative.append(cumulative[-1] + (b - a) * (ya + yb) / 2)

        def integral(x: Fraction) -> Fraction:
            k = bisect_right(xs, x, 0, len(xs) - 1) - 1
            return cumulative[k] + (x - xs[k]) * (ys[k] + self.at(x)) / 2

        return integral

    def definite_integral(self, lo=ZERO, hi=ONE) -> Fraction:
        """Exact integral over [lo, hi], read off the antiderivative."""
        lo, hi = as_fraction(lo), as_fraction(hi)
        if not 0 <= lo <= hi <= 1:
            raise ValueError(f"bad integration range [{lo}, {hi}]")
        integral = self.antiderivative()
        return integral(hi) - integral(lo)

    def compose(self, inner: PiecewiseLinear) -> PiecewiseLinear:
        """The map y -> self(inner(y)); inner must be nondecreasing.

        New nodes are inner's nodes plus the leftmost preimages under
        inner of self's nodes in its range, read off inner's integer
        image, so the result is exactly linear between consecutive nodes.
        """
        if not inner.nondecreasing:
            raise ValueError("inner map must be nondecreasing")
        levels = [t for t in self.xs if inner.ys[0] < t <= inner.ys[-1]]
        cuts = (inner.preimage(t.numerator, t.denominator) for t in levels)
        xs = tuple(sorted(set(inner.xs).union(cuts)))
        return PiecewiseLinear(xs, tuple(self.at(inner.at(x)) for x in xs))
