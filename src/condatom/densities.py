"""Finite families of measures on a shared cell grid.

A MeasureFamily holds several probability measures over the same cells
(per-fiber intervals plus point sites) together with strictly positive
mixture weights. The mixture is the reference measure; density_vectors
are the per-cell ratios against it, with the convention that they vanish
on null cells. Grouping cells by their density vector yields the finite
algebra the densities generate, and partitions are compared modulo the
mixture's null cells. The atomless verdict asks whether the mixture puts
point mass inside any positive block. to_fibered_space lays each
positive block's cells out on [0, 1] by cumulative mass, one fiber per
block; when no block holds point mass, build_uniform on that space is a
variable uniform on [0, 1] within every block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .intervals import ONE, ZERO, int_keys
from .space import (
    Fiber,
    FiberedSpace,
    FiberMeasure,
    InvariantError,
    MismatchError,
    as_fraction,
    as_fractions,
)


@dataclass(frozen=True)
class Cell:
    """One grid cell on a fiber: the interval [lo, hi), or a point site
    when lo == hi."""

    fiber: int
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if type(lo) is not Fraction or type(hi) is not Fraction:
            lo, hi = as_fraction(lo), as_fraction(hi)
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        if self.fiber < 0:
            raise InvariantError(f"cell fiber index {self.fiber} is negative")
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        if not (0 <= ln and ln * hd <= hn * ld and hn <= hd):
            raise InvariantError(f"cell [{lo},{hi}) outside [0,1] or inverted")

    @property
    def is_site(self) -> bool:
        return self.lo == self.hi


@dataclass(frozen=True)
class MeasureFamily:
    """Measures Q_1..Q_n as per-cell masses, plus mixture weights. The
    constructor checks the grid, the masses and the weights on ints over
    common denominators."""

    cells: tuple[Cell, ...]
    masses: tuple[tuple[Fraction, ...], ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        cells = tuple(self.cells)
        masses = tuple(map(as_fractions, self.masses))
        weights = as_fractions(self.weights)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "weights", weights)
        if not cells:
            raise InvariantError("a family needs at least one cell")
        # the cells' endpoints as ints over their common denominator
        _, keys = int_keys([x for c in cells for x in (c.lo, c.hi)])
        spans = [(c.fiber, lo, hi) for c, lo, hi in zip(cells, keys[::2], keys[1::2])]
        if len(set(spans)) != len(spans):
            raise InvariantError("duplicate cells in the grid")
        by_fiber: dict[int, list[tuple[int, int]]] = {}
        for i, lo, hi in spans:
            group = by_fiber.setdefault(i, [])
            if lo != hi:
                group.append((lo, hi))
        for i, group in by_fiber.items():
            group.sort()
            for (_, h0), (l1, _) in zip(group, group[1:]):
                if l1 < h0:
                    raise InvariantError(f"overlapping cells on fiber {i}")
        if len(masses) != len(weights):
            raise InvariantError(f"{len(masses)} measures but {len(weights)} weights")
        if not masses:
            raise InvariantError("a family needs at least one measure")
        for k, row in enumerate(masses):
            if len(row) != len(cells):
                raise InvariantError(
                    f"measure {k} covers {len(row)} cells, grid has {len(cells)}"
                )
            den, ints = int_keys(row)
            if min(ints) < 0:
                raise InvariantError(f"measure {k} has a negative cell mass")
            if sum(ints) != den:
                raise InvariantError(
                    f"measure {k} masses sum to {Fraction(sum(ints), den)}, expected 1"
                )
        den, ints = int_keys(weights)
        for w, v in zip(weights, ints):
            if v <= 0:
                raise InvariantError(f"mixture weight {w} must be strictly positive")
        if sum(ints) != den:
            raise InvariantError(f"mixture weights sum to {Fraction(sum(ints), den)}, expected 1")

    @cached_property
    def mixture(self) -> tuple[Fraction, ...]:
        """Per-cell mass of the weighted mixture, summed as ints over the
        weights' and the masses' common denominators; totals exactly 1."""
        lw, weights = int_keys(self.weights)
        lm, flat = int_keys([v for row in self.masses for v in row])
        n = self.n_cells
        rows = [flat[k * n : (k + 1) * n] for k in range(self.n_measures)]
        den = lw * lm
        return tuple(
            Fraction(sum(w * row[c] for w, row in zip(weights, rows)), den) for c in range(n)
        )

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_measures(self) -> int:
        return len(self.masses)

    def with_weights(self, weights) -> MeasureFamily:
        return replace(self, weights=tuple(as_fraction(w) for w in weights))


@dataclass(frozen=True)
class CellPartition:
    """Block id per cell; ids are consecutive from 0 in first-seen order."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        seen: list[int] = []
        for b in self.blocks:
            if b not in seen:
                if b != len(seen):
                    raise InvariantError("block ids must appear in first-seen order from 0")
                seen.append(b)


def mixture(family: MeasureFamily) -> tuple[Fraction, ...]:
    """Per-cell mass of the weighted mixture; totals exactly 1. Computed
    once per family (MeasureFamily.mixture)."""
    return family.mixture


def density_vectors(family: MeasureFamily) -> tuple[tuple[Fraction, ...], ...]:
    """Per cell, the vector of ratios of each measure against the mixture;
    all zeros on null cells. The weighted sum of each nonzero vector is 1."""
    base = mixture(family)
    out = []
    for c in range(family.n_cells):
        if base[c] == 0:
            out.append(tuple(ZERO for _ in range(family.n_measures)))
        else:
            out.append(tuple(row[c] / base[c] for row in family.masses))
    return tuple(out)


def density_partition(vectors) -> CellPartition:
    """Group cells by exact equality of their density vectors."""
    ids: dict[tuple, int] = {}
    blocks = []
    for vec in vectors:
        key = tuple(vec)
        if key not in ids:
            ids[key] = len(ids)
        blocks.append(ids[key])
    return CellPartition(tuple(blocks))


def null_cells(family: MeasureFamily) -> frozenset[int]:
    """Cells of mixture mass 0; the same set for every strictly positive
    weighting, since all the measures vanish there."""
    return frozenset(c for c, b in enumerate(mixture(family)) if b == 0)


def inclusion_mod_null(p: CellPartition, q: CellPartition, nulls) -> bool:
    """True iff outside the null cells every block of q meets at most one
    block of p, i.e. p's blocks are unions of q's blocks up to nulls."""
    if len(p.blocks) != len(q.blocks):
        raise MismatchError(
            f"partitions cover {len(p.blocks)} and {len(q.blocks)} cells"
        )
    nulls = frozenset(nulls)
    seen: dict[int, int] = {}
    for c, (pb, qb) in enumerate(zip(p.blocks, q.blocks)):
        if c in nulls:
            continue
        if qb in seen:
            if seen[qb] != pb:
                return False
        else:
            seen[qb] = pb
    return True


def cond_exp_on_partition(base, partition: CellPartition, xi) -> tuple[Fraction, ...]:
    """Mass-weighted block average of xi, constant on each block; 0 on
    blocks of zero mass."""
    base = tuple(as_fraction(b) for b in base)
    xi = tuple(as_fraction(v) for v in xi)
    if not len(base) == len(xi) == len(partition.blocks):
        raise MismatchError("base, partition and integrand sizes differ")
    block_mass: dict[int, Fraction] = {}
    block_sum: dict[int, Fraction] = {}
    for c, b in enumerate(partition.blocks):
        block_mass[b] = block_mass.get(b, ZERO) + base[c]
        block_sum[b] = block_sum.get(b, ZERO) + base[c] * xi[c]
    return tuple(
        block_sum[b] / block_mass[b] if block_mass[b] else ZERO for b in partition.blocks
    )


def site_witness(family: MeasureFamily) -> int | None:
    """Index of a point-site cell with positive mixture mass, or None.

    Such a site always sits inside a positive-mass block of the density
    partition, so its absence is the atomless verdict."""
    base = mixture(family)
    for c, cell in enumerate(family.cells):
        if cell.is_site and base[c] > 0:
            return c
    return None


def conditionally_atomless(family: MeasureFamily) -> bool:
    """True iff the mixture has no point mass anywhere it lives."""
    return site_witness(family) is None


def to_fibered_space(family: MeasureFamily, partition: CellPartition) -> FiberedSpace:
    """Regroup the mixture by partition blocks: each positive-mass block
    becomes one fiber, in block order, with its positive-mass cells laid
    out on [0, 1] in position order, each over a span of length cell
    mass / block mass. Interval cells become unit-density stretches,
    point sites become atoms at the start of a zero-density stretch of
    their span. The variable uniform within every block is
    build_uniform of this space, which refuses it when a block holds a
    positive site."""
    if len(partition.blocks) != family.n_cells:
        raise MismatchError(
            f"partition covers {len(partition.blocks)} cells, family has {family.n_cells}"
        )

    def position(c):
        cell = family.cells[c]
        return cell.fiber, cell.lo, cell.hi

    base = mixture(family)
    grouped: dict[int, list[int]] = {}
    for c in sorted(range(family.n_cells), key=position):
        grouped.setdefault(partition.blocks[c], []).append(c)
    fibers = []
    for _, members in sorted(grouped.items()):
        mass = sum((base[c] for c in members), ZERO)
        atoms, breakpoints, densities = [], [ZERO], []
        for c in members:
            if base[c] > 0:
                lo, hi = breakpoints[-1], breakpoints[-1] + base[c] / mass
                site = family.cells[c].is_site
                if site:
                    atoms.append((lo, hi - lo))
                densities.append(ZERO if site else ONE)
                breakpoints.append(hi)
        if not densities:
            continue
        if breakpoints[-1] != 1:
            raise AssertionError("block layout does not fill [0, 1]")
        fibers.append(
            Fiber(mass, FiberMeasure(tuple(atoms), tuple(breakpoints), tuple(densities)))
        )
    if not fibers:
        raise InvariantError("no block carries positive mass")
    return FiberedSpace(tuple(fibers))
