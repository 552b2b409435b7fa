"""Finite families of measures on a shared cell grid.

A MeasureFamily holds several probability measures over the same cells
(per-fiber intervals plus point sites) together with strictly positive
mixture weights. The mixture is the reference measure; density_vectors
are the per-cell ratios against it, with the convention that they vanish
on null cells. Grouping cells by their density vector yields the finite
algebra the densities generate, and partitions are compared modulo the
mixture's null cells. The atomless verdict asks whether the mixture puts
point mass inside any positive block; when it does not, ordering each
block's cells and applying the cumulative-mass transform yields a
variable uniform on [0, 1] within every block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .intervals import ONE, ZERO
from .space import (
    Fiber,
    FiberedSpace,
    FiberMeasure,
    InvariantError,
    MismatchError,
    as_fraction,
)


@dataclass(frozen=True)
class Cell:
    """One grid cell on a fiber: the interval [lo, hi), or a point site
    when lo == hi."""

    fiber: int
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if self.fiber < 0:
            raise InvariantError(f"cell fiber index {self.fiber} is negative")
        if not 0 <= self.lo <= self.hi <= 1:
            raise InvariantError(f"cell [{self.lo},{self.hi}) outside [0,1] or inverted")

    @property
    def is_site(self) -> bool:
        return self.lo == self.hi


@dataclass(frozen=True)
class MeasureFamily:
    """Measures Q_1..Q_n as per-cell masses, plus mixture weights."""

    cells: tuple[Cell, ...]
    masses: tuple[tuple[Fraction, ...], ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(
            self, "masses", tuple(tuple(as_fraction(v) for v in row) for row in self.masses)
        )
        object.__setattr__(self, "weights", tuple(as_fraction(w) for w in self.weights))
        if not self.cells:
            raise InvariantError("a family needs at least one cell")
        if len(set(self.cells)) != len(self.cells):
            raise InvariantError("duplicate cells in the grid")
        by_fiber: dict[int, list[Cell]] = {}
        for c in self.cells:
            by_fiber.setdefault(c.fiber, []).append(c)
        for i, group in by_fiber.items():
            spans = sorted((c.lo, c.hi) for c in group if not c.is_site)
            for (_, h0), (l1, _) in zip(spans, spans[1:]):
                if l1 < h0:
                    raise InvariantError(f"overlapping cells on fiber {i}")
        if len(self.masses) != len(self.weights):
            raise InvariantError(
                f"{len(self.masses)} measures but {len(self.weights)} weights"
            )
        if not self.masses:
            raise InvariantError("a family needs at least one measure")
        for k, row in enumerate(self.masses):
            if len(row) != len(self.cells):
                raise InvariantError(
                    f"measure {k} covers {len(row)} cells, grid has {len(self.cells)}"
                )
            if any(v < 0 for v in row):
                raise InvariantError(f"measure {k} has a negative cell mass")
            total = sum(row, ZERO)
            if total != 1:
                raise InvariantError(f"measure {k} masses sum to {total}, expected 1")
        for w in self.weights:
            if w <= 0:
                raise InvariantError(f"mixture weight {w} must be strictly positive")
        wtotal = sum(self.weights, ZERO)
        if wtotal != 1:
            raise InvariantError(f"mixture weights sum to {wtotal}, expected 1")

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

    def members(self, block: int) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.blocks) if b == block)


def mixture(family: MeasureFamily) -> tuple[Fraction, ...]:
    """Per-cell mass of the weighted mixture; totals exactly 1."""
    return tuple(
        sum((w * row[c] for w, row in zip(family.weights, family.masses)), ZERO)
        for c in range(family.n_cells)
    )


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


def _block_layouts(family: MeasureFamily, partition: CellPartition):
    """Per positive-mass block, in the order of its first cell along the
    fibers: its mixture mass and the cumulative-mass layout of its
    positive-mass cells in position order, as (cell index, u_lo, u_hi)
    with u_hi - u_lo = cell mass / block mass."""

    def position(c):
        cell = family.cells[c]
        return cell.fiber, cell.lo, cell.hi

    base = mixture(family)
    grouped: dict[int, list[int]] = {}
    for c in sorted(range(family.n_cells), key=position):
        grouped.setdefault(partition.blocks[c], []).append(c)
    out = {}
    for block, members in grouped.items():
        mass = sum((base[c] for c in members), ZERO)
        spans = []
        cum = ZERO
        for c in members:
            if base[c] > 0:
                nxt = cum + base[c] / mass
                spans.append((c, cum, nxt))
                cum = nxt
        if spans:
            out[block] = mass, tuple(spans)
    return out


def block_uniform_transform(
    family: MeasureFamily, partition: CellPartition
) -> dict[int, tuple[tuple[int, Fraction, Fraction], ...]]:
    """Per positive-mass block, the cumulative-mass layout of its cells:
    (cell index, u_lo, u_hi) with span length = cell mass / block mass.

    The variable that is uniform within every block reads off a cell's
    span linearly; point sites would occupy a span of positive length
    with all mass at one value, so the transform refuses them."""
    out = {}
    for block, (_, spans) in _block_layouts(family, partition).items():
        for c, _, _ in spans:
            if family.cells[c].is_site:
                raise InvariantError(
                    f"cell {c} is a point site with positive mass; no uniform transform"
                )
        out[block] = spans
    return out


def block_level_mass(family: MeasureFamily, spans, t) -> Fraction:
    """Normalized mass of {U < t} within one block: each cell contributes
    its share of the block mass times the covered fraction of its span.
    Equals t exactly for every t in [0, 1] when U is uniform there."""
    t = as_fraction(t)
    base = mixture(family)
    block_mass = sum((base[c] for c, _, _ in spans), ZERO)
    total = ZERO
    for c, u_lo, u_hi in spans:
        if t <= u_lo:
            continue
        covered = (min(t, u_hi) - u_lo) / (u_hi - u_lo)
        total += (base[c] / block_mass) * covered
    return total


def to_fibered_space(family: MeasureFamily, partition: CellPartition) -> FiberedSpace:
    """Regroup the mixture by partition blocks: each positive-mass block
    becomes one fiber, its cells laid out on [0, 1] by cumulative mass.
    Interval cells become unit-density stretches, point sites become
    atoms at the start of a zero-density stretch of their span."""
    fibers = []
    for _, (mass, spans) in sorted(_block_layouts(family, partition).items()):
        sites = [family.cells[c].is_site for c, _, _ in spans]
        atoms = [(lo, hi - lo) for (_, lo, hi), site in zip(spans, sites) if site]
        densities = [ZERO if site else ONE for site in sites]
        breakpoints = [ZERO] + [hi for _, _, hi in spans]
        if breakpoints[-1] != 1:
            raise AssertionError("block layout does not fill [0, 1]")
        fibers.append(
            Fiber(mass, FiberMeasure(tuple(atoms), tuple(breakpoints), tuple(densities)))
        )
    if not fibers:
        raise InvariantError("no block carries positive mass")
    return FiberedSpace(tuple(fibers))
