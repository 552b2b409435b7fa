"""Seeded property suites behind the acceptance gate and the CLI selftest.

Each criterion runner is deterministic in (seed, counts), checks exact
rational equalities only, and reports a pass flag plus a tally; the
default counts reproduce the full acceptance configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .densities import (
    CellPartition,
    cond_exp_on_partition,
    density_partition,
    density_vectors,
    inclusion_mod_null,
    mixture,
    null_cells,
)
from .generate import (
    GeneratorParams,
    generate_coefficients,
    generate_event,
    generate_family,
    generate_positive_event,
    generate_scenario,
    generate_space,
    positive_weights,
    rng_for,
)
from .intervals import ONE, ZERO
from .kernel import hat_family, kernel_atom_scan, pushforward_uniformity_check, system_nodes
from .scenario import parse_scenario, serialize_scenario
from .splitting import (
    HALF,
    shrink_sequence,
    split,
    strict_split_witness,
    verdict_holds,
)
from .uniform import (
    DyadicFamily,
    build_dyadic_family,
    build_uniform,
    intersection_mass_curves,
    level_scan,
    level_set,
    set_at_level,
)

FULL_ATOMLESS = GeneratorParams(max_fibers=8, max_pieces=15, atom_probability=0.0)
FULL_MIXED = GeneratorParams(max_fibers=8, max_pieces=15, atom_probability=0.5)
FAMILY_PARAMS = GeneratorParams(max_fibers=3, max_pieces=6, atom_probability=0.3, max_measures=4)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    key: str
    passed: bool
    detail: str

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.index}. {self.key}: {self.detail}"


def _family_spaces(seed, n: int):
    rng = rng_for(seed, "family-instances")
    return [generate_space(rng, FULL_ATOMLESS) for _ in range(n)]


def split_exactness(seed, instances: int = 200) -> CriterionResult:
    """split(C, h) has conditional measure exactly h times that of C."""
    rng = rng_for(seed, "split-exactness")
    ok = 0
    for _ in range(instances):
        space = generate_space(rng, FULL_ATOMLESS)
        c = generate_event(rng, space)
        h = generate_coefficients(rng, space)
        b = split(space, c, h)
        expected = tuple(hv * cv for hv, cv in zip(h, space.cond_expectation(c)))
        if space.cond_expectation(b) == expected and b.is_subset(c):
            ok += 1
    return CriterionResult(1, "split-exactness", ok == instances, f"{ok}/{instances} exact")


def family_exactness(seed, instances: int = 20, depth: int = 10) -> CriterionResult:
    """Every stored level of the dyadic family has conditional measure
    exactly t on every fiber, and consecutive levels nest."""
    bad = 0
    for space in _family_spaces(seed, instances):
        family = build_dyadic_family(space, depth)
        grid = family.grid()
        for t in grid:
            if any(c != t for c in space.cond_expectation(family.sets[t])):
                bad += 1
        for t0, t1 in zip(grid, grid[1:]):
            if not family.sets[t0].is_subset(family.sets[t1]):
                bad += 1
    return CriterionResult(
        2,
        "dyadic-family-exactness",
        bad == 0,
        f"{instances} instances at depth {depth}, {bad} violations",
    )


def pushforward_uniformity(seed, instances: int = 20, grid: int = 1024) -> CriterionResult:
    """Level sets of the transported variable have mass exactly t, and
    every tent-function residual vanishes."""
    bad = 0
    for space in _family_spaces(seed, instances):
        rv = build_uniform(space)
        for k in range(1, grid + 1):
            t = Fraction(k, grid)
            if any(c != t for c in space.cond_expectation(level_set(rv, t))):
                bad += 1
        tents = hat_family(system_nodes(rv))
        residuals = pushforward_uniformity_check(space, rv, tents)
        if any(r != 0 for row in residuals for r in row):
            bad += 1
    return CriterionResult(
        3,
        "uniform-pushforward",
        bad == 0,
        f"{instances} instances, {grid}-point grid plus tent residuals, {bad} violations",
    )


def kernel_agreement(seed, instances: int = 200, sets_per: int = 20) -> CriterionResult:
    """The per-fiber atom scan's verdict holds against splitting (an atom
    verdict's witness blocks an exact split, an atomless verdict leaves
    no point mass), and on atomless instances every positive event
    splits strictly on exactly its positive fibers."""
    rng = rng_for(seed, "kernel-agreement")
    bad = 0
    atomless_seen = 0
    for _ in range(instances):
        space = generate_space(rng, FULL_MIXED)
        report = kernel_atom_scan(space)
        if not verdict_holds(space, report):
            bad += 1
        if not report.atomless:
            continue
        atomless_seen += 1
        for _ in range(sets_per):
            a = generate_positive_event(rng, space, every_fiber=False)
            conda = space.cond_expectation(a)
            positive = frozenset(i for i, c in enumerate(conda) if c > 0)
            res = strict_split_witness(space, a)
            if res is None or res[1] != positive:
                bad += 1
                continue
            b, region = res
            condb = space.cond_expectation(b)
            if not b.is_subset(a):
                bad += 1
            if any(not 0 < condb[i] < conda[i] for i in region):
                bad += 1
    return CriterionResult(
        4,
        "kernel-verdict-agreement",
        bad == 0,
        f"{instances} instances ({atomless_seen} atomless x {sets_per} events), {bad} violations",
    )


def shrink_bounds(seed, instances: int = 20, n: int = 20) -> CriterionResult:
    """Shrink chains nest strictly with mass in (0, 2**-k] on every
    designated fiber at every step."""
    rng = rng_for(seed, "shrink-bounds")
    bad = 0
    for _ in range(instances):
        space = generate_space(rng, FULL_ATOMLESS)
        c = generate_positive_event(rng, space, every_fiber=True)
        fibers = frozenset(range(space.n_fibers))
        chain = shrink_sequence(space, c, fibers, n)
        conds = [space.cond_expectation(e) for e in chain]
        for k, cond in enumerate(conds):
            bound = Fraction(1, 2**k)
            if any(not 0 < cond[i] <= bound for i in fibers):
                bad += 1
        for k in range(n):
            if not chain[k + 1].is_subset(chain[k]):
                bad += 1
            if any(conds[k + 1][i] >= conds[k][i] for i in fibers):
                bad += 1
    return CriterionResult(
        5, "shrink-chain-bounds", bad == 0, f"{instances} chains of length {n}, {bad} violations"
    )


def scan_strictness(seed, pairs: int = 100, lipschitz_depth: int = 8) -> CriterionResult:
    """level_scan returns a level with the strict sandwich on exactly its
    reported fibers (verified through independent set operations), and
    the intersection-mass curves are 1-Lipschitz across all dyadic pairs."""
    rng = rng_for(seed, "scan-strictness")
    bad = 0
    denom = 2**lipschitz_depth
    for _ in range(pairs):
        space = generate_space(rng, FULL_ATOMLESS)
        a = generate_positive_event(rng, space, every_fiber=False)
        conda = space.cond_expectation(a)
        res = level_scan(space, a)
        if res is None:
            bad += 1
            continue
        t, fibers = res
        if not (0 < t < 1 and fibers):
            bad += 1
        condi = space.cond_expectation(a.intersect(set_at_level(space, t)))
        qualifying = frozenset(
            i for i in range(space.n_fibers) if 0 < condi[i] < conda[i]
        )
        if fibers != qualifying:
            bad += 1
        curves = intersection_mass_curves(space, a)
        for curve in curves:
            # g(t) - g(s) <= t - s for every dyadic pair s < t is the same
            # statement as g(k/N) - k/N never rising above its running
            # minimum, checked here pair-exhaustively in one sweep
            running_min = None
            for k in range(denom + 1):
                t_k = Fraction(k, denom)
                h_k = curve.at(t_k) - t_k
                if running_min is not None and h_k > running_min:
                    bad += 1
                if running_min is None or h_k < running_min:
                    running_min = h_k
        for _ in range(3):
            t_q = Fraction(rng.randint(0, 64), 64)
            direct = space.cond_expectation(a.intersect(set_at_level(space, t_q)))
            if tuple(curve.at(t_q) for curve in curves) != direct:
                bad += 1
    return CriterionResult(
        6,
        "scan-strict-sandwich",
        bad == 0,
        f"{pairs} pairs, Lipschitz to depth {lipschitz_depth}, {bad} violations",
    )


def density_calculus(seed, families: int = 100, refinements: int = 100) -> CriterionResult:
    """Density partitions from any two strictly positive weightings agree
    modulo null cells, and conditional expectations are blind to
    refinements that only rearrange null cells."""
    rng = rng_for(seed, "density-calculus")
    bad = 0
    for _ in range(families):
        fam = generate_family(rng, FAMILY_PARAMS)
        other = fam.with_weights(positive_weights(rng, fam.n_measures))
        nulls = null_cells(fam)
        if nulls != null_cells(other):
            bad += 1
        p = density_partition(density_vectors(fam))
        q = density_partition(density_vectors(other))
        if not inclusion_mod_null(p, q, nulls):
            bad += 1
        if not inclusion_mod_null(q, p, nulls):
            bad += 1
    for _ in range(refinements):
        fam = generate_family(rng, FAMILY_PARAMS)
        base = mixture(fam)
        nulls = null_cells(fam)
        p = density_partition(density_vectors(fam))
        labels: dict[tuple[int, int], int] = {}
        fine = []
        for c, b in enumerate(p.blocks):
            key = (b, rng.randint(0, 2)) if c in nulls else (b, -1)
            if key not in labels:
                labels[key] = len(labels)
            fine.append(labels[key])
        g = CellPartition(tuple(fine))
        if not inclusion_mod_null(p, g, frozenset()):
            bad += 1
        if not inclusion_mod_null(g, p, nulls):
            bad += 1
        xi = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(fam.n_cells))
        coarse = cond_exp_on_partition(base, p, xi)
        refined = cond_exp_on_partition(base, g, xi)
        if any(
            base[c] > 0 and coarse[c] != refined[c] for c in range(fam.n_cells)
        ):
            bad += 1
    return CriterionResult(
        7,
        "density-partition-calculus",
        bad == 0,
        f"{families} weightings plus {refinements} refinements, {bad} violations",
    )


def _halving_family(space, depth: int) -> DyadicFamily:
    """The dyadic family by the paper's constructive proof, on an atomless
    space: grow it level by level, halving each gap between consecutive
    sets exactly with split and inserting the union of the lower set with
    the half. It never reads a level's quantile directly, as
    build_dyadic_family does."""
    halves = tuple(HALF for _ in range(space.n_fibers))
    sets = {ZERO: space.empty_event(), ONE: space.whole_event()}
    for level in range(depth):
        step = Fraction(1, 2**level)
        for k in range(2**level):
            lo_t = k * step
            gap = sets[lo_t + step].difference(sets[lo_t])
            half_of_gap = split(space, gap, halves)
            sets[lo_t + step / 2] = sets[lo_t].union(half_of_gap)
    return DyadicFamily(depth, sets)


def construction_agreement(seed, instances: int = 20, depth: int = 10) -> CriterionResult:
    """Two independent constructions agree at every dyadic level: the
    repeated-halving family (_halving_family, built with split) and the
    direct quantile prefixes (set_at_level) have equal per-fiber masses and a
    symmetric difference of mass 0."""
    rng = rng_for(seed, "construction-agreement")
    bad = 0
    for _ in range(instances):
        space = generate_space(rng, FULL_ATOMLESS)
        family = _halving_family(space, depth)
        for t in family.grid():
            stored = family.sets[t]
            direct = set_at_level(space, t)
            if space.cond_expectation(stored) != space.cond_expectation(direct):
                bad += 1
            if space.measure(stored.symmetric_difference(direct)) != 0:
                bad += 1
    return CriterionResult(
        8,
        "construction-agreement",
        bad == 0,
        f"{instances} instances, all levels to depth {depth}, {bad} violations",
    )


def determinism(seed, scenarios: int = 50) -> CriterionResult:
    """Reduced selftests emit byte-identical reports on repeated runs, and
    serialize/parse is the identity on generated scenarios."""
    bad = 0
    first = report_text(run_all(seed, count=4, include_cli=False), seed=seed, count=4)
    second = report_text(run_all(seed, count=4, include_cli=False), seed=seed, count=4)
    if first != second:
        bad += 1
    rng = rng_for(seed, "round-trip")
    for _ in range(scenarios):
        sc = generate_scenario(rng)
        text = serialize_scenario(sc)
        back = parse_scenario(text)
        if back != sc:
            bad += 1
        if serialize_scenario(back) != text:
            bad += 1
    return CriterionResult(
        9,
        "cli-determinism",
        bad == 0,
        f"double selftest run plus {scenarios} round-trips, {bad} violations",
    )


def run_all(seed=42, count: int = 200, include_cli: bool = True) -> list[CriterionResult]:
    """All criteria; count scales instance numbers (200 is the full gate)."""
    tenth = max(1, count // 10)
    half = max(1, count // 2)
    results = [
        split_exactness(seed, count),
        family_exactness(seed, tenth),
        pushforward_uniformity(seed, tenth),
        kernel_agreement(seed, count, tenth),
        shrink_bounds(seed, tenth),
        scan_strictness(seed, half),
        density_calculus(seed, half, half),
        construction_agreement(seed, tenth),
    ]
    if include_cli:
        results.append(determinism(seed, max(1, count // 4)))
    return results


def report_data(results, seed, count) -> dict:
    return {
        "command": "selftest",
        "seed": seed,
        "count": count,
        "criteria": [
            {"index": r.index, "key": r.key, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "checks": {r.key: r.passed for r in results},
        "status": "pass" if all(r.passed for r in results) else "fail",
    }


def report_text(results, seed, count) -> str:
    return json.dumps(report_data(results, seed, count), sort_keys=True, indent=2) + "\n"
