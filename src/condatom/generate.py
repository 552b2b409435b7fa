"""Deterministic random instances for the property suites and the CLI.

All randomness flows through one random.Random seeded by the caller, and
every emitted object satisfies its type invariants exactly: raw integer
masses are normalized by exact division, never by rounding.

Points are drawn on a grid of step 1/den and kept as their ints k over
den until the constructors are called: sorting, summing and normalizing
are int operations, and each emitted value is one Fraction built from
ints. The constructors still check every invariant of what they get.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .densities import Cell, MeasureFamily
from .intervals import ONE, ZERO
from .space import (
    EventSet,
    Fiber,
    FiberedSpace,
    FiberMeasure,
    FiberSlice,
    InvariantError,
)

MAX_FIBERS = 8
MAX_PIECES = 15  # 16 breakpoints
MAX_MEASURES = 4

_DENOMINATORS = (8, 12, 16, 24, 32, 48, 64)


@dataclass(frozen=True)
class GeneratorParams:
    max_fibers: int = 4
    max_pieces: int = 6
    atom_probability: float = 0.0
    max_measures: int = 2

    def __post_init__(self):
        if not 1 <= self.max_fibers <= MAX_FIBERS:
            raise InvariantError(f"fiber bound {self.max_fibers} outside 1..{MAX_FIBERS}")
        if not 1 <= self.max_pieces <= MAX_PIECES:
            raise InvariantError(f"piece bound {self.max_pieces} outside 1..{MAX_PIECES}")
        if not 0 <= self.atom_probability <= 1:
            raise InvariantError("atom probability outside [0,1]")
        if not 1 <= self.max_measures <= MAX_MEASURES:
            raise InvariantError(
                f"measure bound {self.max_measures} outside 1..{MAX_MEASURES}"
            )


def rng_for(seed, label: str) -> random.Random:
    """A stream keyed by seed and label; string seeding hashes via sha512,
    so it is stable across processes."""
    return random.Random(f"{seed}/{label}")


def _grid_ints(rng: random.Random, den: int, count: int) -> list[int]:
    """count distinct ints of 1..den-1 (all of them if there are fewer),
    increasing: the numerators of interior points of the 1/den grid."""
    ks = rng.sample(range(1, den), min(count, den - 1))
    ks.sort()
    return ks


def _grid_points(rng: random.Random, den: int, count: int) -> list[Fraction]:
    return [Fraction(k, den) for k in _grid_ints(rng, den, count)]


def generate_measure(rng: random.Random, params: GeneratorParams) -> FiberMeasure:
    den = rng.choice(_DENOMINATORS)
    pieces = rng.randint(1, params.max_pieces)
    cuts = _grid_ints(rng, den, pieces - 1)
    widths = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
    raw_density = [rng.randint(0, 6) for _ in widths]

    atoms: list[tuple[int, int]] = []  # (location * den, raw weight)
    if rng.random() < params.atom_probability:
        n_atoms = rng.randint(1, 2)
        locs = rng.sample(range(0, den + 1), n_atoms)
        atoms = [(k, rng.randint(1, 6)) for k in sorted(locs)]

    # masses times den: the raw density integral, and with the atoms the total
    diffuse = sum(map(operator.mul, raw_density, widths))
    if diffuse == 0 and not atoms:
        j = rng.randrange(len(raw_density))
        raw_density[j] = 1
        diffuse = widths[j]
    total = diffuse + den * sum(w for _, w in atoms)
    return FiberMeasure(
        atoms=tuple((Fraction(k, den), Fraction(w * den, total)) for k, w in atoms),
        breakpoints=(ZERO, *[Fraction(k, den) for k in cuts], ONE),
        densities=tuple([Fraction(d * den, total) for d in raw_density]),
    )


def generate_space(rng: random.Random, params: GeneratorParams) -> FiberedSpace:
    n = rng.randint(1, params.max_fibers)
    raw = [rng.randint(1, 9) for _ in range(n)]
    total = sum(raw)
    return FiberedSpace(
        tuple(
            Fiber(Fraction(w, total), generate_measure(rng, params)) for w in raw
        )
    )


def _random_slice(rng: random.Random, measure: FiberMeasure) -> FiberSlice:
    den = rng.choice(_DENOMINATORS)
    n_pairs = rng.randint(0, 3)
    ks = _grid_ints(rng, den, 2 * n_pairs)
    # consecutive points pair up; zip drops an odd last one
    intervals = tuple(
        [(Fraction(a, den), Fraction(b, den)) for a, b in zip(ks[0::2], ks[1::2])]
    )
    picks = tuple(loc for loc in measure.atom_locations if rng.random() < 0.5)
    return FiberSlice(intervals, picks)


def generate_event(rng: random.Random, space: FiberedSpace) -> EventSet:
    return EventSet(tuple(_random_slice(rng, f.measure) for f in space.fibers))


def generate_positive_event(
    rng: random.Random, space: FiberedSpace, every_fiber: bool = True
) -> EventSet:
    """A random event with positive mass on every fiber (or, with
    every_fiber False, on at least one); falls back to the full slice
    after a bounded number of rejections, so it always terminates."""
    slices = []
    for f in space.fibers:
        part = None
        for _ in range(50):
            cand = _random_slice(rng, f.measure)
            if f.measure.mass(cand) > 0:
                part = cand
                break
        if part is None:
            part = FiberSlice(((ZERO, ONE),), f.measure.atom_locations)
        slices.append(part)
    if every_fiber:
        return EventSet(tuple(slices))
    keep = rng.randrange(len(slices))
    return EventSet(
        tuple(
            part if i == keep or rng.random() < 0.5 else _random_slice(rng, f.measure)
            for i, (part, f) in enumerate(zip(slices, space.fibers))
        )
    )


def generate_coefficients(rng: random.Random, space: FiberedSpace) -> tuple[Fraction, ...]:
    """Per-fiber values in [0, 1], with the endpoints deliberately common."""
    out = []
    for _ in range(space.n_fibers):
        roll = rng.random()
        if roll < 0.15:
            out.append(ZERO)
        elif roll < 0.3:
            out.append(ONE)
        else:
            den = rng.choice(_DENOMINATORS)
            out.append(Fraction(rng.randint(1, den - 1), den))
    return tuple(out)


def positive_weights(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    raw = [rng.randint(1, 9) for _ in range(n)]
    total = sum(raw)
    return tuple(Fraction(w, total) for w in raw)


def generate_instance(seed, params: GeneratorParams | None = None, with_family: bool = False):
    """Deterministic function of the seed: a space, named event sets A and
    C, coefficients h, and optionally a measure family, as a Scenario."""
    from .scenario import Scenario

    params = params or GeneratorParams()
    rng = rng_for(seed, "instance")
    space = generate_space(rng, params)
    sets = {
        "A": generate_positive_event(rng, space, every_fiber=False),
        "C": generate_event(rng, space),
    }
    h = generate_coefficients(rng, space)
    measures = generate_family(rng, params) if with_family else None
    return Scenario(space=space, sets=sets, h=h, measures=measures, params={"seed": str(seed)})


def generate_scenario(rng: random.Random) -> "Scenario":
    """A random but fully valid scenario, for round-trip checks."""
    from .scenario import Scenario

    params = GeneratorParams(max_fibers=4, max_pieces=6, atom_probability=0.4, max_measures=3)
    space = generate_space(rng, params)
    sets = {"A": generate_event(rng, space), "C": generate_event(rng, space)}
    h = generate_coefficients(rng, space) if rng.random() < 0.7 else None
    measures = generate_family(rng, params) if rng.random() < 0.5 else None
    return Scenario(
        space=space,
        sets=sets,
        h=h,
        measures=measures,
        params={"seed": rng.randint(0, 999), "depth": rng.randint(0, 4)},
    )


def generate_family(rng: random.Random, params: GeneratorParams) -> MeasureFamily:
    n_measures = rng.randint(1, params.max_measures)
    n_fibers = rng.randint(1, 3)
    cells: list[Cell] = []
    for i in range(n_fibers):
        den = rng.choice((8, 16, 24))
        cuts = _grid_points(rng, den, rng.randint(1, 5))
        edges = [ZERO] + cuts + [ONE]
        for a, b in zip(edges, edges[1:]):
            cells.append(Cell(i, a, b))
        if rng.random() < params.atom_probability:
            site = Fraction(rng.randint(0, den), den)
            cells.append(Cell(i, site, site))
    masses = []
    for _ in range(n_measures):
        raw = [rng.randint(1, 5) if rng.random() < 0.7 else 0 for _ in cells]
        if sum(raw) == 0:
            raw[rng.randrange(len(raw))] = 1
        total = sum(raw)
        masses.append(tuple(Fraction(v, total) for v in raw))
    return MeasureFamily(
        cells=tuple(cells),
        masses=tuple(masses),
        weights=positive_weights(rng, n_measures),
    )
