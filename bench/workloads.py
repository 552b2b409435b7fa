"""The three workloads: seeded inputs, one timed operation, exact checks.

Each workload is a Workload whose make_inputs(seed, workdir) returns the
inputs of one round. run(inp, lap) is the timed operation; it calls
lap() where one of its steps ends and the next begins, and the last step
ends when it returns. finish(inp, raw)
turns its raw result into what the checks and the round-to-round
comparison read, outside the timed region; check(inp, result) returns
the list of problems found against the oracle (empty when correct).
Only public names of condatom are called.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

# Traced functions are reached through the package at call time, so the
# span wrappers installed on it see the benchmark's own calls too.
import condatom
import condatom.cli
from condatom import AtomObstruction, EventSet, Fiber, FiberedSpace, FiberSlice, Scenario
from condatom.generate import (
    GeneratorParams,
    generate_coefficients,
    generate_event,
    generate_family,
    generate_measure,
    generate_positive_event,
    generate_space,
    positive_weights,
    rng_for,
)

import oracle

HALF = Fraction(1, 2)
ONE = Fraction(1)
ZERO = Fraction(0)

# Criterion-2 generator parameters: up to 8 fibers and 15 density pieces.
ATOMLESS = GeneratorParams(max_fibers=8, max_pieces=15, atom_probability=0.0)
MIXED = GeneratorParams(max_fibers=8, max_pieces=15, atom_probability=0.5)

LEVELS_SPACES = 120
LEVELS_DEPTH = 3

EVENTS_SPACES = 128
SHRINK_STEPS = 3
HALVING_DEPTH = 2

# The parameters generate_scenario draws its spaces with; the measures of
# atomless slots are drawn without atoms.
SCENARIO_PARAMS = GeneratorParams(max_fibers=4, max_pieces=6, atom_probability=0.4, max_measures=3)
SCENARIO_ATOMLESS = replace(SCENARIO_PARAMS, atom_probability=0.0)
CLI_COMMANDS = ("check", "split", "shrink", "family", "uniform", "scan", "kernel", "densities")


@dataclass(frozen=True)
class Raised:
    """An operation that raised instead of returning."""

    name: str
    message: str

    def __str__(self):
        return f"{self.name}: {self.message}"


def _no_lap():
    pass


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable
    run: Callable
    check: Callable
    finish: Callable = lambda inp, raw: raw
    steps: Callable = contextlib.nullcontext  # context in which run's steps are timed


def stratified(draw, key, buckets, per_bucket):
    """Draw until every bucket holds per_bucket items, then interleave the
    buckets. A fixed number of inputs per bucket (the fiber count, and
    whether a space has atoms) keeps a round's cost from swinging with
    the seed, while the seed still picks every instance."""
    got = {b: [] for b in buckets}
    while any(len(items) < per_bucket for items in got.values()):
        item = draw()
        items = got.get(key(item))
        if items is not None and len(items) < per_bucket:
            items.append(item)
    return [got[b][k] for k in range(per_bucket) for b in buckets]


def _n_fibers(space):
    return len(space.fibers)


# ---------------------------------------------------------------- levels


def levels_inputs(seed, workdir):
    rng = rng_for(seed, "bench-levels")
    fibers = range(1, ATOMLESS.max_fibers + 1)
    return stratified(
        lambda: generate_space(rng, ATOMLESS), _n_fibers, fibers, LEVELS_SPACES // len(fibers)
    )


def levels_run(space, lap=_no_lap):
    family = condatom.build_dyadic_family(space, LEVELS_DEPTH)
    lap()
    rv = condatom.build_uniform(space)
    grid = family.grid()
    direct, via_rv = [], []
    for t in grid:
        lap()
        direct.append(condatom.set_at_level(space, t))
    for t in grid:
        lap()
        via_rv.append(condatom.level_set(rv, t))
    return family, tuple(direct), tuple(via_rv)


def levels_check(space, result) -> list[str]:
    family, direct, via_rv = result
    grid = family.grid()
    want_grid = tuple(Fraction(k, 2**LEVELS_DEPTH) for k in range(2**LEVELS_DEPTH + 1))
    if grid != want_grid:
        return [f"family grid {grid} is not the dyadic grid of depth {LEVELS_DEPTH}"]
    if len(direct) != len(grid) or len(via_rv) != len(grid):
        return ["one event per level expected from set_at_level and level_set"]
    problems = []
    for t, stored, d, v in zip(grid, (family.sets[t] for t in grid), direct, via_rv):
        for name, ev in (("family", stored), ("set_at_level", d), ("level_set", v)):
            masses = oracle.event_masses(space, ev)
            if any(m != t for m in masses):
                problems.append(f"{name} level {t}: masses {masses}")
        if 0 < t < 1:
            if not stored == d == v:
                problems.append(f"level {t}: family, set_at_level and level_set differ")
        elif stored != d or not all(
            oracle.slice_inside(x, y) for x, y in zip(v.slices, stored.slices)
        ):
            # {u < 1} may stop where the last positive density piece ends:
            # inside the whole space and of equal mass, so equal up to null sets
            problems.append(f"level {t}: the three constructions differ")
    for t0, t1 in zip(grid, grid[1:]):
        lo, hi = family.sets[t0], family.sets[t1]
        if not all(oracle.slice_inside(a, b) for a, b in zip(lo.slices, hi.slices)):
            problems.append(f"levels {t0} and {t1} do not nest")
    return problems


LEVELS = Workload(levels_inputs, levels_run, levels_check)


# ---------------------------------------------------------------- events


@dataclass(frozen=True)
class EventsInput:
    space: object
    c: EventSet
    a: EventSet
    b: EventSet
    h: tuple
    c_diffuse: EventSet  # C without its picks: shrink needs no atoms
    shrink_fibers: frozenset


def events_inputs(seed, workdir):
    """Half atomless spaces, half spaces where every fiber may carry atoms,
    an equal number of each per fiber count."""
    rng = rng_for(seed, "bench-events")

    def draw(params):
        space = generate_space(rng, params)
        c = generate_positive_event(rng, space).union(generate_event(rng, space))
        a = generate_event(rng, space).union(generate_event(rng, space))
        b = generate_event(rng, space)
        h = generate_coefficients(rng, space)
        c_diffuse = EventSet(tuple(FiberSlice(s.intervals) for s in c.slices))
        fibers = frozenset(
            i
            for i, (f, s) in enumerate(zip(space.fibers, c_diffuse.slices))
            if oracle.slice_mass(f.measure, s) > 0
        )
        return EventsInput(space, c, a, b, h, c_diffuse, fibers)

    fibers = range(1, ATOMLESS.max_fibers + 1)
    per_bucket = EVENTS_SPACES // (2 * len(fibers))
    key = lambda inp: _n_fibers(inp.space)
    atomless = stratified(lambda: draw(ATOMLESS), key, fibers, per_bucket)
    mixed = stratified(lambda: draw(MIXED), key, fibers, per_bucket)
    return [x for pair in zip(atomless, mixed) for x in pair]


def halving_family(space, depth, lap=_no_lap):
    """The paper's repeated halving from public calls, on the diffuse part
    of the space: each gap between consecutive sets is halved exactly by
    split, and the half is added to the lower set."""
    halves = tuple(HALF for _ in space.fibers)
    sets = {
        ZERO: space.empty_event(),
        ONE: EventSet(tuple(FiberSlice.trusted(((ZERO, ONE),)) for _ in space.fibers)),
    }
    for level in range(depth):
        step = Fraction(1, 2**level)
        for k in range(2**level):
            lap()
            lo = k * step
            gap = sets[lo + step].difference(sets[lo])
            sets[lo + step / 2] = sets[lo].union(condatom.split(space, gap, halves))
    return sets


def events_run(inp: EventsInput, lap=_no_lap):
    space = inp.space
    try:
        split_result = condatom.split(space, inp.c, inp.h)
    except AtomObstruction as e:
        split_result = ("obstruction", e.fiber)
    lap()
    chain = condatom.shrink_sequence(space, inp.c_diffuse, inp.shrink_fibers, SHRINK_STEPS)
    lap()
    witness = condatom.strict_split_witness(space, inp.c)
    lap()
    a, b = inp.a, inp.b
    u, i, d = a.union(b), a.intersect(b), a.difference(b)
    subsets = (a.is_subset(u), i.is_subset(b), d.is_subset(b), inp.c.is_subset(a))
    halving = halving_family(space, HALVING_DEPTH, lap)
    return split_result, chain, witness, (u, i, d), subsets, halving


def _expected_obstruction(space, event, hs):
    """The first fiber on which h times the slice mass exceeds the slice's
    diffuse mass, or None: exactly where an exact split is impossible."""
    for i, (f, part, h) in enumerate(zip(space.fibers, event.slices, hs)):
        if h in (0, 1):
            continue
        total = oracle.slice_mass(f.measure, part)
        if total and h * total > oracle.diffuse(f.measure, part):
            return i
    return None


def events_check(inp: EventsInput, result) -> list[str]:
    space = inp.space
    split_result, chain, witness, combined, subsets, halving = result
    problems = []
    c_mass = oracle.event_masses(space, inp.c)

    blocked = _expected_obstruction(space, inp.c, inp.h)
    if isinstance(split_result, tuple):
        if split_result != ("obstruction", blocked):
            problems.append(f"split raised AtomObstruction on fiber {split_result[1]}, oracle {blocked}")
    elif blocked is not None:
        problems.append(f"split succeeded though fiber {blocked} is blocked by a point mass")
    else:
        got = oracle.event_masses(space, split_result)
        want = tuple(h * m for h, m in zip(inp.h, c_mass))
        if got != want:
            problems.append(f"split masses {got}, expected {want}")
        for s, cs in zip(split_result.slices, inp.c.slices):
            if not oracle.inside_one(s.intervals, cs.intervals) or not set(s.picks) <= set(cs.picks):
                problems.append("split leaves C")
                break

    if len(chain) != SHRINK_STEPS + 1 or chain[0] != inp.c_diffuse:
        problems.append("shrink chain has the wrong length or start")
    prev = oracle.event_masses(space, inp.c_diffuse)
    for k, ev in enumerate(chain[1:], 1):
        got = oracle.event_masses(space, ev)
        want = tuple(m / 2 if i in inp.shrink_fibers else m for i, m in enumerate(prev))
        if got != want:
            problems.append(f"shrink step {k}: masses {got}, expected {want}")
        if not all(oracle.slice_inside(x, y) for x, y in zip(ev.slices, chain[k - 1].slices)):
            problems.append(f"shrink step {k} is not inside step {k - 1}")
        prev = got

    region = frozenset(
        i
        for i, (f, part) in enumerate(zip(space.fibers, inp.c.slices))
        if c_mass[i] > 0 and (oracle.diffuse(f.measure, part) > 0 or len(part.picks) >= 2)
    )
    if not region:
        if witness is not None:
            problems.append("strict witness returned where no fiber splits strictly")
    elif witness is None or witness[1] != region:
        problems.append(f"strict witness region {witness and witness[1]}, expected {region}")
    else:
        w_mass = oracle.event_masses(space, witness[0])
        for i, (ws, cs) in enumerate(zip(witness[0].slices, inp.c.slices)):
            if i in region:
                if not (0 < w_mass[i] < c_mass[i] and oracle.slice_inside(ws, cs)):
                    problems.append(f"strict witness not strictly inside C on fiber {i}")
            elif ws.intervals or ws.picks:
                problems.append(f"strict witness nonempty off its region on fiber {i}")

    u, i_, d = combined
    for name, ev, keep in (
        ("union", u, lambda x, y: x or y),
        ("intersect", i_, lambda x, y: x and y),
        ("difference", d, lambda x, y: x and not y),
    ):
        if not all(
            oracle.combined_ok(r, sa, sb, keep)
            for r, sa, sb in zip(ev.slices, inp.a.slices, inp.b.slices)
        ):
            problems.append(f"EventSet.{name} is not the pointwise {name}")
    pairs = ((inp.a, u), (i_, inp.b), (d, inp.b), (inp.c, inp.a))
    want_subsets = tuple(
        all(oracle.slice_inside(x, y) for x, y in zip(p.slices, q.slices)) for p, q in pairs
    )
    if subsets != want_subsets:
        problems.append(f"is_subset answers {subsets}, expected {want_subsets}")

    whole = tuple(oracle.fiber_mass(f.measure, ((ZERO, ONE),)) for f in space.fibers)
    levels = sorted(halving)
    if levels != [Fraction(k, 2**HALVING_DEPTH) for k in range(2**HALVING_DEPTH + 1)]:
        problems.append("halving family has the wrong levels")
    for t in levels:
        got = oracle.event_masses(space, halving[t])
        if got != tuple(t * m for m in whole):
            problems.append(f"halving level {t}: masses {got}")
    for t0, t1 in zip(levels, levels[1:]):
        if not all(oracle.slice_inside(x, y) for x, y in zip(halving[t0].slices, halving[t1].slices)):
            problems.append(f"halving levels {t0} and {t1} do not nest")
    return problems


EVENTS = Workload(events_inputs, events_run, events_check)


# ---------------------------------------------------------------- cli


@dataclass(frozen=True)
class CliCase:
    command: str
    path: str
    out: str
    scenario: object  # the parsed Scenario, or None when the file is invalid
    extra: tuple = ()  # flags after --scenario
    fault: str | None = None
    argv: tuple = field(init=False)

    def __post_init__(self):
        argv = (self.command, "--scenario", self.path, *self.extra, "--out", self.out)
        object.__setattr__(self, "argv", argv)


# The four CLI faults, each a fixed (name, command, flags, scenario) that
# does not depend on the seed.
_UNIFORM_FIBER = {"weight": "1/2", "breakpoints": ["0", "1"], "densities": ["1"]}
TWO_UNIFORM = {"space": {"fibers": [_UNIFORM_FIBER, _UNIFORM_FIBER]}}
FAULT_CASES = (
    # C has zero mass on fiber 1, which shrink designates by default.
    (
        "shrink-zero-slice",
        "shrink",
        (),
        {**TWO_UNIFORM, "sets": {"C": [{"intervals": [["0", "1/2"]]}, {"intervals": []}]}},
    ),
    ("family-string-depth", "family", (), {**TWO_UNIFORM, "params": {"depth": "3"}}),
    ("family-depth-0", "family", ("--depth", "0"), TWO_UNIFORM),
    ("uniform-negative-count", "uniform", ("--count", "-3"), TWO_UNIFORM),
)
# Fiber weights sum to 3/4: every command must refuse it with exit 2.
INVALID_SCENARIO = {
    "space": {"fibers": [{"weight": "3/4", "breakpoints": ["0", "1"], "densities": ["1"]}]}
}


def _space(rng, n, pieces, atoms):
    """A space as generate_space draws one, but with n fibers, the given
    total of density pieces split at random over them, and atoms on some
    fiber exactly when atoms is true. Each fiber's measure is drawn with
    generate_measure until it has its share of the pieces."""
    counts = [1] * n
    extra = [i for i in range(n) for _ in range(SCENARIO_PARAMS.max_pieces - 1)]
    for i in rng.sample(extra, pieces - n):
        counts[i] += 1
    params = SCENARIO_PARAMS if atoms else SCENARIO_ATOMLESS
    while True:
        measures = []
        for count in counts:
            m = generate_measure(rng, replace(params, max_pieces=count))
            while len(m.breakpoints) - 1 != count:
                m = generate_measure(rng, replace(params, max_pieces=count))
            measures.append(m)
        if any(m.atoms for m in measures) == atoms:
            return FiberedSpace(tuple(map(Fiber, positive_weights(rng, n), measures)))


def _small_scenario(rng, k, space):
    """A scenario as generate_scenario makes one, on a space drawn for
    slot k, with a shape fixed per slot: h on even slots, measures on
    every other pair of slots, family depth k mod 5. Drawn at random,
    these would swing a 16-scenario round's cost with the seed; the seed
    still draws h, the measures and every other value."""
    return Scenario(
        space=space,
        sets={"A": generate_event(rng, space), "C": generate_event(rng, space)},
        h=generate_coefficients(rng, space) if k % 2 == 0 else None,
        measures=generate_family(rng, SCENARIO_PARAMS) if k // 2 % 2 == 0 else None,
        params={"seed": rng.randint(0, 999), "depth": k % 5},
    )


def _large_scenario(rng, space):
    """A scenario as generate_instance makes one with a measure family."""
    return Scenario(
        space=space,
        sets={
            "A": generate_positive_event(rng, space, every_fiber=False),
            "C": generate_event(rng, space),
        },
        h=generate_coefficients(rng, space),
        measures=generate_family(rng, SCENARIO_PARAMS),
    )


def _positive_fibers(space, event):
    return [
        i
        for i, (f, s) in enumerate(zip(space.fibers, event.slices))
        if oracle.slice_mass(f.measure, s) > 0
    ]


def cli_inputs(seed, workdir):
    """Write the scenario corpus and return one case per (file, command).

    Generated scenarios designate for shrink exactly the fibers where C
    has positive mass, so the zero-slice fault shows only on its own
    fixed scenario and the failed share does not depend on the seed.
    """
    rng = rng_for(seed, "bench-cli")
    # The kernel check's cost grows with the square of the pooled
    # breakpoints, so every slot fixes the fiber count n and the total
    # number of density pieces: 16 small slots, two totals per fiber
    # count and per atoms or none, and 8 larger atomless slots for
    # kernel, scan and uniform with two more pieces.
    small = [
        (n, atoms, pieces)
        for n in range(1, SCENARIO_PARAMS.max_fibers + 1)
        for atoms in (False, True)
        for pieces in (2 * n, 2 * n + 2)
    ]
    large = [
        (n, pieces) for n in range(1, SCENARIO_PARAMS.max_fibers + 1) for pieces in (2 * n + 2, 2 * n + 4)
    ]
    scenarios = [
        _small_scenario(rng, k, _space(rng, n, pieces, atoms))
        for k, (n, atoms, pieces) in enumerate(small)
    ]
    scenarios += [_large_scenario(rng, _space(rng, n, pieces, False)) for n, pieces in large]
    cases = []

    def add(name, text, scenario, commands, fault=None, extra=()):
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for cmd in commands:
            out = os.path.join(workdir, f"{name}.{cmd}.out.json")
            cases.append(CliCase(cmd, path, out, scenario, extra, fault))

    for k, sc in enumerate(scenarios):
        sc = replace(sc, params={**sc.params, "fibers": _positive_fibers(sc.space, _set_c(sc))})
        add(f"s{k:03d}", condatom.serialize_scenario(sc), sc, CLI_COMMANDS)
    add("invalid", json.dumps(INVALID_SCENARIO), None, CLI_COMMANDS)
    for name, cmd, extra, body in FAULT_CASES:
        text = json.dumps(body)
        add(name, text, condatom.parse_scenario(text), (cmd,), fault=name, extra=extra)
    return cases


_SINK = io.StringIO()

# The functions cli.main calls through condatom.cli: its argument parser,
# the scenario parser, the report writer, and the calls the commands make
# into the other layers. With cli_steps open, each call is a step of a
# cli operation.
CLI_STEPS = (
    "build_parser",
    "parse_scenario",
    "report_to_text",
    "split",
    "shrink_sequence",
    "atom_witness",
    "is_conditionally_atomless",
    "build_dyadic_family",
    "build_uniform",
    "level_set",
    "level_scan",
    "kernel_atom_scan",
    "system_nodes",
    "hat_family",
    "pushforward_uniformity_check",
    "mixture",
    "density_vectors",
    "density_partition",
    "null_cells",
    "conditionally_atomless",
    "site_witness",
)
_LAP = [_no_lap]  # the lap of the cli operation now running


@contextlib.contextmanager
def cli_steps():
    """While open, each CLI_STEPS call made through condatom.cli begins
    and ends a step. The wrappers are not in place during a traced run,
    whose span wrappers find the bindings by identity."""
    saved = {name: getattr(condatom.cli, name) for name in CLI_STEPS}

    def stepped(fn):
        @functools.wraps(fn)
        def step(*args, **kwargs):
            _LAP[0]()
            try:
                return fn(*args, **kwargs)
            finally:
                _LAP[0]()

        return step

    for name, fn in saved.items():
        setattr(condatom.cli, name, stepped(fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(condatom.cli, name, fn)


def cli_run(case: CliCase, lap=_no_lap):
    _SINK.seek(0)
    _SINK.truncate()
    _LAP[0] = lap
    try:
        with contextlib.redirect_stderr(_SINK):
            return condatom.cli.main(list(case.argv))
    finally:
        _LAP[0] = _no_lap


def cli_finish(case: CliCase, code):
    """(exit code, report text); an exception stands in for the traceback
    and exit 1 that the installed command would give."""
    if isinstance(code, Raised):
        return f"raised {code.name}", None
    if code != 0:
        return code, None
    with open(case.out, encoding="utf-8") as fh:
        return code, fh.read()


def _flag(case, name):
    if name in case.extra:
        return int(case.extra[case.extra.index(name) + 1])
    return None


def _has_atoms(space):
    return any(f.measure.atoms for f in space.fibers)


def _set_c(sc):
    return sc.sets["C"] if "C" in sc.sets else sc.space.whole_event()


def expected_exit(case: CliCase) -> int:
    """The exit code the CLI contract gives for this case: 0 pass, 1 a
    check failed, 2 input error (including a point mass that blocks an
    exact operation and an unusable depth or grid size)."""
    sc, cmd = case.scenario, case.command
    if sc is None:
        return 2
    space = sc.space
    if cmd in ("check", "kernel"):
        return 0
    if cmd == "split":
        if sc.h is None:
            return 2
        return 0 if _expected_obstruction(space, _set_c(sc), sc.h) is None else 2
    if cmd == "shrink":
        c = _set_c(sc)
        fibers = sc.params.get("fibers", range(space.n_fibers))
        masses = oracle.event_masses(space, c)
        if any(masses[i] == 0 for i in fibers):
            return 2
        hs = tuple(HALF if i in fibers else ONE for i in range(space.n_fibers))
        n = sc.params.get("n", 5)
        return 0 if n == 0 or _expected_obstruction(space, c, hs) is None else 2
    if cmd == "family":
        depth = _expected_depth(case)
        return 2 if _has_atoms(space) or not isinstance(depth, int) or depth < 0 else 0
    if cmd == "uniform":
        return 2 if _has_atoms(space) or _expected_grid(case) < 1 else 0
    if cmd == "scan":
        if "A" not in sc.sets:
            return 2
        if not any(oracle.event_masses(space, sc.sets["A"])):
            return 0
        return 2 if _has_atoms(space) else 0
    if cmd == "densities":
        return 2 if sc.measures is None else 0
    raise ValueError(f"no prediction for command {cmd!r}")


def _expected_depth(case):
    flag = _flag(case, "--depth")
    return flag if flag is not None else case.scenario.params.get("depth", 3)


def _expected_grid(case):
    flag = _flag(case, "--count")
    return flag if flag is not None else case.scenario.params.get("count", 64)


def _event_from_json(obj) -> EventSet:
    return EventSet(
        tuple(
            FiberSlice(
                tuple((Fraction(a), Fraction(b)) for a, b in s["intervals"]),
                tuple(Fraction(p) for p in s["picks"]),
            )
            for s in obj
        )
    )


def cli_check(case: CliCase, result) -> list[str]:
    code, text = result
    want = expected_exit(case)
    if code != want:
        return [f"{' '.join(case.argv)}: exit {code}, expected {want}"]
    if code != 0:
        return []
    report = json.loads(text)
    where = f"{case.command} on {case.path}"
    if report.get("status") != "pass" or report.get("command") != case.command:
        return [f"{where}: status {report.get('status')!r} for exit 0"]
    sc, space = case.scenario, case.scenario.space
    problems = []
    if case.command in ("check", "kernel"):
        if (report["verdict"] == "atom") != _has_atoms(space):
            problems.append(f"{where}: verdict {report['verdict']}")
    elif case.command == "split":
        c = _set_c(sc)
        b = _event_from_json(report["result"])
        want_m = tuple(h * m for h, m in zip(sc.h, oracle.event_masses(space, c)))
        got = oracle.event_masses(space, b)
        if got != want_m or tuple(Fraction(v) for v in report["conditional"]) != want_m:
            problems.append(f"{where}: split masses {got}, expected {want_m}")
        if not all(oracle.inside_one(x.intervals, y.intervals) for x, y in zip(b.slices, c.slices)):
            problems.append(f"{where}: split result leaves C")
    elif case.command == "shrink":
        fibers = sc.params.get("fibers", range(space.n_fibers))
        m0 = oracle.event_masses(space, _set_c(sc))
        rows = [tuple(Fraction(v) for v in row) for row in report["conditional"]]
        want_rows = [
            tuple(m / 2**k if i in fibers else m for i, m in enumerate(m0))
            for k in range(len(rows))
        ]
        if rows != want_rows or len(rows) != sc.params.get("n", 5) + 1:
            problems.append(f"{where}: shrink masses {rows}")
    elif case.command == "family":
        depth = _expected_depth(case)
        grid = [Fraction(k, 2**depth) for k in range(2**depth + 1)]
        levels = {Fraction(t): ev for t, ev in report["levels"].items()}
        if report["depth"] != depth or sorted(levels) != grid:
            return [f"{where}: depth {report['depth']} with {len(levels)} levels, expected depth {depth}"]
        for t in grid:
            got = oracle.event_masses(space, _event_from_json(levels[t]))
            if any(m != t for m in got):
                problems.append(f"{where}: level {t} masses {got}")
    elif case.command == "uniform":
        if report["grid"] != _expected_grid(case):
            problems.append(f"{where}: grid {report['grid']}, expected {_expected_grid(case)}")
        for f, cdf in zip(space.fibers, report["cdfs"]):
            xs = [Fraction(x) for x in cdf["xs"]]
            ys = [Fraction(y) for y in cdf["ys"]]
            if xs != list(f.measure.breakpoints) or ys != [
                oracle.fiber_mass(f.measure, ((ZERO, x),)) for x in xs
            ]:
                problems.append(f"{where}: a conditional CDF is not the fiber's distribution")
                break
    return problems


CLI = Workload(cli_inputs, cli_run, cli_check, finish=cli_finish, steps=cli_steps)

WORKLOADS = {"levels": LEVELS, "events": EVENTS, "cli": CLI}
