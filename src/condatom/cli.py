"""Batch command-line surface: load a scenario, run one command, emit a
deterministic JSON report.

Exit codes: 0 when every check in the report passed, 1 when a check
failed, 2 on input errors (unparseable scenario, violated invariant,
missing fields, a mistyped or out-of-range integer input, or an
operation blocked by a point mass).
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .densities import (
    conditionally_atomless,
    density_partition,
    density_vectors,
    mixture,
    null_cells,
    site_witness,
)
from .kernel import hat_family, kernel_atom_scan, pushforward_uniformity_check, system_nodes
from .scenario import (
    Scenario,
    ScenarioError,
    event_to_json,
    format_scalar,
    parse_scenario,
    report_to_text,
)
from .space import InvariantError, MismatchError
from .splitting import AtomObstruction, shrink_sequence, split, verdict_holds
# not called here; bound because the benchmark's CLI_STEPS wraps them
from .splitting import atom_witness, is_conditionally_atomless
from .uniform import build_dyadic_family, build_uniform, level_scan, level_set, set_at_level

# Resource caps on the integer inputs: a family holds 2**depth + 1
# events, the uniform check evaluates one level set per grid point, each
# shrink step is an exact halving whose denominators keep growing, and
# selftest runs its criteria once per instance.
MAX_DEPTH = 12
MAX_GRID = 4096
MAX_CHAIN = 64
MAX_INSTANCES = 1000


class InputError(ValueError):
    """The scenario or a flag does not give the command a usable input."""


def _int_input(
    opts: dict, flag: str, params: dict, key: str, default: int, minimum: int, cap=None
) -> int:
    """The --flag value when given, else params[key], else the default.
    A supplied value must be an int (not a bool) in [minimum, cap]."""
    if opts.get(flag) is not None:
        where, value = f"--{flag}", opts[flag]
    elif key in params:
        where, value = f"params.{key}", params[key]
    else:
        return default
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise InputError(f"{where} must be an integer >= {minimum}, got {value!r}")
    if cap is not None and value > cap:
        raise InputError(f"{where} is {value}, above the cap of {cap}")
    return value


def _fiber_input(params: dict, n_fibers: int) -> frozenset[int]:
    """params.fibers when given, else every fiber. A supplied value must be
    a list of fiber indices: ints (not bools) in [0, n_fibers)."""
    value = params.get("fibers", list(range(n_fibers)))
    if not isinstance(value, list) or any(
        type(i) is not int or not 0 <= i < n_fibers for i in value
    ):
        raise InputError(
            f"params.fibers must be a list of fiber indices in [0, {n_fibers}), got {value!r}"
        )
    return frozenset(value)


def _named_set(scenario: Scenario, params: dict, default: str, whole_ok: bool = True):
    explicit = "set" in params
    name = params.get("set", default)
    if not isinstance(name, str):
        raise InputError(f"params.set must be a set name (a string), got {name!r}")
    if name in scenario.sets:
        return name, scenario.sets[name]
    if whole_ok and not explicit:
        return "whole-space", scenario.space.whole_event()
    raise InputError(f"scenario does not define set {name!r}")


def _witness_json(w):
    if w is None:
        return None
    return {
        "fiber": w.fiber,
        "location": format_scalar(w.location),
        "weight": format_scalar(w.weight),
    }


def _cmd_check(scenario: Scenario, opts: dict) -> dict:
    space = scenario.space
    scan = kernel_atom_scan(space)
    return {
        "verdict": "atomless" if scan.atomless else "atom",
        "witness": _witness_json(scan.witness),
        "checks": {"kernel-agreement": verdict_holds(space, scan)},
    }


def _cmd_split(scenario: Scenario, opts: dict) -> dict:
    if scenario.h is None:
        raise InputError("split needs an 'h' section")
    name, c = _named_set(scenario, scenario.params, "C")
    b = split(scenario.space, c, scenario.h)
    cond_c = scenario.space.cond_expectation(c)
    cond_b = scenario.space.cond_expectation(b)
    exact = cond_b == tuple(h * v for h, v in zip(scenario.h, cond_c))
    return {
        "set": name,
        "result": event_to_json(b),
        "conditional": [format_scalar(v) for v in cond_b],
        "checks": {"subset": b.is_subset(c), "exact-proportion": exact},
    }


def _cmd_shrink(scenario: Scenario, opts: dict) -> dict:
    name, c = _named_set(scenario, scenario.params, "C")
    n = _int_input(opts, "count", scenario.params, "n", 5, minimum=0, cap=MAX_CHAIN)
    fibers = _fiber_input(scenario.params, scenario.space.n_fibers)
    chain = shrink_sequence(scenario.space, c, fibers, n)
    conds = [scenario.space.cond_expectation(e) for e in chain]
    nested = all(b.is_subset(a) for a, b in zip(chain, chain[1:]))
    bounded = all(
        0 < cond[i] <= Fraction(1, 2**k) for k, cond in enumerate(conds) for i in fibers
    )
    return {
        "set": name,
        "fibers": sorted(fibers),
        "conditional": [[format_scalar(v) for v in cond] for cond in conds],
        "checks": {"nested": nested, "halving-bounds": bounded},
    }


def _cmd_family(scenario: Scenario, opts: dict) -> dict:
    depth = _int_input(opts, "depth", scenario.params, "depth", 3, minimum=0, cap=MAX_DEPTH)
    family = build_dyadic_family(scenario.space, depth)
    exact = all(
        all(c == t for c in scenario.space.cond_expectation(family.sets[t]))
        for t in family.grid()
    )
    nested = all(
        family.sets[a].is_subset(family.sets[b])
        for a, b in zip(family.grid(), family.grid()[1:])
    )
    return {
        "depth": depth,
        "levels": {
            format_scalar(t): event_to_json(family.sets[t]) for t in family.grid()
        },
        "checks": {"exact-levels": exact, "nested": nested},
    }


def _level_masses_are(space, event, p: int, q: int) -> bool:
    """Whether every slice of event has mass exactly p/q on its fiber: no
    picks, and its diffuse mass, read off the fiber's table as an int
    over one denominator, cross-multiplied against p/q."""
    for fiber, part in zip(space.fibers, event.slices):
        if part.picks:
            return False
        _, mass, den = fiber.measure.table.spans(part.intervals)
        if mass * q != p * den:
            return False
    return True


def _cmd_uniform(scenario: Scenario, opts: dict) -> dict:
    space = scenario.space
    rv = build_uniform(space)
    grid = _int_input(opts, "count", scenario.params, "count", 64, minimum=1, cap=MAX_GRID)
    exact = all(
        _level_masses_are(space, level_set(rv, Fraction(k, grid)), k, grid)
        for k in range(1, grid + 1)
    )
    return {
        "cdfs": [
            {"xs": [format_scalar(x) for x in u.xs], "ys": [format_scalar(y) for y in u.ys]}
            for u in rv.cdfs
        ],
        "grid": grid,
        "checks": {"level-masses-exact": exact},
    }


def _cmd_scan(scenario: Scenario, opts: dict) -> dict:
    name, a = _named_set(scenario, scenario.params, "A", whole_ok=False)
    res = level_scan(scenario.space, a)
    if res is None:
        return {"set": name, "level": None, "fibers": [], "checks": {"strict-sandwich": True}}
    t, fibers = res
    cond_a = scenario.space.cond_expectation(a)
    cond_i = scenario.space.cond_expectation(a.intersect(set_at_level(scenario.space, t)))
    strict = bool(fibers) and all(0 < cond_i[i] < cond_a[i] for i in fibers)
    return {
        "set": name,
        "level": format_scalar(t),
        "fibers": sorted(fibers),
        "checks": {"strict-sandwich": strict},
    }


def _cmd_kernel(scenario: Scenario, opts: dict) -> dict:
    space = scenario.space
    scan = kernel_atom_scan(space)
    out = {
        "verdict": "atomless" if scan.atomless else "atom",
        "atoms": [
            [
                {"location": format_scalar(l), "weight": format_scalar(w)}
                for l, w in fiber_atoms
            ]
            for fiber_atoms in scan.fiber_atoms
        ],
        "checks": {"conditional-agreement": verdict_holds(space, scan)},
    }
    if scan.atomless:
        rv = build_uniform(space)
        residuals = pushforward_uniformity_check(space, rv, hat_family(system_nodes(rv)))
        out["checks"]["zero-residuals"] = all(r == 0 for row in residuals for r in row)
    return out


def _cmd_densities(scenario: Scenario, opts: dict) -> dict:
    if scenario.measures is None:
        raise InputError("densities needs a 'measures' section")
    fam = scenario.measures
    base = mixture(fam)
    vectors = density_vectors(fam)
    partition = density_partition(vectors)
    nulls = null_cells(fam)
    normalized = all(
        sum((w * v for w, v in zip(fam.weights, vec)), Fraction(0)) == 1
        for c, vec in enumerate(vectors)
        if c not in nulls
    )
    witness = site_witness(fam)
    return {
        "mixture": [format_scalar(b) for b in base],
        "vectors": [[format_scalar(v) for v in vec] for vec in vectors],
        "blocks": list(partition.blocks),
        "null_cells": sorted(nulls),
        "verdict": "atomless" if conditionally_atomless(fam) else "atom",
        "witness_cell": witness,
        "checks": {"weighted-vectors-normalized": normalized},
    }


def _cmd_selftest(scenario: Scenario | None, opts: dict) -> dict:
    # imported here, so that the scenario commands do not load the criteria
    from .selftest import report_data, run_all

    seed = opts.get("seed")
    seed = 42 if seed is None else seed
    count = _int_input(opts, "count", {}, "count", 200, minimum=1, cap=MAX_INSTANCES)
    return report_data(run_all(seed, count=count), seed=seed, count=count)


COMMANDS = {
    "check": _cmd_check,
    "split": _cmd_split,
    "shrink": _cmd_shrink,
    "family": _cmd_family,
    "uniform": _cmd_uniform,
    "scan": _cmd_scan,
    "kernel": _cmd_kernel,
    "densities": _cmd_densities,
    "selftest": _cmd_selftest,
}

# The flags each command reads; a command given any other refuses it.
FLAGS_READ = {
    "shrink": ("count",),
    "family": ("depth",),
    "uniform": ("count",),
    "selftest": ("seed", "count"),
}


def run(command: str, scenario: Scenario | None, **opts) -> dict:
    """Dispatch one command and return the report dictionary."""
    if command not in COMMANDS:
        raise InputError(f"unknown command {command!r}")
    for flag, value in opts.items():
        if value is not None and flag not in FLAGS_READ.get(command, ()):
            raise InputError(f"{command} does not take --{flag}")
    if scenario is None and command != "selftest":
        raise InputError(f"command {command!r} needs --scenario")
    data = COMMANDS[command](scenario, opts)
    data["command"] = command
    data["status"] = "pass" if all(data.get("checks", {}).values()) else "fail"
    return data


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; parse_args
    returns a fresh Namespace on every call, so main can be called again."""
    p = argparse.ArgumentParser(
        prog="condatom",
        description="Exact conditional-atomlessness toolkit over scenario files.",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--scenario", help="path to a scenario JSON file")
    p.add_argument("--seed", type=int, help="seed for selftest")
    p.add_argument("--depth", type=int, help="dyadic depth for the family command")
    p.add_argument("--count", type=int, help="instance count / grid size / chain length")
    p.add_argument("--out", help="write the report here instead of stdout")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    scenario = None
    try:
        if args.scenario is not None:
            with open(args.scenario, encoding="utf-8") as fh:
                scenario = parse_scenario(fh.read())
        data = run(
            args.command,
            scenario,
            seed=args.seed,
            depth=args.depth,
            count=args.count,
        )
        text = report_to_text(data)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (
        ScenarioError, InvariantError, MismatchError, InputError, AtomObstruction, OSError,
        UnicodeDecodeError,
    ) as e:
        print(f"condatom: {e}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    return 0 if data["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
