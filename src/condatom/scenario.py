"""Scenario files: a JSON schema with all rationals as exact strings.

Layout (see README for a full example):

    {
      "space":    {"fibers": [{"weight": "1/2", "breakpoints": [...],
                               "densities": [...], "atoms": [...]}]},
      "sets":     {"A": [{"intervals": [["0","1/2"]], "picks": []}, ...]},
      "h":        ["1/2", ...],
      "measures": {"weights": [...], "cells": [...], "masses": [[...]]},
      "params":   {"depth": 3, "seed": 42, ...}
    }

Rationals are "num/den" or integer strings, read with the grammar of
Python's Fraction(str); JSON integers are accepted, floats are rejected
so exactness cannot leak in. Parsing validates every
type invariant and names the violated one in the error.

Parsing is one pass from text to the package's objects. Each distinct
rational string is read once per parse, and its later occurrences
share that Fraction. One reader per shape reads a rational, a list of
rationals or a list of pairs, and one check covers every dict's keys.
Each takes its location as a format string and arguments and formats
it only on failure, so a good scenario builds no location text. The
constructors take the parsed Fractions without coercing them again and
check each invariant on ints; FiberMeasure hands the ints it checked
to its table as the table's integer image.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .densities import Cell, MeasureFamily
from .space import (
    EventSet,
    Fiber,
    FiberedSpace,
    FiberMeasure,
    FiberSlice,
    InvariantError,
)


class ScenarioError(ValueError):
    """Scenario text cannot be parsed or is structurally malformed."""


@dataclass(frozen=True)
class Scenario:
    space: FiberedSpace
    sets: dict[str, EventSet] = field(default_factory=dict)
    h: tuple[Fraction, ...] | None = None
    measures: MeasureFamily | None = None
    params: dict = field(default_factory=dict)


def _rational(value) -> Fraction:
    """value as a Fraction; a ScenarioError says what is wrong, not where.
    The "-7" and "-7/8" shapes serialize_scenario writes (ASCII digits) are
    read with int(); other strings go to Fraction(str), same grammar."""
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        try:
            if digits.isascii() and digits.isdigit():
                if not slash:
                    return Fraction(int(num))
                if den.isascii() and den.isdigit():
                    return Fraction(int(num), int(den))
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ScenarioError(f"cannot parse rational {value!r}") from None
    if isinstance(value, bool) or isinstance(value, float):
        raise ScenarioError(f"{value!r} is not an exact rational")
    if isinstance(value, int):
        return Fraction(value)
    raise ScenarioError(f"expected a rational string, got {type(value).__name__}")


def parse_scalar(value, where: str) -> Fraction:
    try:
        return _rational(value)
    except ScenarioError as e:
        raise ScenarioError(f"{where}: {e}") from None


class _Rationals(dict):
    """The rationals of one parse, by their text: each distinct string
    is read once, and its later occurrences share the one Fraction. A
    value that does not read is never kept, so it fails again, with its
    own location, wherever it occurs. Only strings are kept: a kept int 1
    would be found for true and for 1.0, which must be refused.

    Each reader reads the whole value in one pass; only when that fails
    does it read the value again, entry by entry through parse_scalar,
    to name the failing entry."""

    def __missing__(self, value) -> Fraction:
        x = _rational(value)
        if type(value) is str:
            self[value] = x
        return x

    def scalar(self, value, where: str, *at) -> Fraction:
        try:
            return self[value]
        except (ScenarioError, TypeError):  # TypeError: a list or a dict
            return parse_scalar(value, where.format(*at))

    def scalars(self, values, where: str, *at) -> tuple[Fraction, ...]:
        if type(values) is list:
            try:
                return tuple(map(self.__getitem__, values))
            except (ScenarioError, TypeError):
                pass
        _expect(values, list, where, *at)
        where = where.format(*at)
        return tuple([parse_scalar(x, f"{where}[{j}]") for j, x in enumerate(values)])

    def pairs(self, values, where: str, *at) -> tuple[tuple[Fraction, Fraction], ...]:
        if type(values) is list:
            try:
                out = [(self[p[0]], self[p[1]]) for p in values if type(p) is list and len(p) == 2]
                if len(out) == len(values):
                    return tuple(out)
            except (ScenarioError, TypeError):
                pass
        _expect(values, list, where, *at)
        where = where.format(*at)
        out = []
        for j, pair in enumerate(values):
            if len(_expect(pair, list, "{}[{}]", where, j)) != 2:
                raise ScenarioError(f"{where}[{j}]: expected a pair")
            out.append(tuple([parse_scalar(x, f"{where}[{j}][{k}]") for k, x in enumerate(pair)]))
        return tuple(out)


def format_scalar(value: Fraction) -> str:
    return str(value) if type(value) is Fraction else str(Fraction(value))


def _expect(obj, typ, where: str, *at):
    if not isinstance(obj, typ):
        where = where.format(*at)
        raise ScenarioError(f"{where}: expected {typ.__name__}, got {type(obj).__name__}")
    return obj


_SCENARIO_KEYS = frozenset({"space", "sets", "h", "measures", "params"})
_SPACE_KEYS = frozenset({"fibers"})
_FIBER_KEYS = frozenset({"weight", "breakpoints", "densities", "atoms"})
_ATOM_KEYS = frozenset({"location", "weight"})
_SLICE_KEYS = frozenset({"intervals", "picks"})
_FAMILY_KEYS = frozenset({"weights", "cells", "masses"})
_CELL_KEYS = frozenset({"fiber", "lo", "hi"})


def _check_keys(obj, allowed: frozenset, required: tuple, where: str, *at) -> dict:
    """obj, if it is a dict with only allowed keys and every required
    one; else an error naming a wrong type, else the unknown keys, else
    the first missing key in the order of required."""
    if type(obj) is dict and obj.keys() <= allowed:
        if not required or all(map(obj.__contains__, required)):
            return obj
    _expect(obj, dict, where, *at)
    where = where.format(*at)
    unknown = obj.keys() - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    missing = next(key for key in required if key not in obj)
    raise ScenarioError(f"{where}: missing {missing!r}")


def _parse_fiber(obj, i: int, read: _Rationals) -> Fiber:
    _check_keys(obj, _FIBER_KEYS, ("weight", "breakpoints", "densities"), "space.fibers[{}]", i)
    atoms = []
    for j, a in enumerate(_expect(obj.get("atoms", []), list, "space.fibers[{}].atoms", i)):
        _check_keys(a, _ATOM_KEYS, (), "space.fibers[{}].atoms[{}]", i, j)
        atoms.append(
            (
                read.scalar(a.get("location"), "space.fibers[{}].atoms[{}].location", i, j),
                read.scalar(a.get("weight"), "space.fibers[{}].atoms[{}].weight", i, j),
            )
        )
    measure = FiberMeasure(
        atoms=tuple(atoms),
        breakpoints=read.scalars(obj["breakpoints"], "space.fibers[{}].breakpoints", i),
        densities=read.scalars(obj["densities"], "space.fibers[{}].densities", i),
    )
    return Fiber(read.scalar(obj["weight"], "space.fibers[{}].weight", i), measure)


def _parse_event(obj, name: str, n_fibers: int, read: _Rationals) -> EventSet:
    _expect(obj, list, "sets.{}", name)
    if len(obj) != n_fibers:
        raise InvariantError(f"sets.{name} covers {len(obj)} fibers, space has {n_fibers}")
    slices = []
    for i, part in enumerate(obj):
        _check_keys(part, _SLICE_KEYS, (), "sets.{}[{}]", name, i)
        slices.append(
            FiberSlice(
                read.pairs(part.get("intervals", []), "sets.{}[{}].intervals", name, i),
                read.scalars(part.get("picks", []), "sets.{}[{}].picks", name, i),
            )
        )
    return EventSet(tuple(slices))


def _parse_family(obj, read: _Rationals) -> MeasureFamily:
    _check_keys(obj, _FAMILY_KEYS, ("weights", "cells", "masses"), "measures")
    cells = []
    for j, c in enumerate(_expect(obj["cells"], list, "measures.cells")):
        _check_keys(c, _CELL_KEYS, (), "measures.cells[{}]", j)
        fiber = c.get("fiber")
        if type(fiber) is not int:  # JSON gives int, or bool for true and false
            raise ScenarioError(f"measures.cells[{j}].fiber: expected an integer")
        cells.append(
            Cell(
                fiber,
                read.scalar(c.get("lo"), "measures.cells[{}].lo", j),
                read.scalar(c.get("hi"), "measures.cells[{}].hi", j),
            )
        )
    masses = tuple(
        [
            read.scalars(row, "measures.masses[{}]", k)
            for k, row in enumerate(_expect(obj["masses"], list, "measures.masses"))
        ]
    )
    weights = read.scalars(obj["weights"], "measures.weights")
    return MeasureFamily(cells=tuple(cells), masses=masses, weights=weights)


def _check_params(obj) -> dict:
    """params as a dict, refusing a float at any depth. A float is located
    by its path (params.x[0][0], params.x.y), except that a value of
    params or an entry of a list value is located at the key. The walk
    keeps its own stack, since json.loads accepts nesting close to the
    recursion limit, and each entry's location is a (parent, key or
    index) link, spelled out only when it fails."""
    _expect(obj, dict, "params")
    stack = [(value, (None, key)) for key, value in reversed(obj.items())]
    while stack:
        value, at = stack.pop()
        if isinstance(value, float):
            parent, part = at
            if parent is not None and parent[0] is None and type(part) is int:
                at = parent
            where = []
            while at is not None:
                at, part = at
                where.append(f"[{part}]" if type(part) is int else f".{part}")
            raise ScenarioError(f"params{''.join(reversed(where))}: floats are not exact")
        if type(value) is list:
            stack.extend((value[j], (at, j)) for j in range(len(value) - 1, -1, -1))
        elif type(value) is dict:
            stack.extend((v, (at, k)) for k, v in reversed(value.items()))
    return dict(obj)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate; errors carry position or the violated invariant."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except (RecursionError, ValueError) as e:
        # nesting deeper than the interpreter's recursion limit, or an
        # integer literal longer than int's digit limit
        raise ScenarioError(f"parse error: {e}") from None
    _check_keys(obj, _SCENARIO_KEYS, ("space",), "scenario")
    read = _Rationals()
    fibers = _check_keys(obj["space"], _SPACE_KEYS, (), "space").get("fibers")
    fibers = _expect(fibers, list, "space.fibers")
    space = FiberedSpace(tuple([_parse_fiber(f, i, read) for i, f in enumerate(fibers)]))
    sets = {}
    for name, body in _expect(obj.get("sets", {}), dict, "sets").items():
        event = _parse_event(body, name, space.n_fibers, read)
        space.validate_event(event)
        sets[name] = event
    h = None
    if "h" in obj:
        hs = _expect(obj["h"], list, "h")
        if len(hs) != space.n_fibers:
            raise InvariantError(f"h covers {len(hs)} fibers, space has {space.n_fibers}")
        h = read.scalars(hs, "h")
        for v in h:
            if not 0 <= v.numerator <= v.denominator:
                raise InvariantError(f"h value {v} outside [0,1]")
    measures = _parse_family(obj["measures"], read) if "measures" in obj else None
    params = _check_params(obj.get("params", {}))
    return Scenario(space=space, sets=sets, h=h, measures=measures, params=params)


def fiber_to_json(fiber: Fiber) -> dict:
    m = fiber.measure
    out = {
        "weight": format_scalar(fiber.weight),
        "breakpoints": [format_scalar(x) for x in m.breakpoints],
        "densities": [format_scalar(d) for d in m.densities],
    }
    if m.atoms:
        out["atoms"] = [
            {"location": format_scalar(loc), "weight": format_scalar(w)} for loc, w in m.atoms
        ]
    return out


def event_to_json(event: EventSet) -> list:
    return [
        {
            "intervals": [[format_scalar(a), format_scalar(b)] for a, b in s.intervals],
            "picks": [format_scalar(p) for p in s.picks],
        }
        for s in event.slices
    ]


def family_to_json(family: MeasureFamily) -> dict:
    return {
        "weights": [format_scalar(w) for w in family.weights],
        "cells": [
            {"fiber": c.fiber, "lo": format_scalar(c.lo), "hi": format_scalar(c.hi)}
            for c in family.cells
        ],
        "masses": [[format_scalar(v) for v in row] for row in family.masses],
    }


def scenario_to_json(sc: Scenario) -> dict:
    out: dict = {"space": {"fibers": [fiber_to_json(f) for f in sc.space.fibers]}}
    if sc.sets:
        out["sets"] = {name: event_to_json(e) for name, e in sorted(sc.sets.items())}
    if sc.h is not None:
        out["h"] = [format_scalar(v) for v in sc.h]
    if sc.measures is not None:
        out["measures"] = family_to_json(sc.measures)
    if sc.params:
        out["params"] = sc.params
    return out


def report_to_text(data: dict) -> str:
    """The one JSON text format of reports and scenario files: sorted
    keys, two-space indent and a closing newline."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def serialize_scenario(sc: Scenario) -> str:
    """Canonical text form; parse(serialize(sc)) == sc."""
    return report_to_text(scenario_to_json(sc))
