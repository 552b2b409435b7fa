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


def _scalars(values, where: str) -> tuple[Fraction, ...]:
    """Parse a list of rationals; an entry's location is formatted only
    when it fails."""
    out = []
    for j, x in enumerate(_expect(values, list, where)):
        try:
            out.append(_rational(x))
        except ScenarioError as e:
            raise ScenarioError(f"{where}[{j}]: {e}") from None
    return tuple(out)


def format_scalar(value: Fraction) -> str:
    return str(Fraction(value))


def _expect(obj, typ, where: str):
    if not isinstance(obj, typ):
        raise ScenarioError(f"{where}: expected {typ.__name__}, got {type(obj).__name__}")
    return obj


def _reject_unknown(obj: dict, allowed, where: str):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")


def _parse_fiber(obj, where: str) -> Fiber:
    _expect(obj, dict, where)
    _reject_unknown(obj, {"weight", "breakpoints", "densities", "atoms"}, where)
    for key in ("weight", "breakpoints", "densities"):
        if key not in obj:
            raise ScenarioError(f"{where}: missing {key!r}")
    atoms = []
    for j, a in enumerate(_expect(obj.get("atoms", []), list, f"{where}.atoms")):
        _expect(a, dict, f"{where}.atoms[{j}]")
        _reject_unknown(a, {"location", "weight"}, f"{where}.atoms[{j}]")
        atoms.append(
            (
                parse_scalar(a.get("location"), f"{where}.atoms[{j}].location"),
                parse_scalar(a.get("weight"), f"{where}.atoms[{j}].weight"),
            )
        )
    measure = FiberMeasure(
        atoms=tuple(atoms),
        breakpoints=_scalars(obj["breakpoints"], f"{where}.breakpoints"),
        densities=_scalars(obj["densities"], f"{where}.densities"),
    )
    return Fiber(parse_scalar(obj["weight"], f"{where}.weight"), measure)


def _parse_space(obj) -> FiberedSpace:
    _expect(obj, dict, "space")
    _reject_unknown(obj, {"fibers"}, "space")
    fibers = _expect(obj.get("fibers"), list, "space.fibers")
    return FiberedSpace(
        tuple(_parse_fiber(f, f"space.fibers[{i}]") for i, f in enumerate(fibers))
    )


def _parse_event(obj, n_fibers: int, where: str) -> EventSet:
    _expect(obj, list, where)
    if len(obj) != n_fibers:
        raise InvariantError(f"{where} covers {len(obj)} fibers, space has {n_fibers}")
    slices = []
    for i, part in enumerate(obj):
        _expect(part, dict, f"{where}[{i}]")
        _reject_unknown(part, {"intervals", "picks"}, f"{where}[{i}]")
        intervals = []
        for j, pair in enumerate(_expect(part.get("intervals", []), list, f"{where}[{i}].intervals")):
            pair_where = f"{where}[{i}].intervals[{j}]"
            if len(_expect(pair, list, pair_where)) != 2:
                raise ScenarioError(f"{pair_where}: expected a pair")
            intervals.append(_scalars(pair, pair_where))
        picks = _scalars(part.get("picks", []), f"{where}[{i}].picks")
        slices.append(FiberSlice(tuple(intervals), picks))
    return EventSet(tuple(slices))


def _parse_family(obj) -> MeasureFamily:
    _expect(obj, dict, "measures")
    _reject_unknown(obj, {"weights", "cells", "masses"}, "measures")
    for key in ("weights", "cells", "masses"):
        if key not in obj:
            raise ScenarioError(f"measures: missing {key!r}")
    cells = []
    for j, c in enumerate(_expect(obj["cells"], list, "measures.cells")):
        _expect(c, dict, f"measures.cells[{j}]")
        _reject_unknown(c, {"fiber", "lo", "hi"}, f"measures.cells[{j}]")
        fiber = c.get("fiber")
        if not isinstance(fiber, int) or isinstance(fiber, bool):
            raise ScenarioError(f"measures.cells[{j}].fiber: expected an integer")
        cells.append(
            Cell(
                fiber,
                parse_scalar(c.get("lo"), f"measures.cells[{j}].lo"),
                parse_scalar(c.get("hi"), f"measures.cells[{j}].hi"),
            )
        )
    masses = tuple(
        _scalars(row, f"measures.masses[{k}]")
        for k, row in enumerate(_expect(obj["masses"], list, "measures.masses"))
    )
    weights = _scalars(obj["weights"], "measures.weights")
    return MeasureFamily(cells=tuple(cells), masses=masses, weights=weights)


def _check_params(obj) -> dict:
    _expect(obj, dict, "params")
    for key, value in obj.items():
        if isinstance(value, float):
            raise ScenarioError(f"params.{key}: floats are not exact")
        if isinstance(value, list) and any(isinstance(v, float) for v in value):
            raise ScenarioError(f"params.{key}: floats are not exact")
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
    _expect(obj, dict, "scenario")
    _reject_unknown(obj, {"space", "sets", "h", "measures", "params"}, "scenario")
    if "space" not in obj:
        raise ScenarioError("scenario: missing 'space'")
    space = _parse_space(obj["space"])
    sets = {}
    for name, body in _expect(obj.get("sets", {}), dict, "sets").items():
        event = _parse_event(body, space.n_fibers, f"sets.{name}")
        space.validate_event(event)
        sets[name] = event
    h = None
    if "h" in obj:
        hs = _expect(obj["h"], list, "h")
        if len(hs) != space.n_fibers:
            raise InvariantError(f"h covers {len(hs)} fibers, space has {space.n_fibers}")
        h = _scalars(hs, "h")
        for v in h:
            if not 0 <= v <= 1:
                raise InvariantError(f"h value {v} outside [0,1]")
    measures = _parse_family(obj["measures"]) if "measures" in obj else None
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


def space_to_json(space: FiberedSpace) -> dict:
    return {"fibers": [fiber_to_json(f) for f in space.fibers]}


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
    out: dict = {"space": space_to_json(sc.space)}
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
