"""Tests of the benchmark's oracle, checks and tracer.

    python3 -m pytest bench/test_bench.py

The oracle is checked on hand-worked fibers; every workload check must
accept the program's real output and reject a planted wrong one.
"""

import json
import os
import sys
from dataclasses import replace
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import oracle  # noqa: E402
import workloads as w  # noqa: E402
from condatom import (  # noqa: E402
    DyadicFamily,
    EventSet,
    Fiber,
    FiberedSpace,
    FiberMeasure,
    FiberSlice,
    parse_scenario,
    split,
)
from spans import LAYER_FUNCTIONS, Tracer  # noqa: E402

UNIFORM = FiberMeasure()
GAPPED = FiberMeasure(breakpoints=(0, F(1, 4), F(3, 4), 1), densities=(2, 0, 2))
ATOMIC = FiberMeasure(atoms=((F(1, 2), F(1, 2)),), densities=(F(1, 2),))
SPACE = FiberedSpace((Fiber(F(1, 2), UNIFORM), Fiber(F(1, 2), GAPPED)))


@pytest.mark.parametrize(
    "measure, intervals, picks, mass",
    [
        (UNIFORM, ((0, F(1, 2)),), (), F(1, 2)),
        (UNIFORM, ((F(1, 8), F(1, 4)), (F(1, 2), 1)), (), F(5, 8)),
        (GAPPED, ((0, F(1, 2)),), (), F(1, 2)),
        (GAPPED, ((F(1, 4), F(3, 4)),), (), F(0)),
        (GAPPED, ((F(1, 8), F(7, 8)),), (), F(1, 2)),
        (GAPPED, ((F(1, 2), 1),), (), F(1, 2)),
        (GAPPED, ((0, 1),), (), F(1)),
        (ATOMIC, ((0, F(1, 2)),), (), F(1, 4)),
        (ATOMIC, ((0, F(1, 2)),), (F(1, 2),), F(3, 4)),
        (ATOMIC, ((F(1, 4), 1),), (F(1, 2),), F(7, 8)),
    ],
)
def test_oracle_mass_on_hand_worked_fibers(measure, intervals, picks, mass):
    assert oracle.fiber_mass(measure, intervals, picks) == mass


def test_oracle_refuses_a_pick_that_is_no_atom():
    with pytest.raises(ValueError):
        oracle.fiber_mass(ATOMIC, (), (F(1, 4),))


def test_set_relations_are_decided_pointwise():
    a = FiberSlice(((0, F(1, 2)),))
    b = FiberSlice(((F(1, 4), F(3, 4)),))
    assert oracle.combined_ok(FiberSlice(((0, F(3, 4)),)), a, b, lambda x, y: x or y)
    assert not oracle.combined_ok(FiberSlice(((0, F(5, 8)),)), a, b, lambda x, y: x or y)
    assert oracle.slice_inside(FiberSlice(((F(1, 8), F(1, 4)),)), a)
    assert not oracle.slice_inside(b, a)


def test_levels_check_rejects_a_prefix_moved_by_1_64():
    result = w.levels_run(SPACE)
    assert w.levels_check(SPACE, result) == []
    family, direct, via_rv = result
    t = F(1, 2)
    (_, q), = family.sets[t].slices[1].intervals
    moved = EventSet((family.sets[t].slices[0], FiberSlice(((0, q + F(1, 64)),))))
    planted = DyadicFamily(family.depth, {**family.sets, t: moved})
    assert w.levels_check(SPACE, (planted, direct, via_rv))


def _events_input(h):
    c = EventSet((FiberSlice(((0, F(1, 2)),)), FiberSlice(((F(1, 8), 1),))))
    a = EventSet((FiberSlice(((F(1, 4), F(3, 4)),)), FiberSlice()))
    b = EventSet((FiberSlice(((F(1, 2), 1),)), FiberSlice(((0, F(1, 2)),))))
    return w.EventsInput(SPACE, c, a, b, h, c, frozenset({0, 1}))


def test_events_check_rejects_a_split_with_swapped_coefficients():
    inp = _events_input((F(1, 4), F(3, 4)))
    result = w.events_run(inp)
    assert w.events_check(inp, result) == []
    swapped = split(SPACE, inp.c, inp.h[::-1])
    assert w.events_check(inp, (swapped, *result[1:]))


def test_events_check_expects_the_atom_obstruction():
    space = FiberedSpace((Fiber(1, ATOMIC),))
    c = EventSet((FiberSlice(((0, F(1, 4)),), (F(1, 2),)),))
    inp = w.EventsInput(space, c, c, c, (F(1, 2),), space.whole_event(), frozenset())
    inp = replace(inp, c_diffuse=EventSet((FiberSlice(((0, 1),)),)), shrink_fibers=frozenset({0}))
    result = w.events_run(inp)
    assert result[0] == ("obstruction", 0)
    assert w.events_check(inp, result) == []
    assert w.events_check(inp, (c, *result[1:]))


def test_cli_check_rejects_a_wrong_exit_code(tmp_path):
    text = json.dumps(w.TWO_UNIFORM)
    path = tmp_path / "s.json"
    path.write_text(text)
    case = w.CliCase("split", str(path), str(tmp_path / "out.json"), parse_scenario(text))
    result = w.cli_finish(case, w.cli_run(case))
    assert result == (2, None)  # no h section
    assert w.cli_check(case, result) == []
    assert w.cli_check(case, (1, None))
    check = replace(case, command="check")
    result = w.cli_finish(check, w.cli_run(check))
    assert w.cli_check(check, result) == []
    assert w.cli_check(check, (2, None))


def test_cli_corpus_fails_exactly_on_the_named_faults(tmp_path):
    cases = w.cli_inputs(3, str(tmp_path))
    failing = set()
    for case in cases:
        try:
            raw = w.cli_run(case)
        except Exception as e:
            raw = w.Raised(type(e).__name__, str(e))
        if w.cli_check(case, w.cli_finish(case, raw)):
            failing.add(case.fault)
    assert failing == {name for name, *_ in w.FAULT_CASES}
    commands = {(c.command, w.expected_exit(c)) for c in cases if c.fault is None}
    assert {cmd for cmd, code in commands if code == 0} == set(w.CLI_COMMANDS)
    assert {cmd for cmd, code in commands if code == 2} == set(w.CLI_COMMANDS)


def test_tracer_counts_nested_calls_and_restores_the_originals():
    import condatom.splitting as splitting
    import condatom.uniform as uniform

    before = (uniform.split, splitting.split, uniform.set_at_level)
    with Tracer() as tracer:
        w.levels_run(SPACE)
    assert (uniform.split, splitting.split, uniform.set_at_level) == before
    grid = 2**w.LEVELS_DEPTH + 1
    assert tracer.calls["uniform.set_at_level"] == grid
    assert tracer.calls["splitting.split"] == grid - 2  # levels 0 and 1 need no split
    assert tracer.calls["uniform.build_dyadic_family"] == 1
    assert tracer.calls["space.FiberMeasure.quantiles"] == SPACE.n_fibers
    assert all(tracer.self_s[name] >= 0 for name in LAYER_FUNCTIONS)
    metrics = tracer.metrics(1)
    assert metrics["uniform.self_s"] == pytest.approx(
        sum(v for k, v in metrics.items() if k.startswith("uniform.") and k.endswith(".self_s")
            and k != "uniform.self_s")
    )


def test_cli_steps_split_an_operation_and_restore_the_originals(tmp_path):
    import condatom.cli as cli
    import condatom.splitting as splitting

    text = json.dumps({**w.TWO_UNIFORM, "h": ["1/2", "1/4"]})
    path = tmp_path / "s.json"
    path.write_text(text)
    case = w.CliCase("split", str(path), str(tmp_path / "out.json"), parse_scenario(text))
    laps = []
    assert w.cli_run(case, lambda: laps.append(1)) == 0 and laps == []
    with w.cli_steps():
        assert w.cli_run(case, lambda: laps.append(1)) == 0
    # build_parser, parse_scenario, split and report_to_text each begin and end a step
    assert len(laps) == 8
    assert cli.split is splitting.split and cli.parse_scenario is w.condatom.parse_scenario
