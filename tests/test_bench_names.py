"""The names the benchmark reads off the package stay bound.

bench/workloads.py wraps every CLI_STEPS name on condatom.cli, and the
tracer in bench/spans.py wraps every LAYER_FUNCTIONS entry, a function
of a condatom module or a method in a class's own namespace. A refactor
that drops one would crash the benchmark, so both tuples are read here
with ast, without importing the bench modules, and resolved the way the
benchmark resolves them.
"""

import ast
import importlib
from pathlib import Path

import pytest

import condatom.cli

BENCH = Path(__file__).parents[1] / "bench"


def _tuple_literal(filename, name):
    tree = ast.parse((BENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{filename} assigns no {name}")


CLI_STEPS = _tuple_literal("workloads.py", "CLI_STEPS")
LAYER_FUNCTIONS = _tuple_literal("spans.py", "LAYER_FUNCTIONS")


def test_both_tuples_are_read():
    assert "kernel_atom_scan" in CLI_STEPS
    assert "kernel.kernel_atom_scan" in LAYER_FUNCTIONS


@pytest.mark.parametrize("name", CLI_STEPS)
def test_cli_step_is_bound_on_the_cli_module(name):
    assert callable(getattr(condatom.cli, name))


@pytest.mark.parametrize("name", LAYER_FUNCTIONS)
def test_layer_function_resolves(name):
    module_name, *path = name.split(".")
    module = importlib.import_module(f"condatom.{module_name}")
    if len(path) == 2:
        assert callable(vars(getattr(module, path[0]))[path[1]])
    else:
        assert callable(getattr(module, path[0]))
