"""The oracles in tests/oracles.py check condatom from outside, so they
must not lean on it: this test reads the file and fails on any import of
condatom, absolute or relative."""

import ast
from pathlib import Path


def test_oracles_import_nothing_from_condatom():
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        found += [n for n in names if n.split(".")[0] in ("condatom", "")]
    assert found == [], f"tests/oracles.py imports {found}"
