"""Golden CLI reports: every scenario command on a fixed scenario corpus.

tests/golden/<name>.json is a scenario and <name>.expected.json holds,
per command, the exit code, stdout and stderr that `condatom <command>
--scenario <name>.json` gave when the corpus was recorded. The corpus is
the README scenario, the README scenario with its atom removed (fiber 1
gets density 2 on [0, 1/2) and set A loses its pick), and
generate_scenario(random.Random(seed)) for seeds 0, 4 and 8 (seed 4 is
atomless). The files pin behaviour across refactors: they are recorded
once and never regenerated from the code they check.
"""

import json
from pathlib import Path

import pytest

from condatom.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = [
    (path.name.removesuffix(".expected.json"), command)
    for path in sorted(GOLDEN.glob("*.expected.json"))
    for command in sorted(json.loads(path.read_text(encoding="utf-8")))
]


def test_corpus_covers_every_scenario_command():
    names = {name for name, _ in CASES}
    assert names == {"readme", "readme-no-atom", "generated-0", "generated-4", "generated-8"}
    assert len(CASES) == 8 * len(names)


@pytest.mark.parametrize("name,command", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_report_is_byte_identical(name, command, capsys):
    expected = json.loads((GOLDEN / f"{name}.expected.json").read_text(encoding="utf-8"))[command]
    code = main([command, "--scenario", str(GOLDEN / f"{name}.json")])
    out, err = capsys.readouterr()
    assert (code, out, err) == (expected["exit"], expected["stdout"], expected["stderr"])
