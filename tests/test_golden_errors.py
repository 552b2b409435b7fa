"""Golden parse errors: parse_scenario on a fixed corpus of bad scenarios.

tests/golden/parse-errors.jsonl holds one case per line: the README
scenario (tests/golden/readme.json) with a list of edits, or a raw text
where the input is not a JSON object at all, together with the exception
type and the full message that parse_scenario raised when the corpus was
recorded. An edit [path, value] sets the entry at path, and an edit
[path] deletes it; the edited object is written with json.dumps. The
edits put a bad rational at every location class, a non-pair interval,
a wrong container at every level, unknown and missing keys, values that
break each constructor invariant, bad strings that repeat earlier good
ones, and JSON syntax errors. Like the report corpus, it is recorded
once and never regenerated from the code it checks.
"""

import copy
import json
from pathlib import Path

import pytest

import condatom
from condatom import parse_scenario

GOLDEN = Path(__file__).parent / "golden"
BASE = json.loads((GOLDEN / "readme.json").read_text(encoding="utf-8"))
CASES = [
    json.loads(line)
    for line in (GOLDEN / "parse-errors.jsonl").read_text(encoding="utf-8").splitlines()
]


def scenario_text(case) -> str:
    if "text" in case:
        return case["text"]
    obj = copy.deepcopy(BASE)
    for path, *value in case["edits"]:
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if value:
            parent[path[-1]] = value[0]
        else:
            del parent[path[-1]]
    return json.dumps(obj)


def test_corpus_names_are_distinct():
    assert len({case["name"] for case in CASES}) == len(CASES) > 300


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_error_type_and_message_are_unchanged(case):
    with pytest.raises(Exception) as exc:
        parse_scenario(scenario_text(case))
    assert type(exc.value) is getattr(condatom, case["error"])
    assert str(exc.value) == case["message"]
