"""The README's examples: its library example runs as written, and its
scenario schema block is the golden README scenario."""

import json
import re
from pathlib import Path

from condatom import parse_scenario

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
GOLDEN = Path(__file__).parent / "golden" / "readme.json"


def block(language: str) -> str:
    """The README's one fenced block in language."""
    (body,) = re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)
    return body


def test_library_example_runs():
    exec(compile(block("python"), "README.md", "exec"), {})


def test_schema_block_is_the_golden_readme_scenario():
    text = block("json")
    golden = GOLDEN.read_text(encoding="utf-8")
    assert json.loads(text) == json.loads(golden)
    assert parse_scenario(text) == parse_scenario(golden)
