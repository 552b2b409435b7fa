import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from condatom import InvariantError, ScenarioError, parse_scenario, serialize_scenario
from condatom.generate import generate_scenario, rng_for
from condatom.scenario import parse_scalar

F = Fraction

MINIMAL = """
{
  "space": {"fibers": [
    {"weight": "1", "breakpoints": ["0", "1"], "densities": ["1"]}
  ]}
}
"""


def test_minimal_scenario_parses():
    sc = parse_scenario(MINIMAL)
    assert sc.space.n_fibers == 1
    assert sc.space.fibers[0].measure.densities == (F(1),)
    assert sc.sets == {} and sc.h is None and sc.measures is None


def test_full_scenario_round_trip():
    rng = rng_for(23, "unit-roundtrip")
    for _ in range(25):
        sc = generate_scenario(rng)
        text = serialize_scenario(sc)
        back = parse_scenario(text)
        assert back == sc
        assert serialize_scenario(back) == text


def _fractions(sc):
    """Every Fraction a parsed scenario holds, as the objects themselves."""
    out = []
    for f in sc.space.fibers:
        m = f.measure
        out += [f.weight, *m.breakpoints, *m.densities, *(x for atom in m.atoms for x in atom)]
    for event in sc.sets.values():
        for s in event.slices:
            out += [x for pair in s.intervals for x in pair] + list(s.picks)
    out += list(sc.h or ())
    if sc.measures is not None:
        family = sc.measures
        out += [x for c in family.cells for x in (c.lo, c.hi)]
        out += [v for row in family.masses for v in row] + list(family.weights)
    return out


def test_parses_share_no_state():
    """Each parse reads its rationals afresh: a second, different
    scenario parses equal to the scenario it was written from and holds
    none of the Fraction objects of the parse before it."""
    rng = rng_for(29, "unit-two-parses")
    for _ in range(10):
        first, second = generate_scenario(rng), generate_scenario(rng)
        kept = parse_scenario(serialize_scenario(first))
        again = parse_scenario(serialize_scenario(second))
        assert again == second
        seen = {id(x) for x in _fractions(kept)}
        assert not any(id(x) in seen for x in _fractions(again))


def test_a_repeated_string_is_read_once_per_parse():
    sc = parse_scenario((Path(__file__).parent / "golden" / "readme.json").read_text("utf-8"))
    halves = [x for x in _fractions(sc) if x == F(1, 2)]
    assert len(halves) > 5 and all(x is halves[0] for x in halves)


def test_rejects_bad_weight_sum():
    text = json.dumps(
        {
            "space": {
                "fibers": [
                    {"weight": "1/2", "breakpoints": ["0", "1"], "densities": ["1"]},
                    {"weight": "3/8", "breakpoints": ["0", "1"], "densities": ["1"]},
                ]
            }
        }
    )
    with pytest.raises(InvariantError, match="sum to 7/8, expected 1"):
        parse_scenario(text)


def test_rejects_atom_outside_interval():
    text = json.dumps(
        {
            "space": {
                "fibers": [
                    {
                        "weight": "1",
                        "breakpoints": ["0", "1"],
                        "densities": ["1/2"],
                        "atoms": [{"location": "3/2", "weight": "1/2"}],
                    }
                ]
            }
        }
    )
    with pytest.raises(InvariantError, match="3/2 outside"):
        parse_scenario(text)


def test_parse_error_carries_position():
    with pytest.raises(ScenarioError, match=r"line 1, column 2"):
        parse_scenario("{nonsense}")


def test_rejects_floats():
    text = json.dumps(
        {"space": {"fibers": [{"weight": 0.5, "breakpoints": ["0", "1"], "densities": ["1"]}]}}
    )
    with pytest.raises(ScenarioError, match="not an exact rational"):
        parse_scenario(text)


def test_rejects_unknown_keys():
    text = json.dumps({"space": {"fibers": []}, "sents": {}})
    with pytest.raises(ScenarioError, match="unknown keys"):
        parse_scenario(text)


def test_rejects_h_of_wrong_length():
    text = json.dumps(
        {
            "space": {"fibers": [{"weight": "1", "breakpoints": ["0", "1"], "densities": ["1"]}]},
            "h": ["1/2", "1/2"],
        }
    )
    with pytest.raises(InvariantError, match="h covers 2 fibers"):
        parse_scenario(text)


def test_rejects_h_outside_unit_interval():
    text = json.dumps(
        {
            "space": {"fibers": [{"weight": "1", "breakpoints": ["0", "1"], "densities": ["1"]}]},
            "h": ["3/2"],
        }
    )
    with pytest.raises(InvariantError, match="outside"):
        parse_scenario(text)


def test_set_must_cover_every_fiber():
    text = json.dumps(
        {
            "space": {"fibers": [{"weight": "1", "breakpoints": ["0", "1"], "densities": ["1"]}]},
            "sets": {"A": []},
        }
    )
    with pytest.raises(InvariantError, match="covers 0 fibers"):
        parse_scenario(text)


def test_integer_rationals_are_accepted():
    text = json.dumps(
        {"space": {"fibers": [{"weight": 1, "breakpoints": [0, 1], "densities": [1]}]}}
    )
    sc = parse_scenario(text)
    assert sc.space.fibers[0].weight == 1


def _fraction_or_none(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def _assert_parses_like_fraction(text):
    """parse_scalar accepts exactly what Fraction(str) accepts, with the
    same value, and words every refusal the same way."""
    expected = _fraction_or_none(text)
    if expected is None:
        with pytest.raises(ScenarioError) as err:
            parse_scalar(text, "x[0]")
        assert str(err.value) == f"x[0]: cannot parse rational {text!r}"
    else:
        value = parse_scalar(text, "x[0]")
        assert type(value) is Fraction and value == expected


@pytest.mark.parametrize(
    "text",
    [
        "007", "-0", "+1", " 1 ", "1_000", "1/0", "0/5", "1.5", "1e3", "\u0661/\u0662",
        "", "/", "1/", "-/2", "1/-2", "-", "--1", "1/2/3", "-3/6", "1 / 2", "\u00b2",
        "1" * 4301, "1/" + "1" * 4301,
    ],
)
def test_parse_scalar_hand_cases_match_fraction(text):
    _assert_parses_like_fraction(text)


# serialize_scenario's own shapes, and near misses built from the
# characters Fraction(str)'s grammar gives a meaning to
rational_texts = st.one_of(
    st.from_regex(r"-?[0-9]{1,25}(/[0-9]{1,25})?", fullmatch=True),
    st.text(alphabet="0123456789-+/_.eE \t\u0661\u00b2", max_size=12),
    st.text(max_size=6),
)


@given(rational_texts)
def test_parse_scalar_matches_fraction(text):
    _assert_parses_like_fraction(text)


def test_scalar_errors_name_the_entry():
    fiber = {"weight": "1", "breakpoints": ["0", "1"], "densities": ["1"]}
    text = json.dumps(
        {"space": {"fibers": [fiber]}, "sets": {"A": [{"intervals": [["0", "1/0"]]}]}}
    )
    with pytest.raises(ScenarioError, match=r"^sets\.A\[0\]\.intervals\[0\]\[1\]: cannot parse"):
        parse_scenario(text)
    text = json.dumps({"space": {"fibers": [{**fiber, "breakpoints": ["0", 0.5, "1"]}]}})
    with pytest.raises(ScenarioError, match=r"^space\.fibers\[0\]\.breakpoints\[1\]: 0\.5 is"):
        parse_scenario(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("[" * 100000, "maximum recursion depth"),
        ('{"space": ' + "1" * 5000 + "}", "integer string conversion"),
    ],
)
def test_json_beyond_interpreter_limits_is_a_scenario_error(text, message):
    with pytest.raises(ScenarioError, match=f"^parse error: .*{message}"):
        parse_scenario(text)
