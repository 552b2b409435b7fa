import contextlib
import copy
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condatom.cli import (
    COMMANDS,
    MAX_CHAIN,
    MAX_DEPTH,
    MAX_GRID,
    MAX_INSTANCES,
    build_parser,
    main,
    run,
)
from condatom.generate import generate_scenario
from condatom.scenario import parse_scenario, serialize_scenario

LEBESGUE_SCENARIO = json.dumps(
    {
        "space": {"fibers": [{"weight": "1", "breakpoints": ["0", "1"], "densities": ["1"]}]},
        "sets": {"A": [{"intervals": [["1/2", "1"]], "picks": []}]},
        "h": ["1/2"],
    }
)

ATOM_SCENARIO = json.dumps(
    {
        "space": {
            "fibers": [
                {
                    "weight": "1",
                    "breakpoints": ["0", "1/2", "1"],
                    "densities": ["1", "0"],
                    "atoms": [{"location": "1/2", "weight": "1/2"}],
                }
            ]
        }
    }
)


def invoke(args):
    return subprocess.run(
        [sys.executable, "-m", "condatom.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(LEBESGUE_SCENARIO)
    return path


class TestRunDispatch:
    def test_check_atomless(self):
        data = run("check", parse_scenario(LEBESGUE_SCENARIO))
        assert data["verdict"] == "atomless"
        assert data["status"] == "pass"

    def test_check_with_atom_still_passes_its_checks(self):
        data = run("check", parse_scenario(ATOM_SCENARIO))
        assert data["verdict"] == "atom"
        assert data["witness"]["location"] == "1/2"
        assert data["status"] == "pass"  # the verdict is data, not a failure

    def test_split_emits_half_interval(self):
        data = run("split", parse_scenario(LEBESGUE_SCENARIO))
        # the default C is the whole space, h = 1/2
        assert data["result"] == [{"intervals": [["0", "1/2"]], "picks": []}]
        assert data["checks"] == {"subset": True, "exact-proportion": True}

    def test_scan_reports_level(self):
        data = run("scan", parse_scenario(LEBESGUE_SCENARIO))
        assert data["level"] == "3/4"
        assert data["fibers"] == [0]
        assert data["status"] == "pass"

    def test_family_and_uniform(self):
        sc = parse_scenario(LEBESGUE_SCENARIO)
        fam = run("family", sc, depth=2)
        assert fam["checks"] == {"exact-levels": True, "nested": True}
        assert fam["levels"]["1/2"] == [{"intervals": [["0", "1/2"]], "picks": []}]
        uni = run("uniform", sc, count=16)
        assert uni["checks"]["level-masses-exact"] is True

    def test_densities_requires_measures(self):
        from condatom.cli import InputError

        with pytest.raises(InputError, match="measures"):
            run("densities", parse_scenario(LEBESGUE_SCENARIO))

    def test_selftest_small(self):
        data = run("selftest", None, seed=7, count=2)
        assert data["status"] == "pass"
        assert len(data["criteria"]) == 9


class TestCommandLine:
    def test_check_exit_zero(self, scenario_file):
        res = invoke(["check", "--scenario", str(scenario_file)])
        assert res.returncode == 0
        assert json.loads(res.stdout)["verdict"] == "atomless"

    def test_missing_scenario_is_input_error(self):
        res = invoke(["check"])
        assert res.returncode == 2
        assert "needs --scenario" in res.stderr

    def test_invalid_scenario_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"space": {"fibers": []}}')
        res = invoke(["check", "--scenario", str(bad)])
        assert res.returncode == 2
        assert "at least one fiber" in res.stderr

    def test_atom_obstruction_is_input_error(self, tmp_path):
        path = tmp_path / "atom.json"
        path.write_text(ATOM_SCENARIO)
        res = invoke(["family", "--scenario", str(path), "--depth", "1"])
        assert res.returncode == 2
        assert "point mass" in res.stderr

    def test_out_file_and_byte_determinism(self, scenario_file, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            res = invoke(["split", "--scenario", str(scenario_file), "--out", str(out)])
            assert res.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_out_into_a_missing_directory_is_input_error(self, scenario_file, tmp_path):
        out = tmp_path / "missing" / "r.json"
        res = invoke(["check", "--scenario", str(scenario_file), "--out", str(out)])
        assert res.returncode == 2
        assert res.stderr.startswith("condatom: [Errno 2] No such file or directory")
        assert "Traceback" not in res.stderr
        assert res.stdout == ""
        assert not out.parent.exists()

    def test_out_at_a_directory_is_input_error(self, scenario_file, tmp_path):
        res = invoke(["check", "--scenario", str(scenario_file), "--out", str(tmp_path)])
        assert res.returncode == 2
        assert res.stderr.startswith("condatom: [Errno 21] Is a directory")
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    def test_out_file_holds_the_stdout_bytes(self, scenario_file, tmp_path, capsys):
        assert main(["check", "--scenario", str(scenario_file)]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "r.json"
        assert main(["check", "--scenario", str(scenario_file), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == printed

    def test_selftest_reports_are_byte_identical(self, tmp_path):
        runs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            res = invoke(["selftest", "--seed", "11", "--count", "2", "--out", str(out)])
            assert res.returncode == 0
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]


def test_main_returns_exit_code(scenario_file, capsys):
    assert main(["check", "--scenario", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["status"] == "pass"


UNIFORM_FIBER = {"weight": "1/2", "breakpoints": ["0", "1"], "densities": ["1"]}
TWO_UNIFORM = {"space": {"fibers": [UNIFORM_FIBER, UNIFORM_FIBER]}}


class TestInputErrors:
    """Bad inputs exit 2 with a message, never a traceback or a vacuous pass."""

    @staticmethod
    def main_on(tmp_path, body, argv):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(body))
        return main([argv[0], "--scenario", str(path), *argv[1:]])

    def test_shrink_on_zero_mass_slice(self, tmp_path, capsys):
        body = {**TWO_UNIFORM, "sets": {"C": [{"intervals": [["0", "1/2"]]}, {"intervals": []}]}}
        assert self.main_on(tmp_path, body, ["shrink"]) == 2
        assert "fiber 1 has zero slice mass" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params,argv",
        [
            ({"depth": "3"}, ["family"]),
            ({"depth": True}, ["family"]),
            ({"n": "x"}, ["shrink"]),
            ({"count": "64"}, ["uniform"]),
            ({}, ["uniform", "--count", "-3"]),
            ({}, ["uniform", "--count", "0"]),
            ({}, ["family", "--depth", "-1"]),
        ],
    )
    def test_mistyped_or_out_of_range_integer(self, tmp_path, capsys, params, argv):
        assert self.main_on(tmp_path, {**TWO_UNIFORM, "params": params}, argv) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_selftest_count_zero(self, capsys):
        assert main(["selftest", "--count", "0"]) == 2
        assert "--count must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params,argv",
        [
            ({"depth": MAX_DEPTH + 1}, ["family"]),
            ({}, ["family", "--depth", str(MAX_DEPTH + 1)]),
            ({"count": MAX_GRID + 1}, ["uniform"]),
            ({}, ["uniform", "--count", str(MAX_GRID + 1)]),
            ({"n": MAX_CHAIN + 1}, ["shrink"]),
            ({}, ["shrink", "--count", str(MAX_CHAIN + 1)]),
        ],
    )
    def test_caps_reject_one_past(self, tmp_path, capsys, params, argv):
        assert self.main_on(tmp_path, {**TWO_UNIFORM, "params": params}, argv) == 2
        assert "above the cap" in capsys.readouterr().err

    def test_selftest_count_cap_rejects_one_past(self, capsys):
        assert main(["selftest", "--count", str(MAX_INSTANCES + 1)]) == 2
        assert "above the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("fibers", [["x"], "0", "x", True, [True], [2], [-1]])
    def test_mistyped_or_out_of_range_fibers(self, tmp_path, capsys, fibers):
        body = {**TWO_UNIFORM, "params": {"fibers": fibers}}
        assert self.main_on(tmp_path, body, ["shrink"]) == 2
        assert "params.fibers must be a list of fiber indices" in capsys.readouterr().err

    def test_fibers_in_range_are_honoured(self, tmp_path, capsys):
        body = {**TWO_UNIFORM, "params": {"fibers": [1, 1], "n": 2}}
        assert self.main_on(tmp_path, body, ["shrink"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fibers"] == [1]
        assert report["conditional"][-1] == ["1", "1/4"]
        # no designated fiber: every step keeps C
        body["params"]["fibers"] = []
        assert self.main_on(tmp_path, body, ["shrink"]) == 0
        assert json.loads(capsys.readouterr().out)["conditional"][-1] == ["1", "1"]

    @pytest.mark.parametrize("name", [["A"], 1, True, None])
    @pytest.mark.parametrize("command", ["split", "shrink", "scan"])
    def test_set_name_must_be_a_string(self, tmp_path, capsys, command, name):
        body = {
            **TWO_UNIFORM,
            "sets": {"A": [{"intervals": [["0", "1/2"]]}, {"intervals": [["1/2", "1"]]}]},
            "h": ["1/2", "1/2"],
            "params": {"set": name},
        }
        assert self.main_on(tmp_path, body, [command]) == 2
        assert "params.set must be a set name" in capsys.readouterr().err

    def test_depth_zero_is_honoured(self, tmp_path, capsys):
        assert self.main_on(tmp_path, TWO_UNIFORM, ["family", "--depth", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["depth"] == 0
        assert sorted(report["levels"]) == ["0", "1"]

    def test_non_utf8_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["check", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err.startswith("condatom: 'utf-8' codec can't decode")

    def test_deeply_nested_scenario(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text("[" * 100000)
        assert main(["check", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err.startswith("condatom: parse error: maximum recursion")

    def test_flag_overrides_params(self, tmp_path, capsys):
        body = {**TWO_UNIFORM, "params": {"depth": "3", "count": 2}}
        assert self.main_on(tmp_path, body, ["family", "--depth", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["depth"] == 1
        assert self.main_on(tmp_path, body, ["uniform"]) == 0
        assert json.loads(capsys.readouterr().out)["grid"] == 2


class TestRepeatedMain:
    """main builds its parser once per process and can be called again."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_no_value_leaks_between_calls(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        for params, depth in (({}, 3), ({"depth": 2}, 2)):
            path.write_text(json.dumps({**TWO_UNIFORM, "params": params}))
            assert main(["family", "--scenario", str(path), "--depth", "0"]) == 0
            assert json.loads(capsys.readouterr().out)["depth"] == 0
            assert main(["family", "--scenario", str(path)]) == 0
            assert json.loads(capsys.readouterr().out)["depth"] == depth

    def test_unknown_command_exits_2_every_time(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as stop:
                main(["nonsense"])
            assert stop.value.code == 2
            assert "invalid choice: 'nonsense'" in capsys.readouterr().err


CAPS = {"depth": MAX_DEPTH, "count": MAX_GRID, "n": MAX_CHAIN}
SWAPS = ("x", "1/2", 3, 1.5, None, True, [], {}, ["0", "1/2"], {"x": 1})


def _slots(node, out):
    """Every (container, key) position in a JSON tree, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


@st.composite
def mutated_scenarios(draw):
    """A serialized generate_scenario scenario with one to three
    mutations: a key or list item dropped, a value swapped for one of
    another type, a negative int, or a params key one past its cap."""
    body = json.loads(serialize_scenario(generate_scenario(random.Random(draw(st.integers(0, 999))))))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("drop", "swap", "negative", "cap")))
        if kind == "cap":
            key = draw(st.sampled_from(sorted(CAPS)))
            if not isinstance(body.get("params"), dict):
                body["params"] = {}
            body["params"][key] = CAPS[key] + 1
            continue
        slots = _slots(body, [])
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        if kind == "drop":
            del node[key]
        elif kind == "swap":
            node[key] = copy.deepcopy(draw(st.sampled_from(SWAPS)))
        else:
            node[key] = -draw(st.integers(1, 2**64))
    return body


@settings(max_examples=200, deadline=None)
@given(mutated_scenarios(), st.sampled_from(sorted(set(COMMANDS) - {"selftest"})))
def test_mutated_scenarios_keep_the_exit_code_contract(tmp_path_factory, body, command):
    """A mutated scenario either runs (0 or 1) or exits 2 with a message;
    it never raises out of main."""
    path = tmp_path_factory.mktemp("mutated") / "scenario.json"
    path.write_text(json.dumps(body))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--scenario", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("condatom: ")
    else:
        assert json.loads(out.getvalue())["command"] == command


GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = sorted(p for p in GOLDEN.glob("*.json") if not p.name.endswith(".expected.json"))
# the cap of each resource flag on the commands that read it; every other
# command refuses the flag with exit 2, and is given it at the largest cap
FLAG_CAPS = {
    "count": {"shrink": MAX_CHAIN, "uniform": MAX_GRID, "selftest": MAX_INSTANCES},
    "depth": {"family": MAX_DEPTH},
}


def _flag_cases():
    """(command, flag, value) for every command and resource flag at 0,
    its cap and one past it, except selftest at its --count cap, which is
    a full 1,000-instance run."""
    cases = []
    for command in sorted(COMMANDS):
        for flag, caps in FLAG_CAPS.items():
            cap = caps.get(command, max(caps.values()))
            cases += [
                (command, flag, value)
                for value in (0, cap, cap + 1)
                if (command, flag, value) != ("selftest", "count", MAX_INSTANCES)
            ]
    return cases


def _contract_main(argv):
    """main's exit code, or 2 when argparse stops it with SystemExit(2);
    anything else raised fails the test. A report on stdout must be JSON
    for the command run, a code of 2 must come with a message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            assert stop.code == 2
            return 2
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("condatom: ")
    else:
        assert json.loads(out.getvalue())["command"] == argv[0]
    return code


class TestCommandLineContract:
    """Every command keeps the exit-code contract (0 pass, 1 a check
    failed, 2 input error) on a bad --scenario path and on --count and
    --depth at their edges, over the golden scenario corpus; a command
    given a flag it does not read exits 2."""

    def test_corpus_is_found(self):
        assert len(SCENARIOS) == 5

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_scenario_at_a_directory_or_a_missing_path(self, tmp_path, command):
        for path in (tmp_path, tmp_path / "missing.json"):
            assert _contract_main([command, "--scenario", str(path)]) == 2

    @pytest.mark.parametrize("command,flag,value", _flag_cases())
    def test_resource_flag_at_its_edges(self, command, flag, value):
        scenarios = SCENARIOS if command != "selftest" else [None]
        for path in scenarios:
            argv = [command, f"--{flag}", str(value)]
            code = _contract_main(argv + (["--scenario", str(path)] if path else []))
            cap = FLAG_CAPS[flag].get(command)
            if cap is None or value > cap:
                assert code == 2
            elif value == cap and path is not None and path.name == "readme-no-atom.json":
                assert code == 0

    @pytest.mark.parametrize("command", sorted(set(COMMANDS) - {"selftest"}))
    def test_seed_is_refused_by_every_scenario_command(self, command):
        for path in SCENARIOS:
            assert _contract_main([command, "--seed", "4", "--scenario", str(path)]) == 2

    def test_an_unread_flag_is_named(self, capsys):
        readme = str(GOLDEN / "readme.json")
        argv = ["check", "--depth", "13", "--count", "99999", "--seed", "4", "--scenario", readme]
        assert main(argv) == 2
        assert capsys.readouterr().err == "condatom: check does not take --seed\n"
        assert main(["selftest", "--depth", "5"]) == 2
        assert capsys.readouterr().err == "condatom: selftest does not take --depth\n"
