import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mwl
from mwl import cli
from mwl.cli import run
from test_golden import GOLDEN, SCENARIO_COMMANDS

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def json_part(out: str) -> dict:
    # the JSON document comes first in "both" mode; find its end brace
    depth = 0
    for i, ch in enumerate(out):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return json.loads(out[: i + 1])
    raise AssertionError("no JSON document in output")


def test_mean_z2_shift(capsys):
    code, out = invoke(capsys, "mean", "--scenario", str(SCENARIOS / "z2-shift.json"))
    assert code == 0
    report = json_part(out)
    rows = report["result"]["rows"]
    assert [r["count_or_value"]["count"] for r in rows] == [2 ** n for n in range(1, 13)]
    assert report["result"]["flags"]["constant_exact"]
    assert "log 4096" in out  # the aligned table rendering


def test_wl_axioms_gen_product_exit_2(capsys):
    code, out = invoke(capsys, "wl-axioms", "--scenario",
                       str(SCENARIOS / "gen-product.json"))
    assert code == 2
    report = json_part(out)
    check = report["result"]["checks"][0]
    assert check["axiom"] == "product" and not check["passed"]
    assert check["counterexample"]["g1"] == "C2"


def test_wl_axioms_log_card_pass(capsys, tmp_path):
    scenario = tmp_path / "log-axioms.json"
    scenario.write_text(json.dumps(
        {"weak_length": {"kind": "log_card"}, "axioms": "all", "budget": 40}))
    code, out = invoke(capsys, "wl-axioms", "--scenario", str(scenario))
    assert code == 0
    report = json_part(out)
    assert all(c["passed"] for c in report["result"]["checks"])
    assert len(report["result"]["checks"]) == 8


def test_biv_eval_strictness(capsys):
    code, out = invoke(capsys, "biv-eval", "--scenario",
                       str(SCENARIOS / "cover-strictness.json"))
    assert code == 0
    report = json_part(out)
    assert report["result"]["value"] == {"kind": "log", "count": 2}


def test_biv_check(capsys, tmp_path):
    scenario = tmp_path / "biv.json"
    scenario.write_text(json.dumps({"bivariant": {"kind": "cover_log"}, "budget": 20}))
    code, out = invoke(capsys, "biv-check", "--scenario", str(scenario))
    assert code == 0


@pytest.mark.parametrize("seed", [
    5643403147495439306,  # a product instance with product log 3 < split log 4
    4148626438543837940,  # a product instance with 81 cover candidates
])
def test_biv_check_cover_log_pinned_seeds(capsys, seed):
    code, out = invoke(capsys, "biv-check", "--budget", "50", "--seed", str(seed),
                       "--format", "json")
    assert code == 0
    assert json_part(out)["result"] == {"checked": 50, "passed": True,
                                        "spec": {"kind": "cover_log"}}


def test_addition_report_cli(capsys):
    code, out = invoke(capsys, "addition", "--scenario",
                       str(SCENARIOS / "addition-z4.json"))
    assert code == 0
    report = json_part(out)
    assert report["result"]["verdict"] == "EXACT-EQUAL"


def test_addition_principal_cli(capsys):
    code, out = invoke(capsys, "addition", "--scenario",
                       str(SCENARIOS / "addition-principal.json"))
    assert code == 0
    report = json_part(out)
    assert report["result"]["verdict"] == "EXACT-EQUAL"
    quotient = report["result"]["quotient"]
    assert quotient["limit"]["certificate"] == "finite-module"
    assert max(r["count_or_value"]["count"] for r in quotient["rows"]) == 8


def test_example_and_list(capsys):
    code, out = invoke(capsys, "list-examples")
    assert code == 0
    names = json_part(out)["result"]["examples"]
    assert "z2-vs-z3" in names

    code2, out2 = invoke(capsys, "example", "z2-vs-z3")
    assert code2 == 0
    assert json_part(out2)["result"]["passed"]


def test_unknown_example_exits_1(capsys):
    code = run(["example", "definitely-not-known"])
    err = capsys.readouterr().err
    assert code == 1
    assert "unknown example" in err


def test_malformed_json_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"weak_length": {')
    code = run(["wl-axioms", "--scenario", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line" in err and "column" in err


# the interpreter's default int <-> str limit is 4300 digits
def test_scenario_integer_past_4300_digits(capsys, tmp_path):
    scenario = tmp_path / "big.json"
    scenario.write_text('{"group": {"free_rank": 1}, "weak_length": {"kind": "log_card"}, '
                        '"set": [[0], [1' + "0" * 5000 + ']]}')
    code, out = invoke(capsys, "wl-eval", "--scenario", str(scenario))
    assert code == 0
    assert json_part(out)["result"]["value"] == {"kind": "log", "count": 2}


def test_mean_rows_past_4300_digits(capsys, tmp_path):
    # {0, delta} over C2 under Z^2: product-structure rows 2^(n^2), 4335 digits at n = 120
    scenario = {"module": {"group": {"free_rank": 2}, "coeff": {"torsion": [2]}},
                "weak_length": {"kind": "log_card"}, "witness": [[], [[[0, 0], [1]]]]}
    code, out = invoke(capsys, "mean", "--scenario", write_scenario(tmp_path, scenario),
                       "--n-max", "120")
    assert code == 0
    result = json_part(out)["result"]
    assert result["rows"][-1]["count_or_value"]["count"] == 2 ** (120 * 120)
    assert result["limit"]["exact"]
    assert f"log {2 ** (120 * 120)}" in out


def test_wl_eval(capsys, tmp_path):
    scenario = tmp_path / "eval.json"
    scenario.write_text(json.dumps({
        "group": {"free_rank": 0, "torsion": [2, 6]},
        "weak_length": {"kind": "gen"},
        "set": [[1, 0], [0, 1], [1, 1]],
    }))
    code, out = invoke(capsys, "wl-eval", "--scenario", str(scenario))
    assert code == 0
    value = json_part(out)["result"]["value"]
    assert value == {"kind": "rational", "num": 2, "den": 1}


def test_report_determinism_and_out_file(capsys, tmp_path):
    args = ["mean", "--scenario", str(SCENARIOS / "z2-shift.json"),
            "--out", str(tmp_path / "r.json")]
    code1, out1 = invoke(capsys, *args)
    first_file = (tmp_path / "r.json").read_bytes()
    code2, out2 = invoke(capsys, *args)
    second_file = (tmp_path / "r.json").read_bytes()
    assert (code1, out1) == (code2, out2)
    assert first_file == second_file
    # report round-trips as JSON and carries the command echo
    report = json.loads(first_file)
    assert report["command"] == "mean" and report["exit_code"] == 0


def test_json_only_format(capsys):
    code, out = invoke(capsys, "list-examples", "--format", "json")
    assert code == 0
    json.loads(out)  # the whole stdout is one JSON document


@pytest.mark.parametrize("argv", [
    ["wl-eval", "--scenario", str(SCENARIOS / "large-prime-order.json")],
    ["wl-axioms", "--scenario", str(SCENARIOS / "gen-product.json")],
    ["biv-eval", "--scenario", str(SCENARIOS / "cover-strictness.json")],
    ["biv-check", "--scenario", str(SCENARIOS / "quotient-upgrading.json")],
    ["mean", "--scenario", str(SCENARIOS / "z2-shift.json")],
    ["addition", "--scenario", str(SCENARIOS / "addition-z4.json")],
    ["example", "z2-vs-z3"],
], ids=lambda argv: argv[0])
def test_both_format_is_json_then_table(capsys, argv):
    # the table is rendered only when printed; both prints exactly the two
    runs = {fmt: invoke(capsys, *argv, "--format", fmt) for fmt in ("json", "table", "both")}
    assert runs["both"][0] == runs["json"][0] == runs["table"][0]
    assert runs["both"][1] == runs["json"][1] + runs["table"][1]


def test_determinism_across_processes():
    # fresh interpreters with different hash seeds must agree byte for byte;
    # the children import the same mwl this process imported, whether or not
    # it is installed, and inherit nothing else from the environment
    argv = [sys.executable, "-m", "mwl.cli", "biv-check", "--budget", "15",
            "--format", "json"]
    pkg_root = str(Path(mwl.__file__).resolve().parent.parent)
    outs = []
    for seed in ("0", "12345"):
        env = {"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
               "PYTHONPATH": pkg_root}
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]



def write_scenario(tmp_path, scenario) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return str(path)


def c4_mean_scenario(witness, **module):
    return {"module": {"group": {"free_rank": 1, "torsion": []},
                       "coeff": {"free_rank": 0, "torsion": [4]}, **module},
            "weak_length": {"kind": "log_card"}, "witness": witness,
            "folner": {"kind": "boxes", "n_max": 6}}


def test_mean_coeff_subgroup_quotient(capsys, tmp_path):
    # C4 modulo <2>: witness coefficients are given in C4 and read in C2
    full = [[]] + [[[[0], [c]]] for c in (1, 2, 3)]
    scenario = c4_mean_scenario(
        full, quotient={"closure": "coeff_subgroup", "generators": [[2]]})
    code, out = invoke(capsys, "mean", "--scenario", write_scenario(tmp_path, scenario),
                       "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert [r["count_or_value"]["count"] for r in result["rows"]] == [2 ** n for n in range(1, 7)]
    assert result["limit"]["exact"]
    assert result["limit"]["ratio"] == {"kind": "log", "ratio_num": 2, "ratio_den": 1}


@pytest.mark.parametrize("argv", [
    ["biv-check", "--budget", "0"],
    ["wl-axioms", "--scenario", str(SCENARIOS / "gen-product.json"), "--budget", "0"],
    ["mean", "--scenario", str(SCENARIOS / "z2-shift.json"), "--n-max", "0"],
    ["addition", "--scenario", str(SCENARIOS / "addition-z4.json"), "--n-max", "-1"],
])
def test_counts_below_one_exit_1(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "positive integer" in captured.err


@pytest.mark.parametrize("witness", [
    [[[[0], [1, 5]]]],     # two coefficient coordinates in C4
    [[[[0, 0], [1]]]],     # two support coordinates in Z
])
def test_witness_coordinate_length_exits_1(capsys, tmp_path, witness):
    code = run(["mean", "--scenario", write_scenario(tmp_path, c4_mean_scenario(witness))])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and "coordinate length" in err


def test_module_group_must_be_divisibility_chain(capsys, tmp_path):
    scenario = c4_mean_scenario([[]])
    scenario["module"]["group"] = {"free_rank": 0, "torsion": [3, 2]}
    code = run(["mean", "--scenario", write_scenario(tmp_path, scenario)])
    err = capsys.readouterr().err
    assert code == 1 and "divisibility chain" in err


@pytest.mark.parametrize("quotient", [
    {"closure": "coeff_subgroup", "generators": [[1]]},
    {"closure": "principal_z", "p": 2, "generators": [[[[0], [1]], [[1], [1]]]]},
])
def test_addition_rejects_total_module_with_quotient(capsys, tmp_path, quotient):
    scenario = json.loads((SCENARIOS / "addition-principal.json").read_text())
    scenario["module"]["quotient"] = quotient
    code = run(["addition", "--scenario", write_scenario(tmp_path, scenario)])
    err = capsys.readouterr().err
    assert code == 1 and "plain shift module" in err


def _without_coeff():
    scenario = c4_mean_scenario([[]])
    del scenario["module"]["coeff"]
    return scenario


def _z_witness(witness):
    scenario = c4_mean_scenario(witness)
    scenario["module"]["coeff"] = {"free_rank": 1, "torsion": []}
    return scenario


def _shipped(name, **fields):
    return {**json.loads((SCENARIOS / f"{name}.json").read_text()), **fields}


def _principal_module_quotient(generators):
    scenario = _shipped("z2-shift")
    scenario["module"]["quotient"] = {"closure": "principal_z", "p": 2, "generators": generators}
    return scenario


def _folner_kind(kind):
    scenario = json.loads((SCENARIOS / "z2-shift.json").read_text())
    scenario["folner"]["kind"] = kind
    return scenario


@pytest.mark.parametrize("command, scenario, needle", [
    ("mean", _without_coeff(), "module.coeff: missing"),
    ("wl-eval", {"group": [1], "weak_length": {"kind": "log_card"}, "set": [[0]]},
     "group: must be a JSON object"),
    ("mean", _z_witness([[], [[["a"], [1]]]]), "coordinates must be integers"),
    ("mean", _z_witness([[], [[1, [1]]]]), "coordinates must be a list of integers"),
    ("mean", {**_z_witness([[]]), "module": {**_z_witness([[]])["module"],
              "action_target": {"free_rank": 1}, "action_hom": [[0.5]]}},
     "module.action_hom: must be a list of rows of integers"),
    ("mean", _folner_kind("balls"), "unknown folner kind 'balls'"),
    ("addition", {**json.loads((SCENARIOS / "addition-z4.json").read_text()),
                  "folner": {"kind": "balls", "n_max": 4}}, "unknown folner kind"),
    ("mean", _shipped("z2-shift", weak_length={}), "weak_length.kind: missing"),
    ("mean", _shipped("z2-shift", weak_length="log_card"), "weak_length: must be a JSON object"),
    ("mean", _shipped("z2-shift", weak_length={"kind": "tors_log", "k": "2"}),
     "weak_length.k: must be an integer"),
    ("mean", _shipped("z2-shift", witness=5), "witness: must be a JSON list"),
    ("mean", _shipped("z2-shift", witness=[[[[0]]]]),
     "witness[0]: an element must be a list of [support, coefficient] pairs"),
    ("mean", _principal_module_quotient(5), "module.quotient.generators: must be a JSON list"),
    ("addition", _shipped("addition-z4", submodule=5), "submodule: must be a JSON object"),
    ("addition", _shipped("addition-z4", witnesses=5), "witnesses: must be a JSON object"),
    ("biv-eval", _shipped("cover-strictness", bivariant={}), "bivariant.kind: missing"),
    ("biv-eval", _shipped("cover-strictness", bivariant={"kind": "quotient_length"}),
     "bivariant: quotient_length pairs with rank or nu"),
    ("biv-check", {"seed": "x"}, "seed: must be an integer"),
    ("wl-axioms", _shipped("gen-product", seed=1.5), "seed: must be an integer"),
    ("wl-axioms", _shipped("gen-product", axioms=5), 'axioms: must be "all" or a list'),
    ("wl-eval", {"group": {"free_rank": 1}, "weak_length": {"kind": "log_card"}, "set": 5},
     "set: must be a JSON list"),
    ("mean", _shipped("z2-shift", extra=1), "extra: unknown key"),
    ("wl-axioms", _shipped("gen-product", axioms=[]), "axioms: must name at least one axiom"),
    ("wl-axioms", _shipped("gen-product", axioms=[["product"]]),
     "axioms[0]: unknown axiom ['product']"),
    ("addition", _shipped("addition-z4", witnesses={
        "submodule": [[], [[[0], [1]]]], "total": [[]], "quotient": [[]]}),
     "error: witnesses.submodule[1]: leaves the submodule"),
])
def test_malformed_input_ends_in_one_error_line(tmp_path, command, scenario, needle):
    # a fresh interpreter, so that a traceback would reach stderr
    pkg_root = str(Path(mwl.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "mwl.cli", command, "--scenario",
         write_scenario(tmp_path, scenario)],
        capture_output=True, text=True,
        env={"PYTHONHASHSEED": "0", "PATH": "/usr/bin:/bin", "PYTHONPATH": pkg_root})
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert needle in proc.stderr


def _one_error_line(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("argv, needle", [
    (["mean", "--scenario", str(SCENARIOS / "z2-shift.json"), "--bogus", "1"],
     "unrecognized arguments: --bogus 1"),
    (["mean", "--scenario", str(SCENARIOS / "z2-shift.json"), "--n-max", "x"],
     "argument --n-max: invalid int value: 'x'"),
    (["mean"], "required: --scenario"),
    ([], "required: command"),
    (["no-such-command"], "invalid choice"),
    (["example", "z2-vs-z3", "--format", "yaml"], "argument --format: invalid choice"),
])
def test_usage_errors_exit_1_with_one_line(capsys, argv, needle):
    assert needle in _one_error_line(capsys, argv)


def test_parser_keeps_no_state_between_runs(capsys, tmp_path):
    # usage and input errors must leave the reports of later runs in the
    # same process byte-identical to the golden ones
    bad = tmp_path / "bad.json"
    bad.write_text('{"weak_length": {')
    z2_shift = str(SCENARIOS / "z2-shift.json")
    assert "unrecognized arguments: --bogus 1" in _one_error_line(
        capsys, ["mean", "--scenario", z2_shift, "--bogus", "1"])
    assert "argument --format: invalid choice" in _one_error_line(
        capsys, ["example", "z2-vs-z3", "--format", "yaml"])
    assert "line" in _one_error_line(capsys, ["mean", "--scenario", str(bad)])
    for name in ("z2-shift", "addition-z4"):
        code, out = invoke(capsys, SCENARIO_COMMANDS[name], "--scenario",
                           str(SCENARIOS / f"{name}.json"), "--format", "json")
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[f"scenario:{name}"]


def test_flag_without_value_exits_1(capsys):
    assert "argument --scenario: expected one argument" in _one_error_line(
        capsys, ["mean", "--scenario"])
    assert "argument --scenario: expected one argument" in _one_error_line(
        capsys, ["mean", "--scenario", "--n-max", "3"])


def test_ambiguous_prefix_exits_1(capsys):
    assert "ambiguous option: --s could match --scenario, --seed" in _one_error_line(
        capsys, ["biv-check", "--s", "5"])


def _parsed(monkeypatch, argv):
    """The namespace that run hands to the subcommand's handler."""
    seen = []

    def handler(args):
        seen.append(vars(args))
        return 0, {}, list

    monkeypatch.setitem(cli._COMMANDS, argv[0], (handler, cli._COMMANDS[argv[0]][1]))
    assert run(argv + ["--format", "json"]) == 0
    return seen[0]


def test_flag_value_forms(monkeypatch):
    assert _parsed(monkeypatch, ["biv-check", "--budget=3"])["budget"] == 3
    args = _parsed(monkeypatch, ["wl-axioms", "--scenario", "s.json", "--seed", "-5"])
    assert args["seed"] == -5
    assert _parsed(monkeypatch, ["wl-axioms", "--scenario=s.json", "--seed=-5"]) == {
        "command": "wl-axioms", "help": False, "scenario": "s.json", "seed": -5,
        "budget": None, "format": "json", "out": None}
    assert _parsed(monkeypatch, ["example", "-5"])["name"] == "-5"


def test_unique_prefixes_name_their_flag(monkeypatch):
    assert _parsed(monkeypatch, ["mean", "--scen", "s.json", "--n", "4"]) == {
        "command": "mean", "help": False, "scenario": "s.json", "n_max": 4,
        "format": "json", "out": None}


def test_flag_given_twice_keeps_its_last_value(monkeypatch):
    args = _parsed(monkeypatch, ["mean", "--scenario", "a", "--n-max", "2",
                                 "--scenario", "b", "--n-max=5"])
    assert (args["scenario"], args["n_max"]) == ("b", 5)


def test_seed_minus_5_reaches_the_report(capsys):
    code, out = invoke(capsys, "wl-axioms", "--scenario", str(SCENARIOS / "gen-product.json"),
                       "--seed", "-5", "--format", "json")
    assert code == 2 and json.loads(out)["result"]["seed"] == -5


def _flags(specs):
    return [spec.strip("[]").split()[0] for spec in specs]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["mean", "-h"]]
                         + [[name, "--help"] for name in cli._COMMANDS])
def test_help_prints_usage_and_exits_0(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == "" and captured.out.startswith("usage: mwl")
    names = argv[:1] if argv[0] in cli._COMMANDS else list(cli._COMMANDS)
    for name in names:
        assert name in captured.out
        for flag in _flags(cli._COMMANDS[name][1] + cli._COMMON):
            assert flag in captured.out, (name, flag)


def test_help_stops_reading_the_command_line(capsys):
    # as in argparse: flags before -h are read, the rest is not
    assert run(["mean", "--bogus", "-h", "--n-max", "x"]) == 0
    assert capsys.readouterr().out.startswith("usage: mwl mean ")
    assert "invalid int value" in _one_error_line(capsys, ["mean", "--n-max", "x", "-h"])


def test_readme_flag_table_is_the_parser_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| subcommand | flags |"):].split("\n\n")[0].splitlines()[2:]
    documented = {}
    for row in table:
        names, flags = [cell.strip() for cell in row.strip("|").split("|")]
        specs = () if flags == "none" else tuple(f.strip("` ") for f in flags.split(","))
        for name in names.split(","):
            documented[name.strip("` ")] = specs
    assert documented == {name: specs for name, (_, specs) in cli._COMMANDS.items()}
    assert all(spec.strip("[]") in readme for spec in cli._COMMON)


def test_importing_the_cli_loads_no_argparse():
    pkg_root = str(Path(mwl.__file__).resolve().parent.parent)
    code = "import sys, mwl.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pkg_root})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_order_factor_past_the_miller_rabin_bound_exits_1(capsys, tmp_path):
    # C_(2^89 - 1): a prime order past the bound ends at once, not in trial division
    scenario = {"group": {"free_rank": 0, "torsion": [2 ** 89 - 1]},
                "weak_length": {"kind": "nu"}, "set": [[1]]}
    t0 = time.perf_counter()
    err = _one_error_line(capsys, ["wl-eval", "--scenario", write_scenario(tmp_path, scenario)])
    assert time.perf_counter() - t0 < 0.5
    assert err.startswith("error: order factor 618970019642690137449562111 ")
    assert "3317044064679887385961981" in err


@pytest.mark.parametrize("argv", [
    ["wl-eval", "--scenario", str(SCENARIOS / "cover-strictness.json"), "--seed", "5"],
    ["wl-axioms", "--scenario", str(SCENARIOS / "gen-product.json"), "--n-max", "3"],
    ["biv-eval", "--scenario", str(SCENARIOS / "cover-strictness.json"), "--budget", "3"],
    ["biv-check", "--n-max", "3"],
    ["mean", "--scenario", str(SCENARIOS / "z2-shift.json"), "--budget", "0", "--seed", "5"],
    ["addition", "--scenario", str(SCENARIOS / "addition-z4.json"), "--seed", "5"],
    ["example", "z2-vs-z3", "--budget", "3"],
    ["list-examples", "--n-max", "3"],
], ids=lambda argv: argv[0])
def test_each_subcommand_rejects_flags_it_does_not_read(capsys, argv):
    assert "unrecognized arguments" in _one_error_line(capsys, argv)


def test_unwritable_out_path_exits_1(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "x.json"
    err = _one_error_line(capsys, ["mean", "--scenario", str(SCENARIOS / "z2-shift.json"),
                                   "--out", str(target)])
    assert err.startswith(f"error: --out: cannot write {target}")
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["mean", "--n-max", "100000"],
    ["addition", "--scenario", str(SCENARIOS / "addition-z4.json"), "--n-max", "1001"],
    ["example", "z2-vs-z3", "--n-max", "100000"],
], ids=lambda argv: argv[0])
def test_n_max_above_the_limit_exits_1(capsys, tmp_path, argv):
    if argv[0] == "mean":
        # {0, delta_0, delta_1} over C4: sofic rows, never truncated
        witness = [[], [[[0], [1]]], [[[1], [1]]]]
        argv = argv + ["--scenario", write_scenario(tmp_path, c4_mean_scenario(witness))]
    assert "n_max must lie in 1..1000" in _one_error_line(capsys, argv)


@pytest.mark.parametrize("kind", ["rank", "nu"])
def test_addition_principal_under_span_lengths(capsys, tmp_path, kind):
    # the finite quotient's limit is the zero of the table's rational kind
    scenario = _shipped("addition-principal", weak_length={"kind": kind})
    scenario["folner"]["n_max"] = 4
    code, out = invoke(capsys, "addition", "--scenario", write_scenario(tmp_path, scenario))
    assert code == 0
    result = json_part(out)["result"]
    assert result["verdict"] == "EXACT-EQUAL"
    assert result["quotient"]["limit"]["certificate"] == "finite-module"


def test_reader_closing_stdout_early_ends_quietly():
    # 548 KB of output; the reader takes one line and closes the pipe
    pkg_root = str(Path(mwl.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "mwl.cli", "mean", "--scenario",
         str(SCENARIOS / "z2-shift.json"), "--n-max", "1000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={"PYTHONHASHSEED": "0", "PATH": "/usr/bin:/bin", "PYTHONPATH": pkg_root})
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_mean_witness_without_torsion_exits_1(capsys, tmp_path):
    # {delta_0, 3 delta_2} over C4 meets no 2-torsion in any orbit sum
    scenario = {**c4_mean_scenario([[[[0], [1]]], [[[2], [3]]]]),
                "weak_length": {"kind": "tors_log", "k": 2}}
    err = _one_error_line(capsys, ["mean", "--scenario", write_scenario(tmp_path, scenario)])
    assert err == "error: set meets no 2-torsion; the torsion length is undefined here\n"
