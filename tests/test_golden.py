"""Golden sha256 of every shipped report, to keep reports byte-identical.

Each entry runs one CLI command in-process with `--format json` and
hashes what it prints.  A change that alters a report on purpose
updates the hash here and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from mwl.cli import run
from mwl.registry import example_names

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SCENARIO_COMMANDS = {
    "addition-principal": "addition",
    "addition-z4": "addition",
    "cover-strictness": "biv-eval",
    "gen-product": "wl-axioms",
    "z2-shift": "mean",
}

GOLDEN = {
    "scenario:addition-principal": (0, "4285f216f5d6f8a286247da09fa92dcab4109b4cbbfb034c7e5e2a46c0c21bd8"),
    "scenario:addition-z4": (0, "2e2dfa13ea3dd3d77448847b2c8e2591818a43bc31b3009fb8cb17058a81bb5a"),
    "scenario:cover-strictness": (0, "16a5bbd7e73bc0bcc16275e04a2ebe95afac7bf6c580a77a25d66f17487ef07a"),
    "scenario:gen-product": (2, "560dc13bc9e2d173ba7735ecc3a56173d96e3735f6e2c8015e97b68912184364"),
    "scenario:z2-shift": (0, "06351ef86eee3c6e6cb1c8fb55129098324b9c422dbc6b33a906db66fa28df0a"),
    "example:addition-coeff-z4": (0, "26e92d2cc351a59b4f18819241d25e96229cb4561f80878a7e36fc48aa8e03e7"),
    "example:addition-principal-z2": (0, "8069a0b6ad52706f4b169bf06d3ce2edb9c5ec995afa200fc47959aa030e2419"),
    "example:quotient-action-zero": (0, "3f67d6d2cbdb1371626703e18b611b6c3878ae7e6d08735da4d57289d9d81aa8"),
    "example:scalar-range-bound": (0, "fca7030955537f765494382c291a297d4af1af29e44a7eaab56d58b7bfe004fd"),
    "example:scalar-range-log-k": (0, "823817b9fa9208b62876aaeb8314532aa3e24854de13663226e4240fd01fabb7"),
    "example:single-generator-zero": (0, "4682593da0c80388b8ad7f38d28e3d6a2a407f92db456683ee31419babecf13e"),
    "example:torsion-nonadditive": (0, "b2f5a88e58cdecd7fb2ed89b99add42356324227cff9d09a5043a0a428a97757"),
    "example:z2-vs-z3": (0, "225b89ebb4369c725b8dddc1c76693321da94c8471d018d653edc40fa26bab9d"),
    "biv-check": (0, "ed3ba2dcdf0f5ecf24fc0e6355e2d2b2ae2bfed624195d10741933da3c2826ea"),
}


def _argv(key):
    if key.startswith("scenario:"):
        name = key.split(":", 1)[1]
        return [SCENARIO_COMMANDS[name], "--scenario", str(SCENARIOS / f"{name}.json")]
    if key.startswith("example:"):
        return ["example", key.split(":", 1)[1]]
    return ["biv-check", "--budget", "100"]


def test_golden_covers_every_scenario_and_example():
    assert {p.stem for p in SCENARIOS.glob("*.json")} == set(SCENARIO_COMMANDS)
    assert {k.split(":", 1)[1] for k in GOLDEN if k.startswith("example:")} == set(example_names())


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_report_hash_unchanged(key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(_argv(key) + ["--format", "json"])
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == GOLDEN[key]
