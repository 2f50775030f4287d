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
    "scenario:addition-principal": (0, "74099abfacd70fed9767a01947004c83fcda489cee7fc299d521330102a632f2"),
    "scenario:addition-z4": (0, "d15b87a108ac866badbcc034ad4e0397064e8df9ee35a29acdce7e0b561268c9"),
    "scenario:cover-strictness": (0, "16a5bbd7e73bc0bcc16275e04a2ebe95afac7bf6c580a77a25d66f17487ef07a"),
    "scenario:gen-product": (2, "560dc13bc9e2d173ba7735ecc3a56173d96e3735f6e2c8015e97b68912184364"),
    "scenario:z2-shift": (0, "c4f030e4b424dcf2803486995f483655abb28b8ac5a0bc72b4a944659ccc6f8d"),
    "example:addition-coeff-z4": (0, "52b06cd67a5256c9d35ef7c77fd0f2e1295b6009ddbcf8920c2de7e6009547e7"),
    "example:addition-principal-z2": (0, "d06f6acdb3654f56e852af6e600ad494046293653e5ed58e0eea440d945f5c95"),
    "example:quotient-action-zero": (0, "3f67d6d2cbdb1371626703e18b611b6c3878ae7e6d08735da4d57289d9d81aa8"),
    "example:scalar-range-bound": (0, "1737bc40230ee712e2c3d4483fa92cc814f1652aa97a34f78b6030b65aabed2a"),
    "example:scalar-range-log-k": (0, "823817b9fa9208b62876aaeb8314532aa3e24854de13663226e4240fd01fabb7"),
    "example:single-generator-zero": (0, "4682593da0c80388b8ad7f38d28e3d6a2a407f92db456683ee31419babecf13e"),
    "example:torsion-nonadditive": (0, "b2f5a88e58cdecd7fb2ed89b99add42356324227cff9d09a5043a0a428a97757"),
    "example:z2-vs-z3": (0, "931c14030273d8fdcdabc00b426d1590b9166dd22fc76094c0502435fdec4815"),
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
