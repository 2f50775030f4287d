"""Mutated shipped scenarios end in a report or one `error:` line.

Hypothesis takes each `scenarios/*.json` and changes it once: it deletes
a key, adds a key, or replaces one value anywhere in the tree (the whole
document included) with small arbitrary JSON.  The mutant runs in
process through the CLI with small budgets; no exception may escape, the
exit code is 0, 1 or 2, and exit 1 comes with a single `error:` line.
Derandomized and without an example database, so every run draws the
same mutants and writes nothing.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mwl.cli import run
from test_golden import SCENARIO_COMMANDS, SCENARIOS

SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(0, 12) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=8)
# an unknown key, and optional keys that some objects take and others do not
ADDED_KEYS = ("x-extra", "seed", "budget", "quotient", "p", "k", "base", "n_max")


def _nodes(value, path=()):
    yield path, value
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _mutate(draw, scenario):
    path, node = draw(st.sampled_from(list(_nodes(scenario))))
    ops = ["replace"] + (["add"] if isinstance(node, dict) else []) + (
        ["delete"] if isinstance(node, dict) and node else [])
    op = draw(st.sampled_from(ops))
    if op == "replace":
        new = draw(SMALL_JSON)
        if not path:
            return new
        mutant = copy.deepcopy(scenario)
        parent = mutant
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = new
        return mutant
    mutant = copy.deepcopy(scenario)
    target = mutant
    for key in path:
        target = target[key]
    if op == "add":
        target[draw(st.sampled_from(ADDED_KEYS))] = draw(SMALL_JSON)
    else:
        del target[draw(st.sampled_from(sorted(target)))]
    return mutant


@pytest.mark.parametrize("name", sorted(SCENARIO_COMMANDS))
@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_scenario_exits_cleanly(name, data):
    scenario = json.loads((SCENARIOS / f"{name}.json").read_text())
    mutant = _mutate(data.draw, scenario)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(mutant))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([SCENARIO_COMMANDS[name], "--scenario", str(path), "--format", "json",
                        "--budget", "2", "--n-max", "3"])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
