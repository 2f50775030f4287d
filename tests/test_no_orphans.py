"""Every top-level function and class of mwl, and every method of its
top-level classes, has a caller in src/.

A definition that only tests reach is dead weight: the guard reads each
module of src/mwl (not __init__.py, whose lines are all imports) and
fails on any top-level name, or non-dunder method name of a top-level
class, that no code under src/ mentions outside its own definition.
Import lines do not count, since they hold no Name nodes.  Names that a
traced benchmark span wraps (perfbench/spans.py) are allowed, because the
span keeps them callable, and so is cli._Parser.error, which argparse
calls.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mwl"
SPANS_FILE = ROOT / "perfbench" / "spans.py"


def _span_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {f"{module.removeprefix('mwl.')}.{attr}" for module, attr in spans.SPANS.values()}


def _orphans():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = [(stem, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
            for stem, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    orphans = []
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        for qualname, node in _definitions(tree):
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (where == stem and line in inside)
                       for where, line, name in uses):
                orphans.append(f"{stem}.{qualname}")
    return orphans


def _definitions(tree):
    """(qualified name, node) of each top-level function and class and of
    each non-dunder method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                    yield f"{node.name}.{method.name}", method


def test_every_definition_has_a_caller_in_src():
    allowed = _span_names() | {"cli._Parser.error"}
    assert [name for name in _orphans() if name not in allowed] == []
