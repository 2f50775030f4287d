"""Scenario files: the only reader of scenario JSON.

Each subcommand's reader turns every field of one file into the
library's own objects (FinAbGroup, ShiftModule, FiniteSubset, specs,
FolnerBoxes, positive counts).  An unknown key is an error, and every
error is a ConfigurationError that starts with the field's JSON path
(`module.coeff: missing`).  Values are checked once, by the library's
constructors; `_call` prefixes their errors with the path.
"""

from __future__ import annotations

import json

from .bivariant import COVER_LOG, BivariantSpec
from .errors import ConfigurationError, DomainError
from .finabelian import AbHom, FinAbGroup
from .groupring import ShiftModule, coeff_quotient, principal_quotient
from .meanlen import FolnerBoxes, default_n_max
from .subsets import FiniteSubset
from .weaklength import AXIOMS, WeakLengthSpec

DEFAULT_SEED = 20260810
DEFAULT_BUDGET = 200            # wl-axioms samples per axiom
DEFAULT_UPGRADING_BUDGET = 100  # biv-check instances
WITNESS_KEYS = ("submodule", "total", "quotient")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _call(path: str, fn, *args):
    """fn(*args), with a DomainError or ConfigurationError it raises
    re-raised as a ConfigurationError prefixed by the JSON path."""
    try:
        return fn(*args)
    except (DomainError, ConfigurationError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _object(data, path: str, required, optional=()) -> dict:
    """data as a JSON object with every required key and no other keys
    than the required and optional ones."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path or 'scenario'}: must be a JSON object, got {data!r}")
    for key in data:
        if key not in required and key not in optional:
            raise ConfigurationError(f"{_join(path, key)}: unknown key; expected one of "
                                     f"{', '.join(required + optional)}")
    for key in required:
        if key not in data:
            raise ConfigurationError(f"{_join(path, key)}: missing")
    return data


def _list(data, path: str) -> list:
    if not isinstance(data, list):
        raise ConfigurationError(f"{path}: must be a JSON list, got {data!r}")
    return data


def _count(flag, flag_name: str, obj: dict, path: str, key: str, default: int) -> int:
    """A positive integer: the flag if given, else the field, else the default."""
    if flag is not None:
        value, where = flag, flag_name
    else:
        value, where = obj.get(key, default), _join(path, key)
    if type(value) is not int or value < 1:
        raise ConfigurationError(f"{where}: must be a positive integer, got {value!r}")
    return value


def _seed(flag, obj: dict) -> int:
    seed = flag if flag is not None else obj.get("seed", DEFAULT_SEED)
    if type(seed) is not int:
        raise ConfigurationError(f"seed: must be an integer, got {seed!r}")
    return seed


def load(path, required, optional=()) -> dict:
    """The scenario object in the file at `path`, with the given keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"malformed scenario JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigurationError("scenario JSON is nested too deeply") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read scenario: {exc}") from exc
    return _object(data, "", required, optional)


def read_group(data, path: str) -> FinAbGroup:
    """{"free_rank": r, "torsion": [t_1, ...]}; both keys default to empty."""
    obj = _object(data, path, (), ("free_rank", "torsion"))
    free_rank = obj.get("free_rank", 0)
    torsion = obj.get("torsion", [])
    if type(free_rank) is not int:
        raise ConfigurationError(f"{path}.free_rank: must be an integer, got {free_rank!r}")
    if not isinstance(torsion, list) or not all(type(t) is int for t in torsion):
        raise ConfigurationError(f"{path}.torsion: must be a list of integers, got {torsion!r}")
    return _call(path, FinAbGroup, tuple(torsion), free_rank)


def read_weak_length(data, path: str = "weak_length") -> WeakLengthSpec:
    obj = _object(data, path, ("kind",), ("k",))
    k = obj.get("k")
    if "k" in obj and type(k) is not int:
        raise ConfigurationError(f"{path}.k: must be an integer, got {k!r}")
    return _call(path, WeakLengthSpec, obj["kind"], k)


def read_bivariant(data, path: str = "bivariant") -> BivariantSpec:
    obj = _object(data, path, ("kind",), ("base",))
    base = _call(f"{path}.base", WeakLengthSpec, obj["base"]) if "base" in obj else None
    return _call(path, BivariantSpec, obj["kind"], base)


def _set(ambient, read, data, path: str) -> FiniteSubset:
    """The nonempty set of the elements read(data[i])."""
    elements = [_call(f"{path}[{i}]", read, x) for i, x in enumerate(_list(data, path))]
    return _call(path, FiniteSubset.of, ambient, elements)


def _plain_module(data, path: str) -> ShiftModule:
    obj = _object(data, path, ("group", "coeff"), ("action_target", "action_hom", "quotient"))
    group = read_group(obj["group"], f"{path}.group")
    coeff = read_group(obj["coeff"], f"{path}.coeff")
    if "action_target" not in obj and "action_hom" not in obj:
        return ShiftModule(group, coeff)
    # an action needs both keys
    _object(obj, path, ("group", "coeff", "action_target", "action_hom"), ("quotient",))
    target = read_group(obj["action_target"], f"{path}.action_target")
    rows = obj["action_hom"]
    if not isinstance(rows, list) or not all(
            isinstance(r, list) and all(type(x) is int for x in r) for r in rows):
        raise ConfigurationError(
            f"{path}.action_hom: must be a list of rows of integers, got {rows!r}")
    return ShiftModule(group, coeff,
                       _call(f"{path}.action_hom", AbHom.from_rows, group, target, rows))


def _quotient(data, path: str, plain: ShiftModule):
    """(quotient module, projection) of the plain module by the functions
    valued in D = <generators> (coeff_subgroup) or by the submodule the
    generators span over the group ring (principal_z)."""
    obj = _object(data, path, ("closure", "generators"), ("p",))
    closure, p = obj["closure"], obj.get("p")
    generators = _list(obj["generators"], f"{path}.generators")
    if closure == "coeff_subgroup":
        if "p" in obj:
            raise ConfigurationError(f"{path}.p: only a principal_z closure takes a modulus")
        return _call(f"{path}.generators", coeff_quotient, plain, generators)
    if closure != "principal_z":
        raise ConfigurationError(f"{path}.closure: unknown closure {closure!r}; "
                                 "expected coeff_subgroup or principal_z")
    if "p" in obj and (type(p) is not int or (p,) != plain.coeff.torsion[:1]):
        raise ConfigurationError(
            f"{path}.p: modulus {p!r} does not match the coefficients {plain.coeff}")
    elements = [_call(f"{path}.generators[{i}]", plain.element, x)
                for i, x in enumerate(generators)]
    return _call(path, principal_quotient, plain, elements)


def read_module(data, path: str = "module"):
    """A `mean` module and the reader of its elements; with a "quotient",
    elements are read in the plain module and projected (so coefficients
    of a coeff_subgroup quotient are given in C, not in C/D)."""
    plain = _plain_module(data, path)
    if "quotient" not in data:
        return plain, plain.element
    module, project = _quotient(data["quotient"], f"{path}.quotient", plain)
    return module, lambda terms: project(plain.element(terms))


def _folner(scenario: dict, n_max, module: ShiftModule) -> FolnerBoxes:
    folner = _object(scenario.get("folner", {}), "folner", (), ("kind", "n_max"))
    kind = folner.get("kind", "boxes")
    if kind != "boxes":
        raise ConfigurationError(f"folner.kind: unknown folner kind {kind!r}; only 'boxes' exists")
    n = _count(n_max, "--n-max", folner, "folner", "n_max", default_n_max(module))
    return FolnerBoxes(module.group, n)


def wl_eval(path):
    """(group, spec, subset)."""
    s = load(path, ("group", "weak_length", "set"))
    group = read_group(s["group"], "group")
    return group, read_weak_length(s["weak_length"]), _set(group, group.element, s["set"], "set")


def wl_axioms(path, budget, seed):
    """(spec, axiom names, budget, seed); flags given override the file."""
    s = load(path, ("weak_length",), ("axioms", "budget", "seed"))
    axioms = s.get("axioms", "all")
    axioms = list(AXIOMS) if axioms == "all" else axioms
    if not isinstance(axioms, list):
        raise ConfigurationError(f'axioms: must be "all" or a list of axiom names, got {axioms!r}')
    if not axioms:
        raise ConfigurationError("axioms: must name at least one axiom")
    for i, name in enumerate(axioms):
        if not isinstance(name, str) or name not in AXIOMS:
            raise ConfigurationError(
                f"axioms[{i}]: unknown axiom {name!r}; expected one of {', '.join(AXIOMS)}")
    budget = _count(budget, "--budget", s, "", "budget", DEFAULT_BUDGET)
    return read_weak_length(s["weak_length"]), axioms, budget, _seed(seed, s)


def biv_eval(path):
    """(group, spec, a, b)."""
    s = load(path, ("group", "bivariant", "a", "b"))
    group = read_group(s["group"], "group")
    a, b = (_set(group, group.element, s[key], key) for key in ("a", "b"))
    return group, read_bivariant(s["bivariant"]), a, b


def biv_check(path, budget, seed):
    """(spec, budget, seed); without a file the spec is cover_log."""
    s = load(path, (), ("bivariant", "budget", "seed")) if path else {}
    spec = read_bivariant(s["bivariant"]) if "bivariant" in s else COVER_LOG
    budget = _count(budget, "--budget", s, "", "budget", DEFAULT_UPGRADING_BUDGET)
    return spec, budget, _seed(seed, s)


def mean(path, n_max):
    """The arguments of ratio_sequence: module, witness, spec, Folner boxes."""
    s = load(path, ("module", "weak_length", "witness"), ("folner",))
    module, read = read_module(s["module"])
    spec = read_weak_length(s["weak_length"])
    seq = _folner(s, n_max, module)
    return module, _set(module, read, s["witness"], "witness"), spec, seq


def addition(path, n_max):
    """The arguments of addition_report."""
    s = load(path, ("module", "submodule", "witnesses", "weak_length"), ("folner",))
    module = _plain_module(s["module"], "module")
    if "quotient" in s["module"]:
        raise ConfigurationError("module.quotient: the total module must be a plain shift module")
    spec = read_weak_length(s["weak_length"])
    seq = _folner(s, n_max, module)
    quotient = _quotient(s["submodule"], "submodule", module)
    witnesses = _object(s["witnesses"], "witnesses", WITNESS_KEYS)
    w_sub, w_total, w_lift = (_set(module, module.element, witnesses[key], f"witnesses.{key}")
                              for key in WITNESS_KEYS)
    _, project = quotient
    for i, x in enumerate(witnesses["submodule"]):
        if not project(module.element(x)).is_zero():
            raise ConfigurationError(f"witnesses.submodule[{i}]: leaves the submodule")
    return module, quotient, w_sub, w_total, w_lift, spec, seq
