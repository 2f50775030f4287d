"""Command-line front end: scenario files in, exact reports out.

Subcommands map one-to-one onto the library surface: wl-eval and
wl-axioms for weak lengths on presented abelian groups, biv-eval and
biv-check for the bivariant upgradings, mean and addition for the
Folner engine, and example/list-examples for the named scenarios.

The command line is read against one table, _COMMANDS: each subcommand
with its handler and the flags it reads, in usage syntax.  A plain loop
over argv reads `--flag value`, `--flag=value` and a unique prefix of a
flag; -h or --help prints the usage the table gives and exits 0; every
usage error is one `error:` line with exit 1.  Nothing is built before
the first command, and run keeps no state between calls.

Reports are deterministic: the same scenario and seed produce identical
bytes (keys sorted, no timestamps, floats only in the human-readable
table at 12 significant digits).  Exit codes: 0 success, 2 a checked
mathematical statement failed (counterexample found), 1 configuration
or input errors.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from types import SimpleNamespace

from . import scenario
from .bivariant import bivariant_eval, check_upgrading_proper, cover_bivariant
from .errors import ConfigurationError, DomainError
from .meanlen import addition_report, ratio_sequence
from .registry import example_names, run_example
from .values import render_float
from .weaklength import check_axiom, eval_weak_length


# -- table rendering ----------------------------------------------------


def _render_table(rows, header) -> list[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*header), fmt.format(*("-" * w for w in widths))]
    lines.extend(fmt.format(*row) for row in rows)
    return lines


def _estimate_table(est_json) -> list[str]:
    rows = []
    for r in est_json["rows"]:
        value = r["count_or_value"]
        if value["kind"] == "log":
            shown = f"log {value['count']}"
            ratio = render_float(math.log(value["count"]) / r["folner_size"])
        elif value["kind"] == "rational":
            shown = f"{value['num']}/{value['den']}" if value["den"] != 1 else str(value["num"])
            ratio = render_float(value["num"] / value["den"] / r["folner_size"])
        else:
            shown, ratio = "+inf", "inf"
        rows.append([str(r["n"]), str(r["folner_size"]), shown, ratio, r["method"]])
    lines = _render_table(rows, ["n", "|F_n|", "value", "ratio~", "method"])
    flags = est_json["flags"]
    lines.append("flags: " + ", ".join(k for k, v in flags.items() if v))
    limit = est_json["limit"]
    if limit["certificate"]:
        lines.append(f"limit certificate: {limit['certificate']}"
                     + (" (exact)" if limit["exact"] else ""))
    if est_json["truncated_at"] is not None:
        lines.append(f"truncated at n = {est_json['truncated_at']} (set cap)")
    return lines


# -- subcommands --------------------------------------------------------
#
# Each handler returns (exit code, report, table), where table is a
# zero-argument callable giving the text lines: run calls it only when
# the table is printed, so --format json renders none.


def _cmd_wl_eval(args):
    group, spec, subset = scenario.wl_eval(args.scenario)
    value = eval_weak_length(spec, group, subset)
    report = {"result": {"value": value.to_json(), "group": str(group),
                         "set_size": len(subset), "weak_length": spec.to_json()}}
    return 0, report, lambda: [f"{spec} on a {len(subset)}-element subset of {group}: "
                               f"{value} ~ {render_float(value.as_float())}"]


def _cmd_wl_axioms(args):
    spec, axioms, budget, seed = scenario.wl_axioms(args.scenario, args.budget, args.seed)
    reports = [check_axiom(spec, axiom, seed, budget) for axiom in axioms]
    failed = [r for r in reports if not r.passed]

    def table():
        lines = _render_table([[r.axiom, "pass" if r.passed else "FAIL", str(r.checked)]
                               for r in reports], ["axiom", "status", "samples"])
        for r in failed:
            lines.append(f"counterexample for {r.axiom}: "
                         + json.dumps(r.counterexample, sort_keys=True))
        return lines

    report = {"result": {"checks": [r.to_json() for r in reports],
                         "seed": seed, "budget": budget}}
    return (2 if failed else 0), report, table


def _cmd_biv_eval(args):
    group, spec, a, b = scenario.biv_eval(args.scenario)
    result = {"bivariant": spec.to_json(), "group": str(group)}
    if spec.kind == "cover_log":
        value, cover = cover_bivariant(group, a, b)
        result["value"] = value.to_json()
        result["witness_cover"] = [list(x.coords) for x in cover.sorted_elements()]
    else:
        value = bivariant_eval(spec, group, a, b)
        result["value"] = value.to_json()

    def table():
        lines = [f"{spec}(A, B) = {value} ~ {render_float(value.as_float())}"]
        if "witness_cover" in result:
            lines.append(f"minimizing cover: {result['witness_cover']}")
        return lines

    return 0, {"result": result}, table


def _cmd_biv_check(args):
    spec, budget, seed = scenario.biv_check(args.scenario, args.budget, args.seed)
    report = check_upgrading_proper(spec, seed, budget)

    def table():
        lines = [f"proper-upgrading laws for {spec}: "
                 f"{'pass' if report.passed else 'FAIL'} on {report.checked} instances"]
        if not report.passed:
            lines.append("counterexample: " + json.dumps(report.counterexample, sort_keys=True))
        return lines

    return (0 if report.passed else 2), {"result": report.to_json()}, table


def _cmd_mean(args):
    result = ratio_sequence(*scenario.mean(args.scenario, args.n_max)).to_json()
    return 0, {"result": result}, lambda: _estimate_table(result)


def _cmd_addition(args):
    report = addition_report(*scenario.addition(args.scenario, args.n_max))
    result = report.to_json()

    def table():
        lines = [f"addition formula verdict: {report.verdict}",
                 f"easy direction: {'holds' if report.easy_direction_ok else 'VIOLATED'}"]
        for part, title in (("total", "total module"), ("submodule", "submodule"),
                            ("quotient", "quotient")):
            lines += ["", f"{title}:"] + _estimate_table(result[part])
        return lines

    code = 0 if report.easy_direction_ok and report.verdict != "VALUES-DIFFER" else 2
    return code, {"result": result}, table


def _cmd_example(args):
    report = run_example(args.name, args.n_max)

    def table():
        rows = [[("ok" if c.ok else "FAIL"), c.label, c.computed, c.expected]
                for c in report.checks]
        return ([f"example {report.name}: {'PASS' if report.passed else 'FAIL'}",
                 report.description, ""]
                + _render_table(rows, ["status", "check", "computed", "expected"]))

    return (0 if report.passed else 2), {"result": report.to_json()}, table


def _cmd_list_examples(args):
    names = example_names()
    return 0, {"result": {"examples": names}}, lambda: list(names)


# -- command line -------------------------------------------------------
#
# The one table of subcommands: each with its handler and the flags it
# reads besides _COMMON, in usage syntax.  "[...]" marks an optional
# flag, an upper-case word without "--" a positional.  A flag's
# attribute is its name with "-" read as "_", and its value is an int
# where the metavar is INT, one of the choices where the metavar lists
# them with "|", and the string given otherwise.

_COMMANDS = {
    "wl-eval": (_cmd_wl_eval, ("--scenario PATH",)),
    "wl-axioms": (_cmd_wl_axioms, ("--scenario PATH", "[--seed INT]", "[--budget INT]")),
    "biv-eval": (_cmd_biv_eval, ("--scenario PATH",)),
    "biv-check": (_cmd_biv_check, ("[--scenario PATH]", "[--seed INT]", "[--budget INT]")),
    "mean": (_cmd_mean, ("--scenario PATH", "[--n-max INT]")),
    "addition": (_cmd_addition, ("--scenario PATH", "[--n-max INT]")),
    "example": (_cmd_example, ("NAME", "[--n-max INT]")),
    "list-examples": (_cmd_list_examples, ()),
}
_COMMON = ("[--format json|table|both]", "[--out PATH]")  # --format defaults to both
_HELP = ("-h", "--help")

# a negative number is a value, not a flag (as in argparse)
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _is_flag(token: str) -> bool:
    return token.startswith("-") and token != "-" and not _NEGATIVE_NUMBER.fullmatch(token)


def _attribute(field: str) -> str:
    return field.removeprefix("--").replace("-", "_")


def _option(name: str, options) -> str | None:
    """The option that `name` spells out or, past "--", uniquely begins."""
    if name in options:
        return name
    matches = [o for o in options if len(name) > 2 and o.startswith(name)]
    if len(matches) > 1:
        raise ConfigurationError(f"ambiguous option: {name} could match {', '.join(matches)}")
    return matches[0] if matches else None


def _usage(command: str | None) -> str:
    if command is not None:
        return " ".join(("usage: mwl", command, *_COMMANDS[command][1], *_COMMON, "[-h]"))
    width = max(map(len, _COMMANDS))
    return "\n".join([
        "usage: mwl COMMAND [FLAGS]",
        "exact weak-length, bivariant-upgrading and mean-value toolkit",
        "",
        "commands and the flags each reads:",
        *(f"  {name:<{width}}  {' '.join(specs)}".rstrip()
          for name, (_, specs) in _COMMANDS.items()),
        "every command also reads " + " ".join((*_COMMON, "[-h]")),
    ])


def _parse_args(argv):
    """The namespace of `argv`: command, help, and one attribute per field
    of the command's flags in _COMMANDS and of _COMMON.  With help set,
    nothing after the -h or --help has been read."""
    if not argv or _is_flag(argv[0]):
        if argv and _option(argv[0], _HELP):
            return SimpleNamespace(command=None, help=True)
        raise ConfigurationError("the following arguments are required: command")
    command = argv[0]
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise ConfigurationError(
            f"argument command: invalid choice: {command!r} (choose from {choices})")
    flags, positionals, required = {}, [], []
    for spec in _COMMANDS[command][1] + _COMMON:
        field, _, metavar = spec.strip("[]").partition(" ")
        if field.startswith("--"):
            flags[field] = metavar
        else:
            field = field.lower()
            positionals.append(field)
        if not spec.startswith("["):
            required.append(field)
    values = {_attribute(f): None for f in (*flags, *positionals)}
    values["format"] = "both"
    given, extras, literal = set(), [], False
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--" and not literal:  # every later token is a positional
            literal = True
            continue
        if literal or not _is_flag(token):
            if positionals:
                field = positionals.pop(0)
                values[field] = token
                given.add(field)
            else:
                extras.append(token)
            continue
        name, eq, value = token.partition("=")
        flag = _option(name, (*flags, *_HELP))
        if flag is None:
            extras.append(token)
            continue
        if flag in _HELP:
            if eq:
                raise ConfigurationError(
                    f"argument -h/--help: ignored explicit argument {value!r}")
            return SimpleNamespace(command=command, help=True)
        if not eq:
            value = next(tokens, None)
            if value is None or _is_flag(value):
                raise ConfigurationError(f"argument {flag}: expected one argument")
        metavar = flags[flag]
        if metavar == "INT":
            try:
                value = int(value)
            except ValueError:
                raise ConfigurationError(
                    f"argument {flag}: invalid int value: {value!r}") from None
        elif "|" in metavar and value not in metavar.split("|"):
            choices = ", ".join(map(repr, metavar.split("|")))
            raise ConfigurationError(
                f"argument {flag}: invalid choice: {value!r} (choose from {choices})")
        values[_attribute(flag)] = value
        given.add(flag)
    missing = [f for f in required if f not in given]
    if missing:
        raise ConfigurationError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ConfigurationError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, help=False, **values)


def run(argv) -> int:
    # Python >= 3.10.7 caps int <-> str at 4300 digits; exact values pass it
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = _parse_args(argv)
        if args.help:
            print(_usage(args.command))
            return 0
        code, report, table = _COMMANDS[args.command][0](args)
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = {"command": args.command, **report, "exit_code": code}
    payload = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            print(f"error: --out: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 1
    try:
        if args.format in ("json", "both"):
            print(payload)
        if args.format in ("table", "both"):
            print("\n".join(table()))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early.  Point stdout at devnull so the
        # flush at interpreter exit cannot raise again (Python `signal` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
