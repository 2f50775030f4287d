"""Command-line front end: scenario files in, exact reports out.

Subcommands map one-to-one onto the library surface: wl-eval and
wl-axioms for weak lengths on presented abelian groups, biv-eval and
biv-check for the bivariant upgradings, mean and addition for the
Folner engine, and example/list-examples for the named scenarios.

Reports are deterministic: the same scenario and seed produce identical
bytes (keys sorted, no timestamps, floats only in the human-readable
table at 12 significant digits).  Exit codes: 0 success, 2 a checked
mathematical statement failed (counterexample found), 1 configuration
or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

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


def _cmd_wl_eval(args):
    group, spec, subset = scenario.wl_eval(args.scenario)
    value = eval_weak_length(spec, group, subset)
    report = {"result": {"value": value.to_json(), "group": str(group),
                         "set_size": len(subset), "weak_length": spec.to_json()}}
    table = [f"{spec} on a {len(subset)}-element subset of {group}: "
             f"{value} ~ {render_float(value.as_float())}"]
    return 0, report, table


def _cmd_wl_axioms(args):
    spec, axioms, budget, seed = scenario.wl_axioms(args.scenario, args.budget, args.seed)
    reports = [check_axiom(spec, axiom, seed, budget) for axiom in axioms]
    failed = [r for r in reports if not r.passed]
    table_rows = [[r.axiom, "pass" if r.passed else "FAIL", str(r.checked)]
                  for r in reports]
    table = _render_table(table_rows, ["axiom", "status", "samples"])
    for r in failed:
        table.append(f"counterexample for {r.axiom}: "
                     + json.dumps(r.counterexample, sort_keys=True))
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
    table = [f"{spec}(A, B) = {value} ~ {render_float(value.as_float())}"]
    if "witness_cover" in result:
        table.append(f"minimizing cover: {result['witness_cover']}")
    return 0, {"result": result}, table


def _cmd_biv_check(args):
    spec, budget, seed = scenario.biv_check(args.scenario, args.budget, args.seed)
    report = check_upgrading_proper(spec, seed, budget)
    table = [f"proper-upgrading laws for {spec}: "
             f"{'pass' if report.passed else 'FAIL'} on {report.checked} instances"]
    if not report.passed:
        table.append("counterexample: " + json.dumps(report.counterexample, sort_keys=True))
    return (0 if report.passed else 2), {"result": report.to_json()}, table


def _cmd_mean(args):
    est = ratio_sequence(*scenario.mean(args.scenario, args.n_max))
    return 0, {"result": est.to_json()}, _estimate_table(est.to_json())


def _cmd_addition(args):
    report = addition_report(*scenario.addition(args.scenario, args.n_max))
    table = [f"addition formula verdict: {report.verdict}",
             f"easy direction: {'holds' if report.easy_direction_ok else 'VIOLATED'}",
             "", "total module:"]
    table += _estimate_table(report.total.to_json())
    table += ["", "submodule:"]
    table += _estimate_table(report.submodule.to_json())
    table += ["", "quotient:"]
    table += _estimate_table(report.quotient.to_json())
    code = 0 if report.easy_direction_ok and report.verdict != "VALUES-DIFFER" else 2
    return code, {"result": report.to_json()}, table


def _cmd_example(args):
    report = run_example(args.name, args.n_max)
    table = [f"example {report.name}: {'PASS' if report.passed else 'FAIL'}",
             report.description, ""]
    rows = [[("ok" if c.ok else "FAIL"), c.label, c.computed, c.expected]
            for c in report.checks]
    table += _render_table(rows, ["status", "check", "computed", "expected"])
    return (0 if report.passed else 2), {"result": report.to_json()}, table


def _cmd_list_examples(args):
    names = example_names()
    return 0, {"result": {"examples": names}}, list(names)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so that they end in one error line with exit 1."""

    def error(self, message):
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes --format, --out and only the flags it reads."""
    parser = _Parser(
        prog="mwl",
        description="exact weak-length, bivariant-upgrading and mean-value toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name) for name in _HANDLERS}
    for p in commands.values():
        p.add_argument("--format", choices=["json", "table", "both"], default="both")
        p.add_argument("--out", help="also write the JSON report to this path")
    for name in ("wl-eval", "wl-axioms", "biv-eval", "mean", "addition"):
        commands[name].add_argument("--scenario", required=True)
    commands["biv-check"].add_argument("--scenario")
    for name in ("wl-axioms", "biv-check"):
        commands[name].add_argument("--seed", type=int)
        commands[name].add_argument("--budget", type=int)
    for name in ("mean", "addition", "example"):
        commands[name].add_argument("--n-max", type=int, dest="n_max")
    commands["example"].add_argument("name")
    return parser


_HANDLERS = {
    "wl-eval": _cmd_wl_eval,
    "wl-axioms": _cmd_wl_axioms,
    "biv-eval": _cmd_biv_eval,
    "biv-check": _cmd_biv_check,
    "mean": _cmd_mean,
    "addition": _cmd_addition,
    "example": _cmd_example,
    "list-examples": _cmd_list_examples,
}


def run(argv) -> int:
    # Python >= 3.10.7 caps int <-> str at 4300 digits; exact values pass it
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code, report, table = _HANDLERS[args.command](args)
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
            print("\n".join(table))
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
