"""The benchmark's workloads: seeded scenario files and the checks on their reports.

Every operation is one `mwl` CLI call on a generated scenario file.  A
variant of a workload is drawn from (workload, seed, variant index):

* each table operation picks a support translation and a coefficient
  unit for its witnesses.  Both are module automorphisms, so by the
  invariance axiom every row count, certificate and verdict is the same
  for every variant, and the checks below hold for every seed;
* each checker operation draws its checker seed from --seed alone,
  except the cover_log checks, which run on pinned seeds (COVER_SEEDS).

A check returns None when the report is right and a one-line reason
otherwise.  An operation may also carry `known_defect`, a predicate that
recognises the current wrong output of a documented open defect.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

Z_GROUP = {"free_rank": 1, "torsion": []}
WL_BUDGET = 100
BIV_BUDGET = 50
MIN_SHAPE_ROWS = 18  # the {0, d0, d1} table reaches n = 18 before the set cap


@dataclass(frozen=True)
class Op:
    name: str
    command: str
    scenario: dict
    check: Callable[[int, dict], str | None]
    known_defect: Callable[[int, dict | None, str], bool] | None = None

    @property
    def invariant(self) -> bool:
        """Whether the report is the same for every variant: table reports
        carry no coordinates, and translations and units keep every count."""
        return self.command in ("mean", "addition")


# -- scenario pieces -----------------------------------------------------


def _module(torsion, free_rank=0, quotient=None):
    module = {"group": Z_GROUP, "coeff": {"free_rank": free_rank, "torsion": list(torsion)}}
    if quotient is not None:
        module["quotient"] = quotient
    return module


def _units(torsion):
    """Scalars that act invertibly on every coefficient coordinate."""
    if not torsion:
        return [1, -1]
    return [u for u in range(1, torsion[-1]) if all(math.gcd(u, t) == 1 for t in torsion)]


class _Placement:
    """One support translation and one coefficient unit for a witness set."""

    def __init__(self, rng: random.Random, torsion):
        self.shift = rng.randint(-64, 64)
        self.unit = rng.choice(_units(torsion))
        self.torsion = list(torsion)

    def element(self, terms):
        """Module element from [(point, coeff vector), ...] at the placement."""
        out = []
        for point, coeff in terms:
            scaled = [self.unit * c for c in coeff]
            scaled = [c % t for c, t in zip(scaled, self.torsion)] + scaled[len(self.torsion):]
            out.append([[point + self.shift], scaled])
        return out

    def witness(self, elements):
        return [self.element(terms) for terms in elements]


def _mean(module, weak_length, witness, n_max):
    return {"module": module, "weak_length": weak_length, "witness": witness,
            "folner": {"kind": "boxes", "n_max": n_max}}


def _full_coefficients(torsion):
    """Every coefficient vector at point 0, zero included."""
    vectors = [[]]
    for t in torsion:
        vectors = [v + [c] for v in vectors for c in range(t)]
    return [[(0, v)] if any(v) else [] for v in vectors]


# -- report checks -------------------------------------------------------


def _ratio_equals(ratio, expected) -> bool:
    """Exact comparison of a report ratio with ("log", c) or ("rational", q)."""
    kind, value = expected
    if ratio is None or ratio.get("kind") != kind:
        return False
    if kind == "log":  # log(num)/den == log(value)  <=>  num == value ** den
        return ratio["ratio_num"] == value ** ratio["ratio_den"]
    return Fraction(ratio["ratio_num"], ratio["ratio_den"]) == value


def _row_value(row):
    value = row["count_or_value"]
    if value["kind"] == "log":
        return value["count"]
    if value["kind"] == "rational":
        return Fraction(value["num"], value["den"])
    return None


def _check_table(est, n_max, expected_value, limit, min_rows=None, limit_required=True,
                 certificate=None):
    rows = est["rows"]
    for n, row in enumerate(rows, 1):
        if row["n"] != n or row["folner_size"] != n:
            return f"row {n}: unexpected n or |F_n|"
        if _row_value(row) != expected_value(n):
            return f"row {n}: value {_row_value(row)} != expected {expected_value(n)}"
    if min_rows is None:
        if len(rows) != n_max or est["truncated_at"] is not None:
            return f"{len(rows)} rows, truncated_at {est['truncated_at']}; expected {n_max} rows"
    else:
        if len(rows) < min_rows:
            return f"only {len(rows)} rows; expected at least {min_rows}"
        expected_cut = None if len(rows) == n_max else len(rows) + 1
        if est["truncated_at"] != expected_cut:
            return f"truncated_at {est['truncated_at']} with {len(rows)} rows"
    lim = est["limit"]
    if limit_required and not lim["exact"]:
        return f"limit not certified (certificate {lim['certificate']})"
    if lim["exact"] and not _ratio_equals(lim["ratio"], limit):
        return f"certified limit {lim['ratio']} != expected {limit}"
    if certificate is not None and lim["certificate"] != certificate:
        return f"certificate {lim['certificate']} != expected {certificate}"
    return None


def _mean_check(n_max, expected_value, limit, **kw):
    def check(code, report):
        if code != 0:
            return f"exit code {code}, expected 0"
        return _check_table(report["result"], n_max, expected_value, limit, **kw)
    return check


def _addition_check(n_max, parts):
    """parts: {table name: (expected value of row n, limit)}."""
    def check(code, report):
        if code != 0:
            return f"exit code {code}, expected 0"
        result = report["result"]
        if result["verdict"] != "EXACT-EQUAL" or not result["easy_direction_ok"]:
            return f"verdict {result['verdict']}, easy direction {result['easy_direction_ok']}"
        if len(result["easy_rows"]) != n_max:
            return f"{len(result['easy_rows'])} easy-direction rows, expected {n_max}"
        for name, (expected_value, limit) in parts.items():
            problem = _check_table(result[name], n_max, expected_value, limit)
            if problem:
                return f"{name} table: {problem}"
        return None
    return check


def _wl_check(spec_kind, seed):
    def check(code, report):
        checks = report["result"]["checks"]
        if report["result"]["seed"] != seed or report["result"]["budget"] != WL_BUDGET:
            return "seed or budget differ from the scenario"
        axioms = [c["axiom"] for c in checks]
        if axioms != list(_AXIOMS):
            return f"axioms {axioms}"
        failed = []
        for c in checks:
            if c["passed"]:
                if c["checked"] != WL_BUDGET:
                    return f"{c['axiom']} passed on {c['checked']} samples"
            else:
                failed.append(c["axiom"])
        if spec_kind != "gen":
            if failed or code != 0:
                return f"exit code {code}, failed axioms {failed}"
            return None
        # gen fails the product axiom on the fixed C2 x C3 instance, sample 0,
        # and may fail strong_quotient on a seeded sample; the rest are theorems.
        if code != 2:
            return f"exit code {code}, expected 2"
        product = checks[axioms.index("product")]
        if product["passed"] or product["counterexample"] != _GEN_PRODUCT_COUNTEREXAMPLE:
            return f"product check {product}"
        if set(failed) - {"product", "strong_quotient"}:
            return f"failed axioms {failed}"
        if "strong_quotient" in failed:
            cex = checks[axioms.index("strong_quotient")]["counterexample"]
            if not Fraction(cex["sum_value"]) < Fraction(cex["bound"]):
                return f"strong_quotient counterexample does not violate the bound: {cex}"
        return None
    return check


def _biv_check(code, report):
    result = report["result"]
    if code != 0 or not result["passed"] or result["checked"] != BIV_BUDGET:
        return (f"exit code {code}, passed {result['passed']} on {result['checked']} "
                f"instances, counterexample {result.get('counterexample')}")
    return None


_COVER_CAP_ERROR = re.compile(r"error: cover search over \d+ candidates exceeds the cap of 72")


def _cover_checker_defect(code, report, stderr):
    """The two known cover_log checker failures.

    * The checker demands the direct-product identity, but min-cover
      counts are only submultiplicative (C3 x C3 is covered by 3
      translates of {0,1}^2, while each C3 needs 2): exit 2.
    * The checker builds product instances with up to 81 cover
      candidates, past its own cap of 72, and ends as if its input were
      bad: exit 1.
    """
    if report is None:
        return code == 1 and _COVER_CAP_ERROR.fullmatch(stderr.strip()) is not None
    cex = report["result"].get("counterexample") or {}
    if code != 2 or cex.get("law") != "direct_product":
        return False
    product, split = (cex[k].split() for k in ("product", "split"))
    return product[0] == split[0] == "log" and int(product[1]) < int(split[1])


_AXIOMS = ("regularity", "product", "quotient", "upper_continuity", "strong_quotient",
           "subadd_sum", "union_vs_sum", "invariance")
_GEN_PRODUCT_COUNTEREXAMPLE = {
    "a1": [[0], [1]], "a2": [[0], [1], [2]], "g1": "C2", "g2": "C3",
    "sample_index": 0, "value_product": "1", "value_sum": "2",
}


# -- workloads -----------------------------------------------------------

LOG_CARD = {"kind": "log_card"}
TORS2 = {"kind": "tors_log", "k": 2}


def _orbit_enum(rng):
    shape = _Placement(rng, [2])
    c2c2 = _Placement(rng, [2, 2])
    c4 = _Placement(rng, [4])
    mod3 = _Placement(rng, [3])
    return [
        Op("shape-0-d0-d1", "mean",
           _mean(_module([2]), LOG_CARD, shape.witness([[], [(0, [1])], [(1, [1])]]), 20),
           _mean_check(20, lambda n: 2 ** (n + 1) - 1, ("log", 2),
                       min_rows=MIN_SHAPE_ROWS, limit_required=False)),
        Op("tors2-c2xc2-full", "mean",
           _mean(_module([2, 2]), TORS2, c2c2.witness(_full_coefficients([2, 2])), 8),
           _mean_check(8, lambda n: 4 ** n, ("log", 4))),
        Op("tors2-c4-full", "mean",
           _mean(_module([4]), TORS2, c4.witness(_full_coefficients([4])), 8),
           _mean_check(8, lambda n: 2 ** n, ("log", 2))),
        Op("mod3-full-shift", "mean",
           _mean(_module([3]), LOG_CARD, mod3.witness(_full_coefficients([3])), 10),
           _mean_check(10, lambda n: 3 ** n, ("log", 3))),
    ]


# base-pointed witness of support width 3: {0, d0 + 2 d1, 2 d0 + d2}
_WIDTH3 = [[], [(0, [1]), (1, [2])], [(0, [2]), (2, [1])]]
RANK_N_MAX = 48
NU_N_MAX = 42


def _span_snf(rng):
    z = _Placement(rng, [])
    c4 = _Placement(rng, [4])
    return [
        # value at n = 1 recorded from the current code; n + 2 for n >= 2
        Op("rank-z-width3", "mean",
           _mean(_module([], free_rank=1), {"kind": "rank"}, z.witness(_WIDTH3), RANK_N_MAX),
           _mean_check(RANK_N_MAX, lambda n: Fraction(2 if n == 1 else n + 2),
                       ("rational", Fraction(1)), limit_required=False)),
        # value at n = 1 recorded from the current code; 2n + 4 for n >= 2
        Op("nu-c4-width3", "mean",
           _mean(_module([4]), {"kind": "nu"}, c4.witness(_WIDTH3), NU_N_MAX),
           _mean_check(NU_N_MAX, lambda n: Fraction(4 if n == 1 else 2 * n + 4),
                       ("rational", Fraction(2)), limit_required=False)),
    ]


# cover_log is checked on pinned checker seeds, the same for every --seed:
# one whose 100 instances pass, and the two that show the known checker
# defects (see _cover_checker_defect).  A seeded cover_log check would hit
# one of those defects about once in 60 seeds, so the failure count of a
# set of runs would depend on which seeds it drew.
COVER_SEEDS = {"": 1, "-product-law": 5643403147495439306, "-cover-cap": 4148626438543837940}


def _checkers(rng):
    ops = []
    for spec in (LOG_CARD, TORS2, {"kind": "rank"}, {"kind": "nu"}, {"kind": "gen"}):
        seed = rng.randrange(1, 2 ** 63)
        ops.append(Op(f"wl-axioms-{spec['kind']}", "wl-axioms",
                      {"weak_length": spec, "axioms": "all", "budget": WL_BUDGET, "seed": seed},
                      _wl_check(spec["kind"], seed)))
    for base in ("rank", "nu"):
        seed = rng.randrange(1, 2 ** 63)
        ops.append(Op(f"biv-check-{base}", "biv-check",
                      {"bivariant": {"kind": "quotient_length", "base": base},
                       "budget": BIV_BUDGET, "seed": seed}, _biv_check))
    for label, seed in COVER_SEEDS.items():
        ops.append(Op(f"biv-check-cover_log{label}", "biv-check",
                      {"bivariant": {"kind": "cover_log"}, "budget": BIV_BUDGET, "seed": seed},
                      _biv_check, known_defect=_cover_checker_defect))
    return ops


# F2[t, 1/t] / (1 + t^3 + t^10): 1024 elements
_DEG10 = [[[0], [1]], [[3], [1]], [[10], [1]]]
_SHIPPED_PRINCIPAL = [(0, [1]), (1, [1]), (3, [1])]  # 1 + t + t^3
QUOTIENT_N_MAX = 20
DEFECT_N_MAX = 8


def _coeff_quotient_is_ignored(code, report, stderr):
    """The known wrong output for C4 modulo <2>: the quotient is dropped, rows read log 4."""
    if report is None:
        return False
    rows = report["result"]["rows"]
    return (code == 0 and len(rows) == DEFECT_N_MAX
            and all(_row_value(r) == 4 ** r["n"] for r in rows))


def _quotient_addition(rng):
    z4 = _Placement(rng, [4])
    principal = _Placement(rng, [2])
    deg10 = _Placement(rng, [2])
    defect = _Placement(rng, [4])
    return [
        Op("addition-z4", "addition", {
            "module": _module([4]),
            "submodule": {"closure": "coeff_subgroup", "generators": [[2]]},
            "witnesses": {
                "submodule": z4.witness([[], [(0, [2])]]),
                "total": z4.witness(_full_coefficients([4])),
                "quotient": z4.witness([[], [(0, [1])]]),
            },
            "weak_length": LOG_CARD, "folner": {"kind": "boxes", "n_max": 8},
        }, _addition_check(8, {
            "total": (lambda n: 4 ** n, ("log", 4)),
            "submodule": (lambda n: 2 ** n, ("log", 2)),
            "quotient": (lambda n: 2 ** n, ("log", 2)),
        })),
        Op("addition-principal", "addition", {
            "module": _module([2]),
            "submodule": {"closure": "principal_z", "p": 2,
                          "generators": [[[[g], c] for g, c in _SHIPPED_PRINCIPAL]]},
            "witnesses": {
                "submodule": principal.witness([[], _SHIPPED_PRINCIPAL]),
                "total": principal.witness([[], [(0, [1])]]),
                "quotient": principal.witness([[], [(0, [1])]]),
            },
            "weak_length": LOG_CARD, "folner": {"kind": "boxes", "n_max": 10},
        }, _addition_check(10, {
            "total": (lambda n: 2 ** n, ("log", 2)),
            "submodule": (lambda n: 2 ** n, ("log", 2)),
            "quotient": (lambda n: min(2 ** n, 8), ("log", 1)),
        })),
        Op("principal-deg10-mean", "mean",
           _mean(_module([2], quotient={"closure": "principal_z", "p": 2, "generators": [_DEG10]}),
                 LOG_CARD, deg10.witness([[], [(0, [1])]]), QUOTIENT_N_MAX),
           _mean_check(QUOTIENT_N_MAX, lambda n: min(2 ** n, 1024), ("log", 1),
                       certificate="finite-module")),
        # Known defect: a coeff_subgroup quotient on a module is parsed but
        # never applied.  The true value is log 2 on every row.
        Op("coeff-quotient-c4-mod-2", "mean",
           _mean(_module([4], quotient={"closure": "coeff_subgroup", "generators": [[2]]}),
                 LOG_CARD, defect.witness(_full_coefficients([4])), DEFECT_N_MAX),
           _mean_check(DEFECT_N_MAX, lambda n: 2 ** n, ("log", 2), limit_required=False),
           known_defect=_coeff_quotient_is_ignored),
    ]


WORKLOADS = {
    "orbit-enum": _orbit_enum,
    "span-snf": _span_snf,
    "checkers": _checkers,
    "quotient-addition": _quotient_addition,
}


def build(workload: str, seed: int, variant: int) -> list[Op]:
    """The operations of one variant.  Checker seeds depend on --seed alone, so
    every pass of a run does the same checker work; table witnesses get a
    fresh placement in every variant."""
    if workload == "checkers":
        variant = 0
    rng = random.Random(f"mwl-bench:{workload}:{seed}:{variant}")
    return WORKLOADS[workload](rng)


def check_op(op: Op, code, report, stderr: str) -> tuple[str | None, bool]:
    """(failure reason or None, whether the failure is the op's known defect)."""
    try:
        if report is None:
            problem = f"no JSON report (exit code {code}): {stderr.strip()[-300:]}"
        else:
            problem = op.check(code, report)
        known = (problem is not None and op.known_defect is not None
                 and op.known_defect(code, report, stderr))
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}", False
    return problem, known


def table_counts(op: Op, report) -> tuple[int, int]:
    """(exact rows, tables with an exact limit certificate) in one report."""
    if report is None or op.command not in ("mean", "addition"):
        return 0, 0
    result = report.get("result", {})
    tables = [result] if op.command == "mean" else [
        result.get(k, {}) for k in ("total", "submodule", "quotient")]
    rows = sum(len(t.get("rows", ())) for t in tables)
    certified = sum(1 for t in tables if t.get("limit", {}).get("exact"))
    return rows, certified
