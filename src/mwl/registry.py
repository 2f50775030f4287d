"""Named exactly-computable scenarios with their expected values.

Each entry builds a scenario, runs the mean engine, and checks the
computed exact data against the known closed form, returning a report
whose checks all carry the computed and expected values.  Names are
stable identifiers for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .finabelian import AbHom, FinAbGroup
from .groupring import ShiftModule, coeff_quotient, principal_quotient
from .meanlen import FolnerBoxes, addition_report, ratio_sequence
from .subsets import FiniteSubset
from .values import MeanRatio, ratio_eq, ratio_le
from .weaklength import LOG_CARD, WeakLengthSpec, tors_log

Z = FinAbGroup.free(1)
Z2 = FinAbGroup.free(2)


@dataclass(frozen=True)
class ExampleCheck:
    label: str
    ok: bool
    computed: str
    expected: str

    def to_json(self):
        return {"label": self.label, "ok": self.ok,
                "computed": self.computed, "expected": self.expected}


@dataclass(frozen=True)
class ExampleReport:
    name: str
    description: str
    checks: tuple[ExampleCheck, ...]
    data: dict

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self):
        return {
            "name": self.name,
            "description": self.description,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
            "data": self.data,
        }


def _full_coeff_delta(module: ShiftModule) -> FiniteSubset:
    return FiniteSubset.of(
        module, [module.delta(c.coords) for c in module.coeff.elements()])


def _check_constant(est, expected: MeanRatio, label: str) -> ExampleCheck:
    ok = est.constant_exact and ratio_eq(est.rows[0].ratio, expected)
    return ExampleCheck(label, ok, str(est.rows[0].ratio), str(expected))


def _example_full_shifts(n_max: int) -> ExampleReport:
    seq = FolnerBoxes(Z, n_max)
    reports = {}
    checks = []
    for p in (2, 3):
        module = ShiftModule(Z, FinAbGroup.of(p))
        est = ratio_sequence(module, _full_coeff_delta(module), LOG_CARD, seq)
        reports[f"mod_{p}"] = est.to_json()
        checks.append(_check_constant(
            est, MeanRatio.log_ratio(p, 1), f"full {p}-shift has mean log {p}"))
        counts_ok = all(r.value.count == p ** r.n for r in est.rows)
        checks.append(ExampleCheck(
            f"counts are {p}^n", counts_ok,
            str([r.value.count for r in est.rows]),
            str([p ** r.n for r in est.rows])))
    return ExampleReport(
        "z2-vs-z3",
        "mod-2 and mod-3 full shifts get different mean values log 2 and log 3",
        tuple(checks), reports)


def _example_single_generator(n_max: int) -> ExampleReport:
    module = ShiftModule(Z, FinAbGroup.free(1))
    seq = FolnerBoxes(Z, n_max)
    witness = FiniteSubset.of(module, [module.delta([1])])
    est = ratio_sequence(module, witness, LOG_CARD, seq)
    all_zero = all(r.ratio.is_zero() for r in est.rows)
    checks = (
        ExampleCheck("every ratio is exactly 0", all_zero,
                     str([str(r.ratio) for r in est.rows[:4]]) + "...", "0"),
        ExampleCheck("orbit sums are singletons",
                     all(r.value.count == 1 for r in est.rows),
                     str([r.value.count for r in est.rows[:4]]) + "...", "1"),
    )
    return ExampleReport(
        "single-generator-zero",
        "a single generator over integer coefficients has mean value 0 "
        "although it generates a module of infinite mean",
        checks, {"estimate": est.to_json()})


def _example_scalar_range(n_max: int, k: int = 5) -> ExampleReport:
    module = ShiftModule(Z, FinAbGroup.free(1))
    seq = FolnerBoxes(Z, n_max)
    witness = FiniteSubset.of(
        module, [module.element([((0,), (j,))]) for j in range(k)])
    est = ratio_sequence(module, witness, LOG_CARD, seq)
    checks = (
        _check_constant(est, MeanRatio.log_ratio(k, 1),
                        f"scalar range of size {k} has mean log {k}"),
        ExampleCheck(f"counts are {k}^n",
                     all(r.value.count == k ** r.n for r in est.rows),
                     str([r.value.count for r in est.rows]),
                     str([k ** r.n for r in est.rows])),
    )
    return ExampleReport(
        "scalar-range-log-k",
        f"the witness {{0..{k - 1}}} times a point mass has mean log {k}",
        checks, {"estimate": est.to_json()})


def _example_torsion_nonadditive(n_max: int) -> ExampleReport:
    seq = FolnerBoxes(Z, n_max)
    spec = tors_log(2)
    square = ShiftModule(Z, FinAbGroup.of(2, 2))
    est_square = ratio_sequence(square, _full_coeff_delta(square), spec, seq)
    z4 = ShiftModule(Z, FinAbGroup.of(4))
    est_z4 = ratio_sequence(z4, _full_coeff_delta(z4), spec, seq)
    checks = (
        _check_constant(est_square, MeanRatio.log_ratio(4, 1),
                        "squared mod-2 shift: torsion mean 2 log 2"),
        _check_constant(est_z4, MeanRatio.log_ratio(2, 1),
                        "mod-4 shift: torsion mean log 2"),
        ExampleCheck("torsion counts 4^n vs 2^n",
                     all(r.value.count == 4 ** r.n for r in est_square.rows)
                     and all(r.value.count == 2 ** r.n for r in est_z4.rows),
                     "as computed", "4^n and 2^n"),
    )
    return ExampleReport(
        "torsion-nonadditive",
        "the 2-torsion mean distinguishes a squared mod-2 shift from the "
        "mod-4 shift, so the torsion weak length is not additive",
        checks, {"square": est_square.to_json(), "mod4": est_z4.to_json()})


def _example_scalar_range_bound(n_max: int, scalar_count: int = 16) -> ExampleReport:
    module = ShiftModule(Z, FinAbGroup.free(1))
    seq = FolnerBoxes(Z, n_max)
    f = module.element([((0,), (1,)), ((1,), (1,))])  # support K = {0, 1}
    support_size = len(f.items)
    witness = FiniteSubset.of(
        module, [module.element([(g, (j * c[0],)) for g, c in f.items])
                 for j in range(scalar_count)])
    est = ratio_sequence(module, witness, LOG_CARD, seq)
    bound = MeanRatio.log_ratio(scalar_count, support_size ** 2)
    every_ratio_ok = all(ratio_le(bound, r.ratio) for r in est.rows)
    checks = (
        ExampleCheck(
            f"every ratio >= log {scalar_count} / {support_size}^2",
            every_ratio_ok and len(est.rows) == n_max,
            str([str(r.ratio) for r in est.rows[:3]]) + "...",
            f">= {bound}"),
        ExampleCheck(
            f"counts are {scalar_count}^n (enumerated, then product-structure)",
            all(r.value.count == scalar_count ** r.n for r in est.rows),
            str([(r.n, r.method) for r in est.rows]),
            f"{scalar_count}^n"),
    )
    return ExampleReport(
        "scalar-range-bound",
        "scalar multiples of a two-point generator: every Folner ratio "
        "dominates log N / |support|^2, the necessary condition for the "
        "infinite-mean lower bound",
        checks, {"estimate": est.to_json()})


def _example_quotient_action(n_max: int) -> ExampleReport:
    # mod-2 coefficients on the coset line of Z^2 -> Z: support grows
    # along one axis only, so counts are 2^n against box size n^2
    module = ShiftModule(Z2, FinAbGroup.of(2),
                         action=AbHom.from_rows(Z2, Z, [[1], [0]]))
    seq = FolnerBoxes(Z2, n_max)
    witness = FiniteSubset.of(module, [module.zero(), module.delta([1])])
    est = ratio_sequence(module, witness, LOG_CARD, seq)
    counts_ok = all(r.value.count == 2 ** r.n for r in est.rows)
    final = est.rows[-1]
    final_bound = MeanRatio.log_ratio(2, n_max)
    checks = (
        ExampleCheck("counts are 2^n on n^2 boxes", counts_ok,
                     str([r.value.count for r in est.rows]),
                     "2^n"),
        ExampleCheck(f"ratio at n={n_max} is <= log(2)/{n_max}",
                     ratio_le(final.ratio, final_bound),
                     str(final.ratio), f"<= {final_bound}"),
    )
    return ExampleReport(
        "quotient-action-zero",
        "an action through an infinite-index quotient line has mean value 0",
        checks, {"estimate": est.to_json()})


def _example_addition_coeff(n_max: int) -> ExampleReport:
    m2 = ShiftModule(Z, FinAbGroup.of(4))
    n1 = coeff_quotient(m2, [[2]])
    seq = FolnerBoxes(Z, n_max)
    w_total = _full_coeff_delta(m2)
    w_sub = FiniteSubset.of(m2, [m2.zero(), m2.delta([2])])
    w_lift = FiniteSubset.of(m2, [m2.zero(), m2.delta([1])])
    report = addition_report(m2, n1, w_sub, w_total, w_lift, LOG_CARD, seq)
    checks = (
        ExampleCheck("verdict EXACT-EQUAL: log 4 = log 2 + log 2",
                     report.verdict == "EXACT-EQUAL", report.verdict, "EXACT-EQUAL"),
        ExampleCheck("easy direction holds on every row",
                     report.easy_direction_ok, str(report.easy_direction_ok), "True"),
        ExampleCheck("counts 4^n = 2^n * 2^n",
                     all(r.value.count == 4 ** r.n for r in report.total.rows)
                     and all(r.value.count == 2 ** r.n for r in report.submodule.rows)
                     and all(r.value.count == 2 ** r.n for r in report.quotient.rows),
                     "as computed", "4^n, 2^n, 2^n"),
    )
    return ExampleReport(
        "addition-coeff-z4",
        "mod-4 shift against its mod-2 coefficient submodule: the mean "
        "splits exactly as log 4 = log 2 + log 2",
        checks, {"report": report.to_json()})


def _example_addition_principal(n_max: int) -> ExampleReport:
    m2 = ShiftModule(Z, FinAbGroup.of(2))
    f = m2.element([((0,), (1,)), ((1,), (1,)), ((3,), (1,))])
    n1 = principal_quotient(m2, [f])
    seq = FolnerBoxes(Z, n_max)
    w_total = FiniteSubset.of(m2, [m2.zero(), m2.delta([1])])
    w_sub = FiniteSubset.of(m2, [m2.zero(), f])
    w_lift = FiniteSubset.of(m2, [m2.zero(), m2.delta([1])])
    report = addition_report(m2, n1, w_sub, w_total, w_lift, LOG_CARD, seq)
    quot, _ = n1
    quotient_card = quot.cardinality()
    small_bound = MeanRatio.log_ratio(int(quotient_card), 1)
    checks = (
        ExampleCheck("quotient has exactly 8 normal forms",
                     quotient_card == 8, str(quotient_card), "8"),
        ExampleCheck("quotient values stay <= log 8 (mean 0 certified)",
                     all(ratio_le(MeanRatio(r.value, 1), small_bound)
                         for r in report.quotient.rows)
                     and report.quotient.limit.kind == "finite-module",
                     report.quotient.limit.kind, "finite-module"),
        ExampleCheck("verdict EXACT-EQUAL: log 2 = log 2 + 0",
                     report.verdict == "EXACT-EQUAL", report.verdict, "EXACT-EQUAL"),
        ExampleCheck("easy direction holds on every row",
                     report.easy_direction_ok, str(report.easy_direction_ok), "True"),
    )
    return ExampleReport(
        "addition-principal-z2",
        "mod-2 shift against the submodule generated by 1 + t + t^3: a "
        "finite quotient of 8 elements carries mean 0 and the mean splits "
        "as log 2 = log 2 + 0",
        checks, {"report": report.to_json()})


_REGISTRY = {
    "z2-vs-z3": (_example_full_shifts, 12),
    "single-generator-zero": (_example_single_generator, 25),
    "scalar-range-log-k": (_example_scalar_range, 6),
    "torsion-nonadditive": (_example_torsion_nonadditive, 9),
    "scalar-range-bound": (_example_scalar_range_bound, 10),
    "quotient-action-zero": (_example_quotient_action, 10),
    "addition-coeff-z4": (_example_addition_coeff, 8),
    "addition-principal-z2": (_example_addition_principal, 10),
}


def example_names():
    return sorted(_REGISTRY)


def run_example(name: str, n_max: int | None = None) -> ExampleReport:
    if name not in _REGISTRY:
        raise DomainError(f"unknown example {name!r}; known: {', '.join(example_names())}")
    builder, default = _REGISTRY[name]
    return builder(n_max if n_max is not None else default)
