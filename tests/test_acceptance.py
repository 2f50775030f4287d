"""Acceptance suite: one test per criterion, printed as one line each.

Every asserted value is exact (integer counts, cross-multiplied log
ratios, rationals); floats appear only in printed commentary.
"""

import json
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from mwl.bivariant import COVER_LOG, check_upgrading_proper, cover_bivariant
from mwl.cli import run
from mwl.finabelian import AbHom, FinAbGroup, quotient_group
from mwl.groupring import ShiftModule, coeff_quotient, principal_quotient
from mwl.meanlen import FolnerBoxes, addition_report, ratio_sequence
from mwl.subsets import FiniteSubset, map_subset
from mwl.values import MeanRatio, ratio_eq, ratio_le, value_add, value_le
from mwl.weaklength import GEN, LOG_CARD, NU, RANK, check_axiom, tors_log

SEED = 20260810
Z = FinAbGroup.free(1)
Z2 = FinAbGroup.free(2)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {description}")


def full_delta_witness(module):
    return FiniteSubset.of(module, [module.delta(c.coords)
                                    for c in module.coeff.elements()])


def test_criterion_01_full_shift_values():
    with criterion(1, "full shifts: mod-2 mean log 2, mod-3 mean log 3, n <= 12"):
        for p in (2, 3):
            module = ShiftModule(Z, FinAbGroup.of(p))
            est = ratio_sequence(module, full_delta_witness(module), LOG_CARD,
                                 FolnerBoxes(Z, 12))
            assert [r.value.count for r in est.rows] == [p ** n for n in range(1, 13)]
            assert est.constant_exact
            assert ratio_eq(est.rows[0].ratio, MeanRatio.log_ratio(p, 1))
            assert est.limit.exact


def test_criterion_02_point_mass_zero():
    with criterion(2, "a single point mass has ratio exactly 0 for n <= 25"):
        module = ShiftModule(Z, FinAbGroup.free(1))
        witness = FiniteSubset.of(module, [module.delta([1])])
        est = ratio_sequence(module, witness, LOG_CARD, FolnerBoxes(Z, 25))
        assert len(est.rows) == 25
        assert all(r.value.count == 1 for r in est.rows)
        assert all(r.ratio.is_zero() for r in est.rows)


def test_criterion_03_scalar_range_log5():
    with criterion(3, "scalar range of size 5: counts 5^n, ratio exactly log 5"):
        module = ShiftModule(Z, FinAbGroup.free(1))
        witness = FiniteSubset.of(
            module, [module.element([((0,), (j,))]) for j in range(5)])
        est = ratio_sequence(module, witness, LOG_CARD, FolnerBoxes(Z, 6))
        assert [r.value.count for r in est.rows] == [5 ** n for n in range(1, 7)]
        assert est.constant_exact
        assert ratio_eq(est.rows[0].ratio, MeanRatio.log_ratio(5, 1))


def test_criterion_04_torsion_mean_nonadditive():
    with criterion(4, "2-torsion means: squared mod-2 shift 2 log 2 vs mod-4 shift log 2"):
        seq = FolnerBoxes(Z, 8)
        square = ShiftModule(Z, FinAbGroup.of(2, 2))
        est_sq = ratio_sequence(square, full_delta_witness(square), tors_log(2), seq)
        assert [r.value.count for r in est_sq.rows] == [4 ** n for n in range(1, 9)]
        assert ratio_eq(est_sq.rows[0].ratio, MeanRatio.log_ratio(4, 1))

        z4 = ShiftModule(Z, FinAbGroup.of(4))
        est_z4 = ratio_sequence(z4, full_delta_witness(z4), tors_log(2), seq)
        assert [r.value.count for r in est_z4.rows] == [2 ** n for n in range(1, 9)]
        assert ratio_eq(est_z4.rows[0].ratio, MeanRatio.log_ratio(2, 1))
        assert not ratio_eq(est_sq.rows[0].ratio, est_z4.rows[0].ratio)


def test_criterion_05_addition_coefficient_quotient():
    with criterion(5, "addition formula, coefficient quotient: log 4 = log 2 + log 2"):
        m2 = ShiftModule(Z, FinAbGroup.of(4))
        n1 = coeff_quotient(m2, [[2]])
        seq = FolnerBoxes(Z, 8)
        report = addition_report(
            m2, n1,
            FiniteSubset.of(m2, [m2.zero(), m2.delta([2])]),
            full_delta_witness(m2),
            FiniteSubset.of(m2, [m2.zero(), m2.delta([1])]),
            LOG_CARD, seq)
        assert report.verdict == "EXACT-EQUAL"
        assert all(r.value.count == 4 ** r.n for r in report.total.rows)
        assert all(r.value.count == 2 ** r.n for r in report.submodule.rows)
        assert all(r.value.count == 2 ** r.n for r in report.quotient.rows)
        assert report.easy_direction_ok


def test_criterion_06_addition_principal_quotient():
    with criterion(6, "addition formula, principal quotient: log 2 = log 2 + 0, "
                      "8 normal forms"):
        m2 = ShiftModule(Z, FinAbGroup.of(2))
        f = m2.element([((0,), (1,)), ((1,), (1,)), ((3,), (1,))])
        n1 = principal_quotient(m2, [f])
        quot, _ = n1
        assert quot.cardinality() == 8
        seq = FolnerBoxes(Z, 10)
        report = addition_report(
            m2, n1,
            FiniteSubset.of(m2, [m2.zero(), f]),
            FiniteSubset.of(m2, [m2.zero(), m2.delta([1])]),
            FiniteSubset.of(m2, [m2.zero(), m2.delta([1])]),
            LOG_CARD, seq)
        assert all(r.value.count == 2 ** r.n for r in report.submodule.rows)
        # quotient ratios are bounded by 3 log 2 / n, exactly: count <= 8
        for r in report.quotient.rows:
            assert r.value.count <= 8
            assert ratio_le(r.ratio, MeanRatio.log_ratio(8, r.n))
        final = report.quotient.rows[-1]
        assert final.ratio.as_float() <= 0.21
        assert report.quotient.limit.kind == "finite-module"
        assert report.verdict == "EXACT-EQUAL"
        assert report.easy_direction_ok


def test_criterion_07_upgrading_oracle_and_triangle():
    with criterion(7, "200 seeded instances: kernel-witness cover equals image "
                      "count; triangle inequality holds"):
        report = check_upgrading_proper(COVER_LOG, SEED, 200)
        assert report.passed, report.counterexample
        assert report.checked == 200


def test_criterion_08_strictness_witness():
    with criterion(8, "fixed instance: quotient count 0 < min cover log 2"):
        g = FinAbGroup.free(2)
        a = FiniteSubset.of(g, [g.element([1, 0]), g.element([1, 1])])
        b = FiniteSubset.of(g, [g.element([0, 1])])
        cover_value, _ = cover_bivariant(g, a, b)
        quot, proj = quotient_group(g, list(b))
        naive = len(map_subset(proj, a))
        assert naive == 1  # log 1 = 0
        assert cover_value.count == 2  # log 2
        assert naive < cover_value.count


AXIOM_LIST = ("regularity", "product", "quotient", "upper_continuity",
              "subadd_sum", "union_vs_sum", "invariance")


def test_criterion_09_axiom_suites():
    with criterion(9, "axiom suites pass on 200 samples; gen fails product "
                      "with the C2 x C3 witness; exit codes 0/2"):
        for spec in (LOG_CARD, tors_log(2), RANK, NU):
            for axiom in AXIOM_LIST:
                report = check_axiom(spec, axiom, SEED, 200)
                assert report.passed, (str(spec), axiom, report.counterexample)
        for spec in (LOG_CARD, NU, RANK):
            report = check_axiom(spec, "strong_quotient", SEED, 200)
            assert report.passed, (str(spec), report.counterexample)
        gen_report = check_axiom(GEN, "product", SEED, 200)
        assert not gen_report.passed
        w = gen_report.counterexample
        assert (w["g1"], w["g2"]) == ("C2", "C3")
        assert (w["value_product"], w["value_sum"]) == ("1", "2")

        import contextlib
        import io

        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["wl-axioms", "--scenario",
                        str(SCENARIOS / "gen-product.json"), "--format", "json"]) == 2
            assert run(["biv-check", "--budget", "25", "--format", "json"]) == 0


def test_criterion_10_scalar_range_necessary_condition():
    with criterion(10, "scalar multiples of 1+t, N=16: every ratio for "
                       "n <= 10 is >= log 16 / 4 = log 2"):
        module = ShiftModule(Z, FinAbGroup.free(1))
        seq = FolnerBoxes(Z, 10)
        f = module.element([((0,), (1,)), ((1,), (1,))])
        witness = FiniteSubset.of(
            module, [module.element([(g, (j * c[0],)) for g, c in f.coords])
                     for j in range(16)])
        est = ratio_sequence(module, witness, LOG_CARD, seq)
        assert len(est.rows) == 10 and est.truncated_at is None
        bound = MeanRatio.log_ratio(16, 4)
        for r in est.rows:
            assert ratio_le(bound, r.ratio)
        enumerated = [r.n for r in est.rows if r.method == "enumerated"]
        assert enumerated == [1, 2, 3, 4]  # cross-checked against the structural rule
        assert [r.value.count for r in est.rows] == [16 ** n for n in range(1, 11)]


def test_criterion_11_quotient_action_zero():
    with criterion(11, "action through a quotient line: counts 2^n on n^2 "
                       "boxes, ratio <= log(2)/10 at n = 10"):
        module = ShiftModule(Z2, FinAbGroup.of(2),
                             action=AbHom.from_rows(Z2, Z, [[1], [0]]))
        witness = FiniteSubset.of(module, [module.zero(), module.delta([1])])
        est = ratio_sequence(module, witness, LOG_CARD, FolnerBoxes(Z2, 10))
        assert [r.value.count for r in est.rows] == [2 ** n for n in range(1, 11)]
        final = est.rows[-1]
        assert final.folner_size == 100
        assert ratio_le(final.ratio, MeanRatio.log_ratio(2, 10))


def test_criterion_12_folner_and_fekete_certificates():
    with criterion(12, "Fekete subadditivity holds on every computed pair for "
                       "base-pointed witnesses; invariance counts reproduce"):
        seq = FolnerBoxes(Z, 10)
        cases = [
            (ShiftModule(Z, FinAbGroup.of(2)), LOG_CARD),
            (ShiftModule(Z, FinAbGroup.of(4)), tors_log(2)),
            (ShiftModule(Z, FinAbGroup.free(1)), RANK),
        ]
        for module, spec in cases:
            witness = (full_delta_witness(module) if module.coeff.torsion
                       else FiniteSubset.of(module, [module.zero(), module.delta([1]),
                                                     -module.delta([1])]))
            est = ratio_sequence(module, witness, spec, seq)
            assert est.zero_in_a and est.fekete_checked
            assert est.fekete_ok
            # explicit pairwise re-check of the subadditivity inequalities
            values = {r.n: r.value for r in est.rows}
            for n in values:
                for m in values:
                    if n + m in values:
                        assert value_le(values[n + m], value_add(values[n], values[m]))

        # interior points s of F_10 with K + s inside F_10: (K, delta)-invariant
        # for delta = 1/10, not for 1/20, and every point is interior for K = {0}
        box = seq.box(10)
        members = {s.coords for s in box}

        def interior(k):
            return sum(all((t + s).coords in members for t in k) for s in box)

        k = (Z.element([0]), Z.element([1]))
        assert len(box) == 10 and interior(k) == 9
        assert interior(k) >= (1 - Fraction(1, 10)) * len(box)
        assert interior(k) < (1 - Fraction(1, 20)) * len(box)
        assert interior(k[:1]) == 10
