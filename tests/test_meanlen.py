from dataclasses import replace

import pytest

from mwl import registry
from mwl.errors import DomainError
from mwl.finabelian import FinAbGroup
from mwl.groupring import ShiftModule, coeff_quotient
from mwl.meanlen import (
    CertificateInfo,
    FolnerBoxes,
    addition_report,
    eval_module_subset,
    ratio_sequence,
)
from mwl.registry import example_names, run_example
from mwl.subsets import FiniteSubset
from mwl.values import MeanRatio, ratio_eq
from mwl.weaklength import LOG_CARD, NU, RANK, tors_log

Z = FinAbGroup.free(1)


def test_boxes_cover_finite_part():
    gamma = FinAbGroup((2,), 1)
    seq = FolnerBoxes(gamma, 3)
    assert seq.size(3) == 6
    assert len(seq.box(3)) == 6
    # torsion coordinates come first
    assert {s.coords for s in seq.box(3)} == {(t, f) for t in range(2) for f in range(3)}


def test_full_shift_ratio_table():
    m = ShiftModule(Z, FinAbGroup.of(2))
    seq = FolnerBoxes(Z, 12)
    witness = FiniteSubset.of(m, [m.zero(), m.delta([1])])
    est = ratio_sequence(m, witness, LOG_CARD, seq)
    assert est.constant_exact and est.zero_in_a
    assert [r.value.count for r in est.rows] == [2 ** n for n in range(1, 13)]
    assert est.limit.kind == "product-structure" and est.limit.exact
    assert ratio_eq(est.limit.ratio, MeanRatio.log_ratio(2, 1))
    assert est.fekete_checked and est.fekete_ok


def test_point_mass_gives_zero():
    m = ShiftModule(Z, FinAbGroup.free(1))
    est = ratio_sequence(m, FiniteSubset.of(m, [m.delta([1])]), LOG_CARD,
                         FolnerBoxes(Z, 25))
    assert all(r.ratio.is_zero() for r in est.rows)
    assert not est.zero_in_a
    # a single-point witness gets the product-structure certificate, so
    # the zero value is the net limit, not just a box observation
    assert est.limit.kind == "product-structure" and est.limit.exact
    assert est.limit.ratio.is_zero()


def test_constant_prefix_is_not_claimed_exact():
    # inside the 8-element quotient the counts 2, 4, 8 look constant for
    # n <= 3; the limit must not be certified from that prefix
    m2 = ShiftModule(Z, FinAbGroup.of(2))
    f = m2.element([((0,), (1,)), ((1,), (1,)), ((3,), (1,))])
    quot = ShiftModule(Z, FinAbGroup.of(2), quotient=(f.coords,))
    witness = FiniteSubset.of(quot, [quot.zero(), quot.delta([1])])
    est = ratio_sequence(quot, witness, LOG_CARD, FolnerBoxes(Z, 3))
    assert est.constant_exact  # the prefix does look constant
    # but the certificate is the finite-module one with limit zero
    assert est.limit.kind == "finite-module"
    assert est.limit.ratio.is_zero()
    # nu of {d} over Z is +inf on every row, and no rule certifies it
    m = ShiftModule(Z, FinAbGroup.free(1))
    report = ratio_sequence(m, FiniteSubset.of(m, [m.delta([1])]), NU,
                            FolnerBoxes(Z, 4)).to_json()
    assert report["flags"]["constant_exact"]
    assert report["limit"] == {"certificate": None, "ratio": None, "exact": False}


def test_torsion_ratio_table():
    m = ShiftModule(Z, FinAbGroup.of(4))
    witness = FiniteSubset.of(m, [m.delta([c]) for c in range(4)])
    est = ratio_sequence(m, witness, tors_log(2), FolnerBoxes(Z, 8))
    assert [r.value.count for r in est.rows] == [2 ** n for n in range(1, 9)]
    assert est.constant_exact


def test_rank_span_shortcut():
    m = ShiftModule(Z, FinAbGroup.free(1))
    witness = FiniteSubset.of(m, [m.zero(), m.delta([1]), -m.delta([1])])
    est = ratio_sequence(m, witness, RANK, FolnerBoxes(Z, 12))
    assert est.constant_exact
    assert all(r.value.q == r.n for r in est.rows)
    assert est.strongly_subadditive and est.doubling_ok


def test_truncation_marker():
    # two incommensurable support points: no structural counting rule,
    # so the table must stop at the cap with a marker
    m = ShiftModule(Z, FinAbGroup.free(1))
    witness = FiniteSubset.of(
        m,
        [m.element([((0,), (j,))]) for j in range(30)]
        + [m.element([((1,), (j,))]) for j in range(1, 31)])
    est = ratio_sequence(m, witness, LOG_CARD, FolnerBoxes(Z, 6))
    assert est.truncated_at is not None
    assert [r.n for r in est.rows] == list(range(1, est.truncated_at))
    assert est.limit.kind is None and not est.limit.exact


def test_certified_counter_extends_table():
    m = ShiftModule(Z, FinAbGroup.free(1))
    seq = FolnerBoxes(Z, 10)
    f = m.element([((0,), (1,)), ((1,), (1,))])
    witness = FiniteSubset.of(
        m, [m.element([(g, (j * c[0],)) for g, c in f.coords]) for j in range(16)])
    # scalar multiples over Z: the product-structure rule covers the rows past the cap
    est = ratio_sequence(m, witness, LOG_CARD, seq)
    assert est.truncated_at is None
    assert [r.value.count for r in est.rows] == [16 ** n for n in range(1, 11)]
    methods = {r.n: r.method for r in est.rows}
    assert methods[4] == "enumerated" and methods[5] == "certified"
    assert est.constant_exact


def test_span_shortcut_agrees_with_materialized_orbits():
    # for base-pointed witnesses the length-induced rows are taken from
    # the union of translates; cross-check against the full Minkowski
    # orbit on seeded random witnesses
    from mwl.groupring import orbit_sum
    from mwl.sampling import XorShift64Star
    from mwl.values import value_cmp

    rng = XorShift64Star(555)
    for _ in range(20):
        coeff = FinAbGroup.free(1) if rng.below(2) else FinAbGroup.of(4)
        m = ShiftModule(Z, coeff)
        pairs = [((rng.below(4),),
                  (rng.below(4) - 2,) if coeff.free_rank else (rng.below(4),))
                 for _ in range(rng.below(3) + 1)]
        witness = FiniteSubset.of(m, [m.zero(), m.element(pairs)])
        seq = FolnerBoxes(Z, rng.below(4) + 1)
        est = ratio_sequence(m, witness, RANK, seq)
        assert len(est.rows) == seq.n_max
        for row in est.rows:
            direct = eval_module_subset(RANK, orbit_sum(witness, seq.box(row.n)))
            assert value_cmp(direct, row.value) == 0


def test_torsion_mean_of_prime_square_modulus():
    # mod-9 shift with the 3-torsion count: counts 3^n, mean log 3
    m = ShiftModule(Z, FinAbGroup.of(9))
    witness = FiniteSubset.of(m, [m.delta([c]) for c in range(9)])
    est = ratio_sequence(m, witness, tors_log(3), FolnerBoxes(Z, 5))
    assert [r.value.count for r in est.rows] == [3 ** n for n in range(1, 6)]
    assert ratio_eq(est.rows[0].ratio, MeanRatio.log_ratio(3, 1))
    assert est.limit.exact


def test_certified_limit_full_delta_over_c2xc2():
    m = ShiftModule(Z, FinAbGroup.of(2, 2))
    witness = FiniteSubset.of(m, [m.delta(c.coords) for c in m.coeff.elements()])
    limit = ratio_sequence(m, witness, LOG_CARD, FolnerBoxes(Z, 8)).limit
    assert limit.exact and ratio_eq(limit.ratio, MeanRatio.log_ratio(4, 1))


def test_certified_limit_trivial_module():
    m = ShiftModule(Z, FinAbGroup())
    witness = FiniteSubset.of(m, [m.zero()])
    limit = ratio_sequence(m, witness, LOG_CARD, FolnerBoxes(Z, 6)).limit
    assert limit.exact and limit.ratio.is_zero()


def test_certified_limit_zero_and_delta_over_z():
    m = ShiftModule(Z, FinAbGroup.free(1))
    witness = FiniteSubset.of(m, [m.zero(), m.delta([1])])
    limit = ratio_sequence(m, witness, LOG_CARD, FolnerBoxes(Z, 6)).limit
    assert limit.exact and ratio_eq(limit.ratio, MeanRatio.log_ratio(2, 1))


def test_addition_report_coeff_quotient():
    m2 = ShiftModule(Z, FinAbGroup.of(4))
    n1 = coeff_quotient(m2, [[2]])
    seq = FolnerBoxes(Z, 8)
    total = FiniteSubset.of(m2, [m2.delta([c]) for c in range(4)])
    sub = FiniteSubset.of(m2, [m2.zero(), m2.delta([2])])
    lift = FiniteSubset.of(m2, [m2.zero(), m2.delta([1])])
    report = addition_report(m2, n1, sub, total, lift, LOG_CARD, seq)
    assert report.verdict == "EXACT-EQUAL"
    assert report.easy_direction_ok
    assert report.total.limit.exact and report.submodule.limit.exact


def test_addition_report_trivial_submodule():
    m2 = ShiftModule(Z, FinAbGroup.of(2))
    n1 = coeff_quotient(m2, [[0]])
    seq = FolnerBoxes(Z, 6)
    w = FiniteSubset.of(m2, [m2.zero(), m2.delta([1])])
    zero_w = FiniteSubset.of(m2, [m2.zero()])
    report = addition_report(m2, n1, zero_w, w, w, LOG_CARD, seq)
    assert report.verdict == "EXACT-EQUAL"
    assert report.submodule.limit.ratio.is_zero()


def test_addition_report_rejects_bad_submodule_witness():
    m2 = ShiftModule(Z, FinAbGroup.of(4))
    n1 = coeff_quotient(m2, [[2]])
    seq = FolnerBoxes(Z, 4)
    total = FiniteSubset.of(m2, [m2.delta([c]) for c in range(4)])
    bad_sub = FiniteSubset.of(m2, [m2.zero(), m2.delta([1])])
    with pytest.raises(DomainError):
        addition_report(m2, n1, bad_sub, total, total, LOG_CARD, seq)


def test_scale_invariance_of_addition_verdict():
    m2 = ShiftModule(Z, FinAbGroup.of(4))
    n1 = coeff_quotient(m2, [[2]])
    total = FiniteSubset.of(m2, [m2.delta([c]) for c in range(4)])
    sub = FiniteSubset.of(m2, [m2.zero(), m2.delta([2])])
    lift = FiniteSubset.of(m2, [m2.zero(), m2.delta([1])])
    verdicts = {addition_report(m2, n1, sub, total, lift, LOG_CARD,
                                FolnerBoxes(Z, n)).verdict
                for n in (4, 6, 8)}
    assert verdicts == {"EXACT-EQUAL"}


def test_product_ratio_tables_add_termwise():
    seq = FolnerBoxes(Z, 8)
    m1 = ShiftModule(Z, FinAbGroup.of(2))
    m2 = ShiftModule(Z, FinAbGroup.of(3))
    prod = ShiftModule(Z, FinAbGroup.of(2, 3))
    est1 = ratio_sequence(m1, FiniteSubset.of(m1, [m1.delta([c]) for c in range(2)]),
                          LOG_CARD, seq)
    est2 = ratio_sequence(m2, FiniteSubset.of(m2, [m2.delta([c]) for c in range(3)]),
                          LOG_CARD, seq)
    estp = ratio_sequence(prod,
                          FiniteSubset.of(prod, [prod.delta(c.coords)
                                                 for c in prod.coeff.elements()]),
                          LOG_CARD, seq)
    for r1, r2, rp in zip(est1.rows, est2.rows, estp.rows):
        assert rp.value.count == r1.value.count * r2.value.count


@pytest.mark.parametrize("name", example_names())
def test_registry_examples_pass(name):
    report = run_example(name)
    assert report.passed, [c.to_json() for c in report.checks if not c.ok]


def test_registry_unknown_name():
    with pytest.raises(DomainError):
        run_example("no-such-example")


def test_registry_limit_check_needs_a_certificate():
    # constant rows are prefix evidence; without a certificate the check fails
    m = ShiftModule(Z, FinAbGroup.of(2))
    witness = FiniteSubset.of(m, [m.zero(), m.delta([1])])
    est = ratio_sequence(m, witness, LOG_CARD, FolnerBoxes(Z, 6))
    expected = MeanRatio.log_ratio(2, 1)
    assert est.constant_exact and registry._check_limit(est, expected, "x").ok
    uncertified = replace(est, limit=CertificateInfo(None, None, False))
    assert not registry._check_limit(uncertified, expected, "x").ok
