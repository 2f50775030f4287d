import pytest

from mwl.errors import DomainError
from mwl.finabelian import FinAbGroup
from mwl.scenario import read_weak_length
from mwl.subsets import FiniteSubset, minkowski_sum, union
from mwl.values import LengthValue, value_add, value_cmp
from mwl.weaklength import (
    GEN,
    LOG_CARD,
    NU,
    RANK,
    check_axiom,
    eval_weak_length,
    tors_log,
)

SEED = 0xA11CE


def subset(g, coord_lists):
    return FiniteSubset.of(g, [g.element(c) for c in coord_lists])


def test_log_card_counts_distinct_elements():
    g = FinAbGroup.free(1)
    a = subset(g, [[0], [1], [2], [3], [4]])
    assert eval_weak_length(LOG_CARD, g, a) == LengthValue.log_count(5)


def test_gen_of_c2_plus_c3_is_one():
    g = FinAbGroup.of(2, 3)
    full = FiniteSubset.of(g, list(g.elements()))
    assert eval_weak_length(GEN, g, full) == LengthValue.rational(1)


def test_nu_counts_elementary_divisor_exponents():
    # <a> = Z/12: elementary divisors 4 = 2^2 and 3, so nu = 3
    g = FinAbGroup.of(12)
    a = subset(g, [[1]])
    assert eval_weak_length(NU, g, a) == LengthValue.rational(3)


def test_nu_infinite_on_free_spans():
    g = FinAbGroup.free(1)
    assert eval_weak_length(NU, g, subset(g, [[1]])).is_infinite()


def test_rank_via_generator_matrix():
    g = FinAbGroup.free(2)
    a = subset(g, [[2, 4], [3, 6]])
    assert eval_weak_length(RANK, g, a) == LengthValue.rational(1)


def test_tors_log_counts_and_domain_error():
    g = FinAbGroup.of(4)
    a = subset(g, [[0], [1], [2]])
    assert eval_weak_length(tors_log(2), g, a) == LengthValue.log_count(2)
    assert eval_weak_length(tors_log(2), g, subset(g, [[0]])).is_zero()
    with pytest.raises(DomainError):
        eval_weak_length(tors_log(2), g, subset(g, [[1], [3]]))


def test_empty_set_rejected():
    g = FinAbGroup.of(2)
    with pytest.raises(DomainError):
        FiniteSubset.of(g, [])


ALL_SPECS = (LOG_CARD, tors_log(2), RANK, NU)
BASIC_AXIOMS = (
    "regularity",
    "product",
    "quotient",
    "upper_continuity",
    "subadd_sum",
    "union_vs_sum",
    "invariance",
)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
@pytest.mark.parametrize("axiom", BASIC_AXIOMS)
def test_axiom_suites_pass(spec, axiom):
    report = check_axiom(spec, axiom, SEED, 200)
    assert report.passed, report.counterexample
    assert report.checked == 200


@pytest.mark.parametrize("spec", (LOG_CARD, NU, RANK), ids=str)
def test_strong_quotient_passes(spec):
    report = check_axiom(spec, "strong_quotient", SEED, 200)
    assert report.passed, report.counterexample


def test_strong_quotient_on_torsion_domain_for_tors_log():
    # empirical status on the k-torsion collection; no general claim made
    report = check_axiom(tors_log(2), "strong_quotient", SEED, 200)
    assert report.passed, report.counterexample


def test_gen_product_fails_with_c2_c3_witness():
    report = check_axiom(GEN, "product", SEED, 200)
    assert not report.passed
    w = report.counterexample
    assert w["sample_index"] == 0
    assert w["g1"] == "C2" and w["g2"] == "C3"
    assert w["value_product"] == "1" and w["value_sum"] == "2"


def test_tors_log_quotient_fails_off_its_domain():
    # gen(Z/4) -> Z/2 reduction sends the non-torsion element 1 onto
    # 2-torsion: log|T_2 meet phi(A)| = log 2 > 0 = log|T_2 meet A|.
    from mwl.finabelian import AbHom
    from mwl.subsets import map_subset

    g = FinAbGroup.of(4)
    h = FinAbGroup.of(2)
    phi = AbHom.from_rows(g, h, [[1]])
    a = subset(g, [[0], [1]])
    val = eval_weak_length(tors_log(2), g, a)
    img = eval_weak_length(tors_log(2), h, map_subset(phi, a))
    assert value_cmp(img, val) > 0


def test_union_vs_sum_fixed_instance_numbers():
    # A = {e1, 2(e1+e2), 3(e1+e2)}, B = {e1, 2e2} in Z^2:
    # |A u B| = 4 and log 4 < log 3 + log 2.
    g = FinAbGroup.free(2)
    a = subset(g, [[1, 0], [2, 2], [3, 3]])
    b = subset(g, [[1, 0], [0, 2]])
    val_union = eval_weak_length(LOG_CARD, g, union(a, b))
    assert val_union == LengthValue.log_count(4)
    bound = value_add(eval_weak_length(LOG_CARD, g, a), eval_weak_length(LOG_CARD, g, b))
    assert bound == LengthValue.log_count(6)
    assert value_cmp(val_union, bound) < 0
    # with base points adjoined the monotone comparison holds as well
    zero = subset(g, [[0, 0]])
    a0, b0 = union(a, zero), union(b, zero)
    assert value_cmp(
        eval_weak_length(LOG_CARD, g, union(a0, b0)),
        eval_weak_length(LOG_CARD, g, minkowski_sum(a0, b0)),
    ) <= 0


def test_rank_strong_quotient_on_free_instance():
    # finite-group streams keep rank at 0; a free instance exercises it
    from mwl.finabelian import AbHom
    from mwl.subsets import map_subset

    g = FinAbGroup.free(2)
    z = FinAbGroup.free(1)
    proj = AbHom.from_rows(g, z, [[1], [0]])
    a = subset(g, [[0, 0], [1, 0], [0, 1]])
    b = subset(g, [[0, 0], [0, 2]])  # inside ker proj
    lhs = eval_weak_length(RANK, g, minkowski_sum(a, b))
    rhs = value_add(eval_weak_length(RANK, z, map_subset(proj, a)),
                    eval_weak_length(RANK, g, b))
    assert lhs == LengthValue.rational(2)
    assert value_cmp(lhs, rhs) >= 0


def test_nu_infinity_flows_through_strong_quotient():
    from mwl.finabelian import AbHom
    from mwl.subsets import map_subset

    g = FinAbGroup.of(0, 2)  # Z + C2, free coordinate second after canon
    tor_coord = 0 if g.torsion else 1
    free_elt = [0, 0]
    free_elt[1 - tor_coord] = 1
    a = subset(g, [[0, 0], free_elt])
    b = subset(g, [[0, 0]])
    phi = AbHom.identity(g)
    lhs = eval_weak_length(NU, g, minkowski_sum(a, b))
    rhs = value_add(eval_weak_length(NU, g, map_subset(phi, a)),
                    eval_weak_length(NU, g, b))
    assert lhs.is_infinite() and rhs.is_infinite()
    assert value_cmp(lhs, rhs) == 0


def test_check_axiom_deterministic():
    first = check_axiom(GEN, "product", SEED, 50)
    second = check_axiom(GEN, "product", SEED, 50)
    assert first == second


def test_spec_json_round_trip():
    for spec in (*ALL_SPECS, GEN):
        assert read_weak_length(spec.to_json()) == spec
