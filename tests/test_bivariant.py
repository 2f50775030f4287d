from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwl.bivariant import (
    COVER_LOG,
    BivariantSpec,
    bivariant_eval,
    check_upgrading_proper,
    cover_bivariant,
    kernel_witness,
    quotient_bivariant,
)
from mwl.errors import ConfigurationError, DomainError
from mwl.finabelian import (
    AbHom,
    FinAbGroup,
    direct_sum,
    hom_kernel,
    intersect_subgroups,
    quotient_group,
    subgroup_generated,
)
from mwl.sampling import XorShift64Star, random_finite_group, random_hom, random_subset
from mwl.scenario import read_bivariant
from mwl.subsets import Element, FiniteSubset, map_subset, minkowski_sum, product_subset, union
from mwl.values import LengthValue, value_add, value_cmp
from mwl.weaklength import LOG_CARD, NU, RANK, eval_weak_length

SEED = 0xB1B2


def subset(g, coord_lists):
    return FiniteSubset.of(g, [g.element(c) for c in coord_lists])


def test_cover_of_zero_is_log_card():
    g = FinAbGroup.free(1)
    a = subset(g, [[0], [3], [7]])
    value, cover = cover_bivariant(g, a, subset(g, [[0]]))
    assert value == LengthValue.log_count(3)
    assert cover.items == a.items


def test_cover_strictness_witness():
    # A = {(1,0),(1,1)} lies in a single coset of <(0,1)>, so the
    # quotient count gives log 1 = 0 while the exact min cover needs two
    # translates: the naive quotient upgrading is not proper.
    g = FinAbGroup.free(2)
    a = subset(g, [[1, 0], [1, 1]])
    b = subset(g, [[0, 1]])
    value, _ = cover_bivariant(g, a, b)
    assert value == LengthValue.log_count(2)

    quot, proj = quotient_group(g, list(b))
    naive = eval_weak_length(LOG_CARD, quot, map_subset(proj, a))
    assert naive.is_zero()
    assert value_cmp(naive, value) < 0
    # the improper bound l(A) <= l'(A,B) + l(B) indeed fails here
    la = LengthValue.log_count(len(a))
    lb = LengthValue.log_count(len(b))
    assert value_cmp(la, value_add(naive, lb)) > 0
    # the min cover is log 2 for the other singleton too
    other, _ = cover_bivariant(g, a, subset(g, [[1, 0]]))
    assert other == LengthValue.log_count(2)


def test_cover_matches_quotient_count_on_kernel_witness_interval():
    g = FinAbGroup.free(1)
    a = subset(g, [[0], [1], [2], [3]])
    b = subset(g, [[-2], [0], [2]])
    value, _ = cover_bivariant(g, a, b)
    assert value == LengthValue.log_count(2)


def test_cover_candidate_cap():
    g = FinAbGroup.free(1)
    a = subset(g, [[i] for i in range(6)])
    b = subset(g, [[10 * i] for i in range(6)])
    with pytest.raises(ConfigurationError):
        cover_bivariant(g, a, b, max_candidates=24)


def test_cover_deterministic_lex_witness():
    g = FinAbGroup.of(6)
    a = subset(g, [[0], [1], [2], [3]])
    b = subset(g, [[0], [3]])
    v1, c1 = cover_bivariant(g, a, b)
    v2, c2 = cover_bivariant(g, a, b)
    assert (v1, c1.items) == (v2, c2.items)
    # a translate {c, c+3} double-covers only {0,3}, so three are needed,
    # and the lex-least minimum cover is {0,1,2}
    assert v1 == LengthValue.log_count(3)
    assert sorted(c1.items) == [(0,), (1,), (2,)]


def _first_minimum_cover(a, b):
    """Reference: the first itertools.combinations of the sorted A - B
    that covers A, at the smallest size."""
    g = a.ambient
    candidates = sorted({(x - y).coords for x in a for y in b})
    for size in range(1, len(a) + 1):
        for combo in combinations(candidates, size):
            if a.items <= minkowski_sum(FiniteSubset.from_items(g, combo), b).items:
                return size, combo
    raise AssertionError("A - B does not cover A")


@st.composite
def cover_instances(draw):
    """(A, B) with |A| <= 6 and |B| <= 3 in C_n (2 <= n <= 12), C2 x C4,
    or a small box of Z^2."""
    kind = draw(st.sampled_from(["cyclic", "c2xc4", "box"]))
    if kind == "cyclic":
        n = draw(st.integers(2, 12))
        g = FinAbGroup.of(n)
        coords = st.tuples(st.integers(0, n - 1))
    elif kind == "c2xc4":
        g = FinAbGroup.of(2, 4)
        coords = st.tuples(st.integers(0, 1), st.integers(0, 3))
    else:
        g = FinAbGroup.free(2)
        coords = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    a = draw(st.lists(coords, min_size=1, max_size=6))
    b = draw(st.lists(coords, min_size=1, max_size=3))
    return subset(g, a), subset(g, b)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(cover_instances())
def test_cover_matches_brute_force_first_minimum_cover(instance):
    a, b = instance
    size, combo = _first_minimum_cover(a, b)
    value, cover = cover_bivariant(a.ambient, a, b)
    assert value == LengthValue.log_count(size)
    assert sorted(cover.items) == list(combo)


def test_cover_log_product_is_only_submultiplicative():
    # C3 x C3 is covered by 3 translates of {0,1}^2, while each C3 needs 2
    c3 = FinAbGroup.of(3)
    a = subset(c3, [[0], [1], [2]])
    b = subset(c3, [[0], [1]])
    total, e1, e2 = direct_sum(c3, c3)
    factor, _ = cover_bivariant(c3, a, b)
    product, _ = cover_bivariant(total, product_subset(a, e1, a, e2), product_subset(b, e1, b, e2))
    assert factor == LengthValue.log_count(2)
    assert product == LengthValue.log_count(3)
    assert value_add(factor, factor) == LengthValue.log_count(4)


def test_quotient_bivariant_examples():
    spec_rank = BivariantSpec("quotient_length", RANK)
    g = FinAbGroup.free(2)
    a = subset(g, [[1, 0], [0, 1]])
    assert quotient_bivariant(spec_rank, g, a, subset(g, [[0, 1]])) == LengthValue.rational(1)
    # b = {0} reduces to the base length of <a>
    assert quotient_bivariant(spec_rank, g, a, subset(g, [[0, 0]])) == LengthValue.rational(2)

    spec_nu = BivariantSpec("quotient_length", NU)
    z4 = FinAbGroup.of(4)
    assert quotient_bivariant(spec_nu, z4, subset(z4, [[1]]), subset(z4, [[2]])) \
        == LengthValue.rational(1)


def test_kernel_witness_cover_log():
    z = FinAbGroup.free(1)
    z2 = FinAbGroup.of(2)
    phi = AbHom.from_rows(z, z2, [[1]])
    a = subset(z, [[0], [1], [2], [3]])
    b = kernel_witness(COVER_LOG, phi, a)
    assert {x.coords for x in b} == {(-2,), (0,), (2,)}
    value, _ = cover_bivariant(z, a, b)
    img = map_subset(phi, a)
    assert value == LengthValue.log_count(len(img))


def test_kernel_witness_injective_hom():
    g = FinAbGroup.of(5)
    phi = AbHom.identity(g)
    a = subset(g, [[1], [2]])
    b = kernel_witness(COVER_LOG, phi, a)
    assert {x.coords for x in b} == {(0,)}
    value, _ = cover_bivariant(g, a, b)
    assert value == LengthValue.log_count(2)


def test_kernel_witness_quotient_length():
    spec = BivariantSpec("quotient_length", RANK)
    g = FinAbGroup.free(2)
    z = FinAbGroup.free(1)
    proj = AbHom.from_rows(g, z, [[1], [0]])
    a = subset(g, [[1, 0], [0, 1]])
    b = kernel_witness(spec, proj, a)
    # generates <a> meet ker = <(0,1)>
    span, _ = subgroup_generated(g, list(b))
    assert (span.torsion, span.free_rank) == ((), 1)
    assert quotient_bivariant(spec, g, a, b) == LengthValue.rational(1)
    img_rank = eval_weak_length(RANK, z, map_subset(proj, a))
    assert img_rank == LengthValue.rational(1)


def _reference_quotient_witness(phi, a):
    """Slow path: generators of ker phi from hom_kernel, intersected with
    <A> by intersect_subgroups."""
    g = phi.source
    _, incl = hom_kernel(phi)
    ker_gens = [Element(g, row) for row in incl.matrix]
    gens = intersect_subgroups(g, list(a), ker_gens) if ker_gens else []
    return FiniteSubset.of(g, gens + [g.zero()])


QUOTIENT_NU = BivariantSpec("quotient_length", NU)


def test_quotient_kernel_witness_matches_reference_on_seeded_instances():
    rng = XorShift64Star(0x51DE)
    for _ in range(1000):
        g = random_finite_group(rng)
        h = random_finite_group(rng)
        a = random_subset(rng, g)
        phi = random_hom(rng, g, h)
        assert kernel_witness(QUOTIENT_NU, phi, a) == _reference_quotient_witness(phi, a)


@pytest.mark.parametrize("rows", [[[1], [2]], [[3], [-6]], [[1], [0]], [[0], [0]]], ids=str)
@pytest.mark.parametrize("coords", [[[1, 0], [0, 1]], [[2, 1], [1, 3]], [[0, 0], [1, 1], [3, -1]]],
                         ids=str)
def test_quotient_kernel_witness_matches_reference_on_free_maps(rows, coords):
    z2, z = FinAbGroup.free(2), FinAbGroup.free(1)
    phi = AbHom.from_rows(z2, z, rows)
    a = subset(z2, coords)
    witness = kernel_witness(QUOTIENT_NU, phi, a)
    assert witness == _reference_quotient_witness(phi, a)
    assert all(phi(x).is_zero() for x in witness)


def test_degenerate_triple_all_zero():
    g = FinAbGroup.of(4)
    zero = subset(g, [[0]])
    for spec in (COVER_LOG, BivariantSpec("quotient_length", NU)):
        assert bivariant_eval(spec, g, zero, zero).is_zero()


@pytest.mark.parametrize(
    "spec",
    (COVER_LOG, BivariantSpec("quotient_length", NU), BivariantSpec("quotient_length", RANK)),
    ids=str,
)
def test_upgrading_proper_on_seeded_samples(spec):
    report = check_upgrading_proper(spec, SEED, 100)
    assert report.passed, report.counterexample
    assert report.checked == 100


def test_additivity_of_quotient_upgrading():
    # l(A u B) = l(A, B) + l(B) for the length-induced upgrading
    spec = BivariantSpec("quotient_length", NU)
    rng = XorShift64Star(77)
    for _ in range(100):
        g = random_finite_group(rng, 36)
        a = random_subset(rng, g, 5)
        b = random_subset(rng, g, 5)
        lhs = eval_weak_length(NU, g, union(a, b))
        rhs = value_add(quotient_bivariant(spec, g, a, b), eval_weak_length(NU, g, b))
        assert value_cmp(lhs, rhs) == 0


def test_bivariant_spec_json():
    for spec in (COVER_LOG, BivariantSpec("quotient_length", RANK)):
        assert read_bivariant(spec.to_json()) == spec
    with pytest.raises(DomainError):
        BivariantSpec("quotient_length", None)
