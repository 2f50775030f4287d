"""Checks of the seeded instance generators in mwl.sampling.

The checker reports are drawn from these streams, so the element order of
`kernel_elements` and `torsion_elements` and the matrices returned by
`random_automorphism` are part of every report.
"""

import pytest

from mwl.finabelian import AbHom, FinAbGroup, hom_kernel, torsion_k
from mwl.sampling import (
    _GROUP_SHAPES,
    AUTOMORPHISM_TRIES,
    XorShift64Star,
    kernel_elements,
    random_automorphism,
    random_hom,
    torsion_elements,
)

SHAPES = [pytest.param(shape, id="x".join(map(str, shape)) or "trivial")
          for shape in _GROUP_SHAPES]


def _coords(elements):
    return [x.coords for x in elements]


def test_xorshift_outputs_are_pinned():
    rng = XorShift64Star(1)
    assert [rng.next_u64() for _ in range(4)] == [
        5180492295206395165, 12380297144915551517,
        13389498078930870103, 5599127315341312413]
    # seed 0 would be a fixed point of the shift register; it is replaced
    assert XorShift64Star(0).state == 0x9E3779B97F4A7C15


@pytest.mark.parametrize("shape", SHAPES)
def test_kernel_elements_match_brute_force(shape):
    g = FinAbGroup(shape)
    rng = XorShift64Star(7)
    for _ in range(6):
        phi = random_hom(rng, g, g)
        kernel = _coords(kernel_elements(phi))
        brute = [x.coords for x in g.elements() if phi(x) == g.zero()]
        assert sorted(kernel) == brute


def test_kernel_elements_order_is_pinned():
    # the kernel is listed in the order of its own presentation, which is
    # not the order of the ambient group's elements
    g = FinAbGroup((2, 4))
    phi = AbHom.from_rows(g, g, [[0, 2], [0, 2]])
    assert _coords(kernel_elements(phi)) == [(0, 0), (1, 1), (0, 2), (1, 3)]


@pytest.mark.parametrize("shape", SHAPES)
def test_torsion_elements_match_brute_force(shape):
    g = FinAbGroup(shape)
    for k in (1, 2, 3, 4, 6):
        brute = [x.coords for x in g.elements()
                 if not any(g.reduce(tuple(k * c for c in x.coords)))]
        assert _coords(torsion_elements(g, k)) == brute


@pytest.mark.parametrize("shape, free_rank", [((), 1), ((2,), 1), ((2, 6), 2)],
                         ids=["Z", "ZxC2", "Z2xC2xC6"])
def test_torsion_elements_with_free_rank_match_torsion_k(shape, free_rank):
    g = FinAbGroup(shape, free_rank)
    for k in (1, 2, 3, 4, 6):
        tors, incl = torsion_k(g, k)
        assert _coords(torsion_elements(g, k)) == [incl(x).coords for x in tors.elements()]


def _reference_automorphism(rng, group):
    # the definition: a random hom with trivial kernel
    for _ in range(AUTOMORPHISM_TRIES):
        phi = random_hom(rng, group, group)
        if hom_kernel(phi)[0].cardinality() == 1:
            return phi
    return AbHom.identity(group)


@pytest.mark.parametrize("shape", SHAPES)
def test_random_automorphism_is_a_bijection_and_matches_kernel_test(shape):
    g = FinAbGroup(shape)
    for seed in (1, 2, 3, 0xC0FFEE):
        rng, ref = XorShift64Star(seed), XorShift64Star(seed)
        phi = random_automorphism(rng, g)
        assert len({phi(x) for x in g.elements()}) == g.cardinality()
        assert phi == _reference_automorphism(ref, g)
        assert rng.state == ref.state
