import math

import pytest

from mwl.errors import DomainError
from mwl.finabelian import (
    INFINITE,
    AbHom,
    FinAbGroup,
    direct_sum,
    direct_sum_many,
    hom_image,
    hom_kernel,
    intersect_subgroups,
    quotient_group,
    subgroup_generated,
    torsion_k,
)
from mwl.sampling import _GROUP_SHAPES, XorShift64Star, random_finite_group, random_hom


def iso_type(g):
    return (g.torsion, g.free_rank)


def test_canonical_merging():
    assert iso_type(FinAbGroup.of(2, 3)) == ((6,), 0)
    assert iso_type(FinAbGroup.of(2, 4)) == ((2, 4), 0)
    assert iso_type(FinAbGroup.of(0, 6, 2)) == ((2, 6), 1)
    assert iso_type(FinAbGroup.of(1, 1)) == ((), 0)


def test_sampled_shapes_are_canonical():
    # random_finite_group builds FinAbGroup(shape) without a presentation
    for shape in _GROUP_SHAPES:
        assert FinAbGroup.of(*shape) == FinAbGroup(shape)


def test_element_canonical_form():
    g = FinAbGroup.of(4, 0)
    assert g.element([5, -2]).coords == (1, -2)
    assert g.element([4, 0]).is_zero()
    assert g.element([1, 1]) + g.element([3, 2]) == g.element([0, 3])
    assert (-g.element([1, 5])).coords == (3, -5)
    assert (3 * g.element([2, 1])).coords == (2, 3)


def test_subgroup_of_free_group():
    g = FinAbGroup.free(2)
    sub, incl = subgroup_generated(g, [g.element([2, 0]), g.element([0, 3])])
    assert iso_type(sub) == ((), 2)
    # inclusion realizes the generators inside g
    img, _ = hom_image(incl)
    assert iso_type(img) == ((), 2)


def test_subgroup_trivial():
    g = FinAbGroup.free(2)
    sub, _ = subgroup_generated(g, [g.zero()])
    assert iso_type(sub) == ((), 0)


def test_subgroup_of_cyclic():
    # order of 2 in Z/6 is 6/gcd(2,6) = 3
    g = FinAbGroup.of(6)
    sub, incl = subgroup_generated(g, [g.element([2])])
    assert iso_type(sub) == ((3,), 0)
    realized = {incl(x).coords for x in sub.elements()}
    assert realized == {(0,), (2,), (4,)}


def test_quotient_examples():
    g = FinAbGroup.free(2)
    q, proj = quotient_group(g, [g.element([1, 0]), g.element([0, 2])])
    assert iso_type(q) == ((2,), 0)
    assert proj(g.element([0, 1])).coords == (1,)

    q2, _ = quotient_group(g, [g.zero()])
    assert iso_type(q2) == ((), 2)

    z6 = FinAbGroup.of(6)
    q3, proj3 = quotient_group(z6, [z6.element([3])])
    assert iso_type(q3) == ((3,), 0)
    assert proj3(z6.element([3])).is_zero()


def test_kernel_image_mod2():
    z = FinAbGroup.free(1)
    z2 = FinAbGroup.of(2)
    h = AbHom.from_rows(z, z2, [[1]])
    ker, incl = hom_kernel(h)
    assert iso_type(ker) == ((), 1)
    assert incl(ker.element([1])).coords in ((2,), (-2,))
    img, _ = hom_image(h)
    assert iso_type(img) == ((2,), 0)


def test_kernel_image_doubling_on_z4():
    g = FinAbGroup.of(4)
    h = AbHom.scalar(g, 2)
    ker, incl = hom_kernel(h)
    assert iso_type(ker) == ((2,), 0)
    assert {incl(x).coords for x in ker.elements()} == {(0,), (2,)}
    img, _ = hom_image(h)
    assert iso_type(img) == ((2,), 0)


def test_identity_hom_kernel_image():
    g = FinAbGroup.of(4, 6)
    h = AbHom.identity(g)
    ker, _ = hom_kernel(h)
    assert iso_type(ker) == ((), 0)
    img, _ = hom_image(h)
    assert iso_type(img) == iso_type(g)


def test_torsion_subgroup():
    g = FinAbGroup.of(4, 2)
    t, incl = torsion_k(g, 2)
    assert t.cardinality() == 4
    # oracle: enumerate all 8 elements and filter 2x = 0
    expected = {x.coords for x in g.elements() if (2 * x).is_zero()}
    assert {incl(y).coords for y in t.elements()} == expected

    assert iso_type(torsion_k(g, 1)[0]) == ((), 0)
    assert iso_type(torsion_k(FinAbGroup.free(1), 12)[0]) == ((), 0)
    with pytest.raises(DomainError):
        torsion_k(g, 0)


def test_torsion_full_enumeration_small_groups():
    for g in (FinAbGroup.of(12), FinAbGroup.of(2, 8), FinAbGroup.of(3, 9)):
        for k in (2, 3, 4, 6):
            t, incl = torsion_k(g, k)
            realized = {incl(y).coords for y in t.elements()}
            expected = {x.coords for x in g.elements() if (k * x).is_zero()}
            assert realized == expected


def test_cardinality():
    assert FinAbGroup.of(2, 3).cardinality() == 6
    assert FinAbGroup().cardinality() == 1
    assert FinAbGroup.free(1).cardinality() == INFINITE
    assert FinAbGroup.of(1) == FinAbGroup()


def test_hom_must_be_well_defined():
    z2 = FinAbGroup.of(2)
    z = FinAbGroup.free(1)
    with pytest.raises(DomainError):
        AbHom.from_rows(z2, z, [[1]])  # 1 has order 2, image must too


def test_direct_sum_embeddings():
    g = FinAbGroup.of(2)
    h = FinAbGroup.of(3)
    total, eg, eh = direct_sum(g, h)
    assert iso_type(total) == ((6,), 0)
    x = eg(g.element([1])) + eh(h.element([1]))
    assert not x.is_zero()
    assert (6 * x).is_zero()

    total2, embs = direct_sum_many([FinAbGroup.of(2)] * 3)
    assert iso_type(total2) == ((2, 2, 2), 0)
    assert len(embs) == 3


def test_intersect_subgroups():
    g = FinAbGroup.free(2)
    gens = intersect_subgroups(
        g,
        [g.element([1, 0]), g.element([0, 1])],
        [g.element([0, 1])],
    )
    sub, _ = subgroup_generated(g, gens) if gens else (None, None)
    assert iso_type(sub) == ((), 1)


def test_rank_nullity_on_random_homs():
    rng = XorShift64Star(101)
    for _ in range(120):
        g = random_finite_group(rng, 64)
        h = random_finite_group(rng, 64)
        phi = random_hom(rng, g, h)
        ker, _ = hom_kernel(phi)
        img, _ = hom_image(phi)
        assert ker.cardinality() * img.cardinality() == g.cardinality()


def test_quotient_cardinality_additivity():
    rng = XorShift64Star(202)
    for _ in range(120):
        g = random_finite_group(rng, 64)
        card = g.cardinality()
        k = rng.below(3) + 1
        gens = [g.element([rng.below(t) for t in g.torsion]) for _ in range(k)]
        sub, _ = subgroup_generated(g, gens)
        quot, _ = quotient_group(g, gens)
        assert sub.cardinality() * quot.cardinality() == card


def test_projection_surjective_and_section_consistent():
    g = FinAbGroup.of(4, 6)
    q, proj = quotient_group(g, [g.element([2, 0])])
    seen = {proj(x).coords for x in g.elements()}
    assert len(seen) == q.cardinality()
    assert math.prod(q.torsion) == q.cardinality()
