"""Item-level group arithmetic against a per-coordinate reference.

`FinAbGroup` and `AbHom` compute on canonical coordinate tuples, and
`map_subset`/`product_subset` work on `FiniteSubset.items` directly.  The
reference below reduces one coordinate at a time, as the definitions say:
torsion coordinate i modulo t_i, free coordinates unreduced, and a
homomorphism as the sum over i of x_i times row i.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwl.errors import DomainError
from mwl.finabelian import AbHom, FinAbGroup, direct_sum
from mwl.sampling import _GROUP_SHAPES
from mwl.subsets import FiniteSubset, map_subset, product_subset

SHAPE_GROUPS = [FinAbGroup(shape) for shape in _GROUP_SHAPES]
INFINITE_GROUPS = [FinAbGroup.free(1), FinAbGroup((2,), 1), FinAbGroup((4,), 2)]
MAX_SUM_ORDER = 324  # C3 + C6 twice over
COORDS = st.one_of(st.integers(-12, 12), st.integers(-2 ** 80, 2 ** 80))
SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def ref_reduce(g, coords):
    k = len(g.torsion)
    return tuple(c % g.torsion[i] if i < k else c for i, c in enumerate(coords))


def ref_apply(phi, x):
    n = phi.target.ambient_dim
    return ref_reduce(phi.target, [sum(x[i] * phi.matrix[i][j] for i in range(len(x)))
                                   for j in range(n)])


@st.composite
def groups(draw):
    kind = draw(st.sampled_from(["shape", "sum", "infinite"]))
    if kind == "shape":
        return draw(st.sampled_from(SHAPE_GROUPS))
    if kind == "infinite":
        return draw(st.sampled_from(INFINITE_GROUPS))
    g = draw(st.sampled_from(SHAPE_GROUPS))
    h = draw(st.sampled_from([h for h in SHAPE_GROUPS
                              if g.cardinality() * h.cardinality() <= MAX_SUM_ORDER]))
    return direct_sum(g, h)[0]


def raw_coords(draw, g):
    return draw(st.lists(COORDS, min_size=g.ambient_dim, max_size=g.ambient_dim))


def items(draw, g):
    return ref_reduce(g, raw_coords(draw, g))


@st.composite
def homs(draw):
    """A homomorphism between two drawn groups: a torsion generator of
    order t goes to a multiple of u / gcd(t, u) on a target torsion
    coordinate of order u and to 0 on a free one; a free generator goes
    anywhere."""
    source, target = draw(groups()), draw(groups())
    rows = []
    for i in range(source.ambient_dim):
        row = raw_coords(draw, target)
        if i < len(source.torsion):
            t = source.torsion[i]
            row = [c * (u // math.gcd(t, u)) for c, u in zip(row, target.torsion)]
            row += [0] * target.free_rank
        rows.append(row)
    return AbHom.from_rows(source, target, rows)


@st.composite
def group_items(draw):
    g = draw(groups())
    return g, raw_coords(draw, g), items(draw, g), items(draw, g), draw(COORDS)


@SETTINGS
@given(group_items())
def test_group_item_arithmetic_matches_reference(case):
    g, raw, x, y, k = case
    assert g.reduce(raw) == g.reduce(tuple(raw)) == ref_reduce(g, raw)
    assert g._add_items(x, y) == ref_reduce(g, [a + b for a, b in zip(x, y)])
    assert g._neg_item(x) == ref_reduce(g, [-a for a in x])
    assert g.element(raw).coords == ref_reduce(g, raw)
    assert (k * g.element(x)).coords == ref_reduce(g, [k * a for a in x])
    assert (g.element(x) - g.element(y)).coords == ref_reduce(g, [a - b for a, b in zip(x, y)])


@st.composite
def hom_subsets(draw):
    phi = draw(homs())
    xs = [items(draw, phi.source) for _ in range(draw(st.integers(1, 8)))]
    return phi, xs


@SETTINGS
@given(hom_subsets())
def test_homomorphism_images_match_reference(case):
    phi, xs = case
    for x in xs:
        image = phi(phi.source.element(x))
        assert image.ambient == phi.target
        assert image.coords == phi._apply_item(x) == ref_apply(phi, x)
    mapped = map_subset(phi, FiniteSubset.from_items(phi.source, xs))
    assert mapped.ambient == phi.target
    assert mapped.items == frozenset(ref_apply(phi, x) for x in xs)


@st.composite
def product_cases(draw):
    g, h = draw(groups()), draw(groups())
    xs = [items(draw, g) for _ in range(draw(st.integers(1, 6)))]
    ys = [items(draw, h) for _ in range(draw(st.integers(1, 6)))]
    return g, h, xs, ys


@SETTINGS
@given(product_cases())
def test_product_subsets_match_reference(case):
    g, h, xs, ys = case
    total, emb_g, emb_h = direct_sum(g, h)
    a, b = FiniteSubset.from_items(g, xs), FiniteSubset.from_items(h, ys)
    expected = frozenset(
        ref_reduce(total, [p + q for p, q in zip(ref_apply(emb_g, x), ref_apply(emb_h, y))])
        for x in xs for y in ys)
    product = product_subset(a, emb_g, b, emb_h)
    assert product.ambient == total
    assert product.items == expected
    # the embeddings are one-to-one, so the product has |a| |b| elements
    assert len(product) == len(a) * len(b)


def test_sets_outside_the_source_raise():
    c2, c4 = FinAbGroup((2,)), FinAbGroup((4,))
    z_c2 = FinAbGroup((2,), 1)
    phi = AbHom.from_rows(c4, c2, [[1]])
    with pytest.raises(DomainError):
        map_subset(phi, FiniteSubset.from_items(c2, [(1,)]))
    with pytest.raises(DomainError):
        phi(c2.element([1]))
    total, emb_c2, emb_c4 = direct_sum(c2, c4)
    _, _, emb_other = direct_sum(c2, z_c2)
    a, b = FiniteSubset.from_items(c2, [(0,), (1,)]), FiniteSubset.from_items(c4, [(3,)])
    c = FiniteSubset.from_items(z_c2, [(1, -5)])
    for args in [
        (b, emb_c2, b, emb_c4),  # first set outside the first source
        (a, emb_c2, a, emb_c4),  # second set outside the second source
        (a, emb_c2, c, emb_other),  # embeddings into different direct sums
    ]:
        with pytest.raises(DomainError):
            product_subset(*args)
    assert product_subset(a, emb_c2, b, emb_c4).ambient == total
