import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwl.errors import ConfigurationError, DomainError, SetSizeLimitError
from mwl.finabelian import INFINITE, AbHom, FinAbGroup
from mwl.groupring import (
    ShiftModule,
    coeff_quotient,
    embed_subset,
    gr_translate,
    orbit_sum,
    principal_quotient,
)
from mwl.sampling import XorShift64Star
from mwl.scenario import read_module
from mwl.subsets import FiniteSubset, minkowski_sum
from mwl.values import LengthValue, value_add, value_cmp
from mwl.weaklength import LOG_CARD, NU, RANK, eval_weak_length

Z = FinAbGroup.free(1)


def shift_module(*coeff_factors):
    return ShiftModule(Z, FinAbGroup.of(*coeff_factors))


def subset(module, elements):
    return FiniteSubset.of(module, elements)


def shifted(s, x):
    """The shift s.x of one module element."""
    (moved,) = gr_translate(s, subset(x.ambient, [x]))
    return moved


def test_delta_and_equality():
    m = shift_module(2)
    d0 = m.delta([1])
    assert d0 == m.element([((0,), (1,))])
    assert (d0 + d0).is_zero()
    assert d0 + m.zero() == d0


def test_translate_examples():
    m = ShiftModule(Z, FinAbGroup.free(1))
    a = subset(m, [m.delta([1])])
    assert gr_translate(Z.zero(), a).items == a.items
    moved = gr_translate(Z.element([1]), a)
    assert list(moved)[0] == m.delta([1], at=(1,))


def test_mixed_acting_group_coordinates_are_torsion_first():
    gamma = FinAbGroup((2,), 1)  # C2 x Z
    m = ShiftModule(gamma, FinAbGroup.of(2))
    x = m.delta([1], at=(3, 7))
    assert tuple(g for g, _ in x.coords) == ((1, 7),)
    assert shifted(gamma.element([1, -7]), x) == m.delta([1])


def test_translate_through_quotient_action():
    # Z^2 acting through the projection onto its first coordinate
    z2 = FinAbGroup.free(2)
    m = ShiftModule(z2, FinAbGroup.free(1), action=AbHom.from_rows(z2, Z, [[1], [0]]))
    a = subset(m, [m.zero(), m.delta([1])])
    kernel_shift = gr_translate(z2.element([0, 5]), a)
    assert kernel_shift.items == a.items
    moved = gr_translate(z2.element([1, 3]), a)
    assert moved.items != a.items


def test_minkowski_examples():
    m = ShiftModule(Z, FinAbGroup.free(1))
    a = subset(m, [m.zero(), m.delta([1])])
    assert minkowski_sum(a, subset(m, [m.zero()])).items == a.items
    s = minkowski_sum(a, a)
    assert len(s) == 3  # {0, 1, 2} at the identity

    m2 = shift_module(2)
    a2 = subset(m2, [m2.zero(), m2.delta([1])])
    assert len(minkowski_sum(a2, a2)) == 2  # delta + delta = 0 mod 2


def test_module_mismatch_rejected():
    a = subset(shift_module(2), [shift_module(2).zero()])
    b = subset(shift_module(3), [shift_module(3).zero()])
    with pytest.raises(DomainError):
        minkowski_sum(a, b)


def test_orbit_sum_identity_window():
    m = shift_module(2)
    a = subset(m, [m.zero(), m.delta([1])])
    assert orbit_sum(a, [Z.zero()]).items == a.items


def test_orbit_sum_full_shift_window():
    m = shift_module(2)
    a = subset(m, [m.zero(), m.delta([1])])
    window = [Z.element([i]) for i in range(3)]
    orbit = orbit_sum(a, window)
    assert len(orbit) == 8  # all {0,1}-functions on three points


def test_orbit_sum_integer_coefficients():
    m = ShiftModule(Z, FinAbGroup.free(1))
    a = subset(m, [m.element([((0,), (j,))]) for j in range(3)])
    orbit = orbit_sum(a, [Z.element([0]), Z.element([1])])
    assert len(orbit) == 9


def test_orbit_sum_monotone_and_invariant():
    m = shift_module(2)
    a = subset(m, [m.zero(), m.delta([1])])
    rng = XorShift64Star(31337)
    for _ in range(25):
        f1 = sorted({rng.below(6) for _ in range(rng.below(3) + 1)})
        f2 = sorted(set(f1) | {rng.below(6) for _ in range(rng.below(3) + 1)})
        s = rng.below(9) - 4
        o1 = orbit_sum(a, [Z.element([i]) for i in f1])
        o2 = orbit_sum(a, [Z.element([i]) for i in f2])
        assert o1.items <= o2.items  # monotone when 0 is in a
        shifted = orbit_sum(a, [Z.element([i + s]) for i in f1])
        assert len(shifted) == len(o1)  # count is translation invariant


def test_orbit_sum_subadditive_counts():
    m = shift_module(2)
    a = subset(m, [m.zero(), m.delta([1])])
    rng = XorShift64Star(999)
    for _ in range(25):
        f1 = {rng.below(8) for _ in range(rng.below(4) + 1)}
        f2 = {rng.below(8) for _ in range(rng.below(4) + 1)}
        o_union = orbit_sum(a, [Z.element([i]) for i in sorted(f1 | f2)])
        n1 = len(orbit_sum(a, [Z.element([i]) for i in sorted(f1)]))
        n2 = len(orbit_sum(a, [Z.element([i]) for i in sorted(f2)]))
        assert len(o_union) <= n1 * n2


def test_strong_subadditivity_for_symmetric_rank_sets():
    # length-induced value on a symmetric set: rank of the span grows
    # with |F| and satisfies the submodular inequality on overlaps
    m = ShiftModule(Z, FinAbGroup.free(1))
    a = subset(m, [m.zero(), m.delta([1]), m.delta([-1])])
    rng = XorShift64Star(4242)
    for _ in range(15):
        f1 = {rng.below(6) for _ in range(rng.below(3) + 1)}
        f2 = {rng.below(6) for _ in range(rng.below(3) + 1)}
        if not f1 & f2:
            f2.add(next(iter(f1)))

        def rank_of(fset):
            orbit = orbit_sum(a, [Z.element([i]) for i in sorted(fset)])
            g, emb = embed_subset(orbit)
            return eval_weak_length(RANK, g, emb)

        lhs = value_add(rank_of(f1), rank_of(f2))
        rhs = value_add(rank_of(f1 | f2), rank_of(f1 & f2))
        assert value_cmp(lhs, rhs) >= 0


def test_submodule_normal_form_principal():
    # N = <1 + t> over Z/2: 1 + t^2 = (1+t)^2 reduces to zero
    plain = shift_module(2)
    n = plain.element([((0,), (1,)), ((1,), (1,))])
    m, project = principal_quotient(plain, [n])
    assert m == ShiftModule(Z, FinAbGroup.of(2), quotient=(n.coords,))
    x = plain.element([((0,), (1,)), ((2,), (1,))])
    assert project(x).is_zero()
    assert project(plain.zero()).is_zero()
    assert project(plain.delta([1], at=(1,))) == m.delta([1])


def test_principal_quotient_residues():
    # N = <1 + t + t^3> over Z/2: exactly 8 normal forms, degree < 3
    plain = shift_module(2)
    f = plain.element([((0,), (1,)), ((1,), (1,)), ((3,), (1,))])
    m = ShiftModule(Z, FinAbGroup.of(2), quotient=(f.coords,))
    assert m.cardinality() == 8
    # the 8 polynomials of degree < 3 are distinct normal forms
    residues = {m.element([((g,), (1,)) for g in range(3) if bits >> g & 1]).coords
                for bits in range(8)}
    assert len(residues) == 8
    for items in residues:
        assert all(0 <= g[0] < 3 for g, _ in items)
    assert m.element([((3,), (1,))]).coords in residues
    # reduction respects translation: t is invertible mod f
    x = m.element([((-2,), (1,))])
    y = m.element([((0,), (1,))])
    t_elem = Z.element([1])
    assert shifted(t_elem, shifted(t_elem, x)) == y


def test_infinite_principal_quotient_cardinality():
    # C2 x C2 modulo (1 + t, 0): the second coordinate stays free
    plain = shift_module(2, 2)
    f = plain.element([((0,), (1, 0)), ((1,), (1, 0))])
    quot, _ = principal_quotient(plain, [f])
    assert quot.cardinality() == INFINITE


def test_normal_form_soundness_random():
    plain = shift_module(2)
    f = plain.element([((0,), (1,)), ((1,), (1,)), ((3,), (1,))])
    m = ShiftModule(Z, FinAbGroup.of(2), quotient=(f.coords,))
    rng = XorShift64Star(2718)

    def random_elem():
        pairs = [((rng.below(9) - 4,), (rng.below(2),)) for _ in range(rng.below(4) + 1)]
        return m.element(pairs)

    for _ in range(60):
        x, y = random_elem(), random_elem()
        assert (x == y) == (x - y).is_zero()
        # additive and action-equivariant
        s = Z.element([rng.below(5) - 2])
        assert shifted(s, x + y) == shifted(s, x) + shifted(s, y)


def _laurent_element(draw, module, low):
    """Up to three terms at degrees low..3 with arbitrary coefficients."""
    p, k = module.coeff.torsion[0], len(module.coeff.torsion)
    return module.element(
        [((draw(st.integers(low, 3)),), [draw(st.integers(0, p - 1)) for _ in range(k)])
         for _ in range(draw(st.integers(1, 3)))])


@st.composite
def normal_form_pairs(draw):
    """A principal quotient over F2, F3 or F5 with k = 1 or 2 coefficient
    coordinates, two of its normal forms and a scalar.  One generator for
    k = 2 leaves an infinite quotient, as does the zero generator."""
    p, k = draw(st.sampled_from([2, 3, 5])), draw(st.sampled_from([1, 2]))
    plain = ShiftModule(Z, FinAbGroup.of(*[p] * k))
    generators = [_laurent_element(draw, plain, -2) for _ in range(draw(st.integers(1, k)))]
    quot, project = principal_quotient(plain, generators)
    # an infinite quotient has canonical forms only on nonnegative support
    low = 0 if quot.cardinality() == INFINITE else -3
    x, y = (project(_laurent_element(draw, plain, low)) for _ in range(2))
    return quot, x.coords, y.coords, draw(st.integers(-6, 6))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(normal_form_pairs())
def test_coefficient_wise_arithmetic_keeps_normal_forms(case):
    # the normal-form map is F_p-linear, so sums, negatives and multiples
    # are taken without reduction
    quot, x, y, c = case
    for item in (quot._add_items(x, y), quot._neg_item(x), quot._scale_item(c, x)):
        assert quot._canonical(item) == item


def test_normal_form_configuration_errors():
    plain = shift_module(2)
    quot, _ = principal_quotient(plain, [plain.delta([1])])
    with pytest.raises(ConfigurationError):
        # a quotient module is not quotiented again
        principal_quotient(quot, [quot.delta([1])])
    with pytest.raises(ConfigurationError):
        # composite modulus
        bad = ShiftModule(Z, FinAbGroup.of(4), quotient=((((0,), (2,)),),))
        bad.cardinality()
    with pytest.raises(ConfigurationError):
        # torsion support group
        ShiftModule(FinAbGroup.of(4), FinAbGroup.of(2), quotient=((((0,), (1,)),),))


def test_coeff_quotient():
    m = shift_module(4)
    target, project = coeff_quotient(m, [[2]])
    assert target.coeff.torsion == (2,)
    x = m.delta([1])
    assert project(x) == target.delta([1])
    assert project(m.delta([2])).is_zero()
    # projection commutes with the action
    s = Z.element([3])
    assert project(shifted(s, x)) == shifted(s, project(x))

    same, ident = coeff_quotient(m, [[0]])
    assert same.coeff.torsion == (4,)
    assert ident(m.delta([3])).coords == m.delta([3]).coords

    mz = ShiftModule(Z, FinAbGroup.free(1))
    half, projz = coeff_quotient(mz, [[2]])
    assert half.coeff.torsion == (2,)
    assert projz(mz.delta([3])) == half.delta([1])


def test_embed_subset_matches_module_arithmetic():
    m = shift_module(4)
    a = subset(m, [m.zero(), m.delta([1]), m.delta([2], at=(1,))])
    g, emb = embed_subset(a)
    assert len(emb) == len(a)
    assert eval_weak_length(LOG_CARD, g, emb) == LengthValue.log_count(3)
    assert eval_weak_length(NU, g, emb) == LengthValue.rational(3)  # Z/4 + Z/2


def test_set_cap_overflow():
    m = ShiftModule(Z, FinAbGroup.free(1))
    big = subset(m, [m.element([((0,), (j,))]) for j in range(1100)])
    with pytest.raises(SetSizeLimitError):
        s = big
        for _ in range(2):
            s = minkowski_sum(s, gr_translate(Z.element([1]), big))


def test_module_json_round_trip():
    plain = shift_module(2)
    f = plain.element([((0,), (1,)), ((1,), (1,)), ((3,), (1,))])
    z = {"free_rank": 1, "torsion": []}
    cases = [
        ({"group": z, "coeff": {"torsion": [4]}}, shift_module(4)),
        ({"group": {"free_rank": 2}, "coeff": z, "action_target": z, "action_hom": [[1], [0]]},
         ShiftModule(FinAbGroup.free(2), FinAbGroup.free(1),
                     action=AbHom.from_rows(FinAbGroup.free(2), Z, [[1], [0]]))),
        ({"group": z, "coeff": {"torsion": [2]},
          "quotient": {"closure": "principal_z", "p": 2,
                       "generators": [[[[0], [1]], [[1], [1]], [[3], [1]]]]}},
         ShiftModule(Z, FinAbGroup.of(2), quotient=(f.coords,))),
        # a coefficient-subgroup quotient gives the module over C/D
        ({"group": z, "coeff": {"torsion": [4]},
          "quotient": {"closure": "coeff_subgroup", "generators": [[2]]}},
         shift_module(2)),
    ]
    for data, expected in cases:
        module, read = read_module(data)
        assert module == expected
        assert read([[[0], [1]]]) == expected.delta([1])
