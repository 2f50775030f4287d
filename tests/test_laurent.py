import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwl.errors import ConfigurationError
from mwl.finabelian import FinAbGroup
from mwl.groupring import ShiftModule
from mwl.laurent import StaircaseBasis, laurent_normal_form

Z = FinAbGroup.free(1)


def test_polynomial_division():
    from mwl.laurent import pdivmod, pmul, padd

    # (1 + t^2) = (1 + t)(1 + t) over F_2
    q, r = pdivmod((1, 0, 1), (1, 1), 2)
    assert r == ()
    assert q == (1, 1)
    q2, r2 = pdivmod((1, 1, 1), (1, 1), 2)
    assert r2 == (1,)
    assert padd(pmul(q2, (1, 1), 2), r2, 2) == (1, 1, 1)


def test_staircase_single_ideal():
    s = StaircaseBasis(2, 1, [((1, 1),)])  # ideal (1 + t)
    assert s.member([(1, 0, 1)])   # 1 + t^2
    assert not s.member([(1,)])
    assert s.is_finite_quotient and s.quotient_dim == 1


def test_staircase_ideal_gcd():
    # (1 + t^2, 1 + t^3) = (1 + t) over F_2
    s = StaircaseBasis(2, 1, [((1, 0, 1),), ((1, 0, 0, 1),)])
    assert s.quotient_dim == 1
    assert s.member([(1, 1)])


def test_staircase_normalizes_t_multiples():
    # the generator t + t^2 = t(1 + t) presents the same Laurent module
    # as 1 + t
    s = StaircaseBasis(2, 1, [((0, 1, 1),)])
    assert s.member([(1, 1)])
    assert s.quotient_dim == 1


def test_vector_staircase_saturation():
    # (1+t, 1) + (1, 1) = (t, 0) is divisible by t although neither
    # generator is; saturation must divide it out, and with it the
    # Laurent module becomes everything
    s = StaircaseBasis(2, 2, [((1, 1), (1,)), ((1,), (1,))])
    assert s.is_finite_quotient and s.quotient_dim == 0
    assert s.member([(1,), ()])
    assert s.member([(), (1,)])
    assert list(s.enumerate_residues()) == [[(), ()]]


def test_vector_staircase_finite():
    s = StaircaseBasis(2, 2, [((1, 1), ()), ((), (1, 1))])
    assert s.is_finite_quotient and s.quotient_dim == 2
    residues = list(s.enumerate_residues())
    assert len(residues) == 4
    assert s.member([(1, 0, 1), ()])
    assert not s.member([(1,), ()])


def test_vector_staircase_cross_position():
    # one generator with entries in both positions: pivot at position 0,
    # position 1 stays free, so the quotient is infinite
    s = StaircaseBasis(2, 2, [((1, 1), (0, 1))])
    assert not s.is_finite_quotient
    # membership of polynomial vectors still works
    from mwl.laurent import pmul

    g = (1, 1)
    assert s.member([pmul(g, (1, 1), 2), pmul((0, 1), (1, 1), 2)])
    with pytest.raises(ConfigurationError):
        s.quotient_dim


def test_vector_module_normal_forms():
    coeff = FinAbGroup.of(2, 2)
    plain = ShiftModule(Z, coeff)
    gen1 = plain.element([((0,), (1, 0)), ((1,), (1, 0))])   # (1+t, 0)
    gen2 = plain.element([((0,), (0, 1)), ((1,), (0, 1))])   # (0, 1+t)
    m = ShiftModule(Z, coeff,
                    quotient=(gen1.items, gen2.items))
    assert m.cardinality() == 4
    # 1 + t^2 in each coordinate reduces to zero
    x = m.element([((0,), (1, 1)), ((2,), (1, 1))])
    assert x.is_zero()
    # translation consistency through the invertible t-action
    y = m.element([((-3,), (1, 0))])
    z = m.element([((0,), (1, 0))])
    assert y == z  # t^-3 * e1 = e1 in the quotient by (1+t) per position


def test_ideal_membership_matches_division_oracle():
    # staircase membership for a principal ideal must agree with plain
    # polynomial division, including generators hidden behind t-powers
    from mwl.laurent import pdivmod, pmul, pnorm
    from mwl.sampling import XorShift64Star

    rng = XorShift64Star(808)
    for p in (2, 3, 5):
        for _ in range(25):
            f = pnorm([rng.below(p) for _ in range(rng.below(4) + 2)], p)
            if not f:
                continue
            shift = rng.below(3)
            s = StaircaseBasis(p, 1, [((0,) * shift + f,)])
            x = pnorm([rng.below(p) for _ in range(rng.below(6) + 1)], p)
            # oracle: divide x by the t-normalized generator
            f0 = f[next(i for i, c in enumerate(f) if c):] if f[0] == 0 else f
            _, rem = pdivmod(x, f0, p)
            assert s.member([x]) == (rem == ())
            # products of the generator are always members
            g = pnorm([rng.below(p) for _ in range(3)], p)
            assert s.member([pmul(f0, g, p)]) or not any(g)


def test_infinite_vector_quotient_rejects_negative_support():
    coeff = FinAbGroup.of(2, 2)
    plain = ShiftModule(Z, coeff)
    gen = plain.element([((0,), (1, 1)), ((1,), (1, 0))])
    m = ShiftModule(Z, coeff, quotient=(gen.items,))
    with pytest.raises(ConfigurationError):
        m.element([((-1,), (1, 0))])


def _poly(data, p, max_len, unit_top=False):
    coeffs = data.draw(st.lists(st.integers(0, p - 1), max_size=max_len))
    if unit_top:
        coeffs.append(data.draw(st.integers(1, p - 1)))
    return tuple(coeffs)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_negative_support_normal_form_is_canonical(data):
    # A finite staircase: a triangular generator matrix with nonzero
    # diagonal (pivots may be divisible by t) and maybe one more generator.
    p = data.draw(st.sampled_from([2, 3, 5]))
    k = data.draw(st.integers(1, 3))
    gens = [[() if j < i else _poly(data, p, 3, unit_top=(j == i)) for j in range(k)]
            for i in range(k)]
    if data.draw(st.booleans()):
        gens.append([_poly(data, p, 3) for _ in range(k)])
    s = StaircaseBasis(p, k, gens)
    assert s.is_finite_quotient
    vec = [_poly(data, p, 8) for _ in range(k)]
    low = data.draw(st.integers(-70, -1))
    r = laurent_normal_form(s, vec, low)
    # r is reduced, and t^-low * r lies in the class of vec: together these
    # single out the canonical representative of t^low * vec
    assert s.reduce(r) == r
    assert s.reduce([(0,) * -low + c if c else c for c in r]) == s.reduce(vec)
