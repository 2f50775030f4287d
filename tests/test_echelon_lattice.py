"""The echelon lattice behind rank, nu and gen, against the Smith-form path.

`eval_weak_length` and the span rows of `ratio_sequence` read rank, nu
and gen off one incrementally grown `EchelonLattice`.  The reference here
is the slow exact path: `subgroup_generated` (a Hermite basis, then a
Smith form) for the free rank and the invariant factors, with nu the sum
of their prime exponents and gen their number; a module subset is
embedded into one group first (`embed_subset`).  That Hermite basis is
the lattice's own `dense()`, which tests/test_intmat.py checks against
an independent dense Euclid.
"""

import math
import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwl.finabelian import AbHom, FinAbGroup, subgroup_generated
from mwl.groupring import ShiftModule, embed_subset, orbit_sum, principal_quotient
from mwl.intmat import EchelonLattice, exponent_sum
from mwl.meanlen import N_MAX_LIMIT, FolnerBoxes, ratio_sequence
from mwl.subsets import FiniteSubset
from mwl.weaklength import GEN, NU, RANK, eval_weak_length

Z = FinAbGroup.free(1)


def _snf_values(g, elements):
    """(rank, nu) of the subgroup the elements generate, through the SNF."""
    span, _ = subgroup_generated(g, elements)
    nu = math.inf if span.free_rank else sum(exponent_sum(t) for t in span.torsion)
    return span.free_rank, nu


def _lattice_values(g, elements):
    a = FiniteSubset.of(g, elements)
    nu = eval_weak_length(NU, g, a)
    return (eval_weak_length(RANK, g, a).q,
            math.inf if nu.is_infinite() else nu.q)


def test_exponent_sum():
    assert [exponent_sum(n) for n in (1, 2, 4, 12, 97, 2 ** 40 * 9)] == [0, 1, 2, 3, 1, 42]
    # the primality test of laurent.StaircaseBasis and meanlen
    assert [n for n in range(60) if exponent_sum(n) == 1] == \
        [n for n in range(2, 60) if all(n % q for q in range(2, n))]


def test_gcd_steps_keep_pivots_positive():
    # free columns: -6 enters as the pivot 6, then 10 and -15 take it to 1
    # through two gcd steps
    lat = EchelonLattice()
    lat.insert({lat.column(0, 0): -6, lat.column(1, 0): 5})
    assert lat._rows[0] == {0: 6, 1: -5}
    for v in (10, -15):
        lat.insert({lat.column(0, 0): v})
    assert lat.free_rank == 2 and lat._rows[0][0] == 1
    # torsion column of C8: <6> has order 4, then <6, 4> is still <2>
    lat = EchelonLattice()
    lat.insert({lat.column("c", 8): -2 * 3})
    assert lat.free_rank == 0 and lat.omega == 2 and lat._rows["c"] == {"c": 2}
    lat.insert({lat.column("c", 8): 4})
    assert lat.omega == 2
    # C12: 8 and 9 generate the whole group, a gcd step from 4 to 1
    lat = EchelonLattice()
    for v in (8, 9):
        lat.insert({lat.column(0, 12): v})
    assert lat.omega == exponent_sum(12)


def test_rows_entering_the_basis_are_reduced_above_later_pivots():
    lat = EchelonLattice()
    lat.insert({lat.column(1, 0): 3})
    lat.insert({lat.column(0, 0): 1, 1: -7})
    assert lat._rows[0] == {0: 1, 1: 2}


def _state(lat):
    return (dict(lat._moduli), {c: dict(r) for c, r in lat._rows.items()},
            lat.omega, lat.free_rank)


def test_copy_leaves_the_original_unchanged():
    lat = EchelonLattice()
    lat.insert({lat.column(0, 0): 4, lat.column(1, 6): 1})
    before = _state(lat)
    twin = lat.copy()
    assert _state(twin) == before
    # a gcd step on the free pivot, a new column and a torsion pivot change
    twin.insert({twin.column(0, 0): 6, twin.column(2, 0): 1})
    twin.insert({twin.column(1, 6): 3})
    twin.insert({twin.column(3, 4): 2})
    assert _state(lat) == before
    ref = EchelonLattice()
    for vec in ({0: 4, 1: 1}, {0: 6, 2: 1}, {1: 3}, {3: 2}):
        moduli = {0: 0, 1: 6, 2: 0, 3: 4}
        ref.insert({ref.column(c, moduli[c]): v for c, v in vec.items()})
    assert _state(twin) == _state(ref)
    # dense() installs rows again: the twin's pivot 1 on column 1 rewrites
    # row 0, which it still shares with the original
    dense = lat.dense()
    twin = lat.copy()
    twin.insert({twin.column(1, 6): 1})
    assert twin.dense()[0] == [[4, 0], [0, 1]]
    assert _state(lat) == before and lat.dense() == dense


# canonical groups with a mix of torsion and free parts (0 is a copy of Z)
groups = st.lists(st.sampled_from([0, 0, 2, 3, 4, 6, 9, 12]), min_size=1, max_size=3).map(
    lambda factors: FinAbGroup.of(*factors))


@st.composite
def generating_sets(draw):
    g = draw(groups)
    coords = st.lists(st.integers(-12, 12), min_size=g.ambient_dim, max_size=g.ambient_dim)
    return g, [g.element(c) for c in draw(st.lists(coords, min_size=1, max_size=5))]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(generating_sets())
@example((FinAbGroup.free(2), [FinAbGroup.free(2).element(c)
                               for c in ([4, 6], [6, 9], [-10, 3])]))
@example((FinAbGroup((12,), 1), [FinAbGroup((12,), 1).element(c)
                                 for c in ([8, -4], [9, 6], [0, -2])]))
@example((FinAbGroup((2,), 1), [FinAbGroup((2,), 1).element(c)
                                for c in ([1, -3], [1, 5])]))
def test_lattice_matches_subgroup_generated(case):
    g, elements = case
    assert _lattice_values(g, elements) == _snf_values(g, elements)


Z2 = FinAbGroup.free(2)
MODULES = (
    *(ShiftModule(acting, coeff)
      for acting in (Z, Z2, FinAbGroup((2,), 1))
      for coeff in (Z, FinAbGroup.of(4), FinAbGroup.of(2, 6), FinAbGroup.of(3), FinAbGroup((2,), 1))),
    ShiftModule(Z2, FinAbGroup.of(2), action=AbHom.from_rows(Z2, Z, [[1], [0]])),
)


@st.composite
def module_subsets(draw):
    """A module of MODULES or a principal quotient of F2 or F3 shifts, and
    1-4 elements of 1-3 terms."""
    if draw(st.booleans()):
        module = draw(st.sampled_from(MODULES))
    else:
        p = draw(st.sampled_from((2, 3)))
        m = ShiftModule(Z, FinAbGroup.of(p))
        f = m.element([((0,), (1,)), ((draw(st.integers(1, 3)),), (p - 1,))])
        module, _ = principal_quotient(m, [f])
    support, coeff = module.support_group, module.coeff

    def coords(group, free):
        return ([draw(st.integers(0, t - 1)) for t in group.torsion]
                + [draw(free) for _ in range(group.free_rank)])

    return module, [module.element([(coords(support, st.integers(0, 2)), coords(coeff, st.integers(-6, 6)))
                                    for _ in range(draw(st.integers(1, 3)))])
                    for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(generating_sets(), module_subsets()), st.booleans())
def test_lattice_gen_matches_subgroup_generated(case, with_zero):
    ambient, elements = case
    a = FiniteSubset.of(ambient, elements + [ambient.zero()] * with_zero)
    if isinstance(ambient, FinAbGroup):
        span, _ = subgroup_generated(ambient, list(a))
    else:
        span, _ = subgroup_generated(*embed_subset(a))
    assert eval_weak_length(GEN, ambient, a).q == span.free_rank + len(span.torsion)


def test_principal_quotient_span_rows_match_snf_of_rebuilt_orbit_sums():
    # F2[t, 1/t] / (1 + t + t^3): the span rows stop growing at 3 = |slots|
    m2 = ShiftModule(Z, FinAbGroup.of(2))
    f = m2.element([((0,), (1,)), ((1,), (1,)), ((3,), (1,))])
    quot = ShiftModule(Z, FinAbGroup.of(2), quotient=(f.coords,))
    seq = FolnerBoxes(Z, 6)
    for elements in ([quot.zero(), quot.delta([1])],
                     [quot.zero(), quot.delta([1]) + quot.delta([1], at=(2,))]):
        a = FiniteSubset.of(quot, elements)
        rank = ratio_sequence(quot, a, RANK, seq)
        nu = ratio_sequence(quot, a, NU, seq)
        for n in range(1, seq.n_max + 1):
            ambient, embedded = embed_subset(orbit_sum(a, seq.box(n)))
            ref_rank, ref_nu = _snf_values(ambient, list(embedded))
            assert rank.rows[n - 1].value.q == ref_rank == 0
            assert nu.rows[n - 1].value.q == ref_nu
        assert nu.rows[-1].value.q == 3


def test_span_tables_reach_n_max_limit():
    # {0, d0 + 2 d1, 2 d0 + d2}: rank over Z is n + 2 and nu over C4 is
    # 2n + 4 on every row n >= 2
    for coeff, spec, row in ((FinAbGroup.free(1), RANK, lambda n: n + 2),
                             (FinAbGroup.of(4), NU, lambda n: 2 * n + 4)):
        m = ShiftModule(Z, coeff)
        a = FiniteSubset.of(m, [m.zero(), m.element([((0,), (1,)), ((1,), (2,))]),
                                m.element([((0,), (2,)), ((2,), (1,))])])
        start = time.perf_counter()
        est = ratio_sequence(m, a, spec, FolnerBoxes(Z, N_MAX_LIMIT))
        elapsed = time.perf_counter() - start
        assert [r.value.q for r in est.rows[1:]] == [row(n) for n in range(2, N_MAX_LIMIT + 1)]
        assert est.fekete_ok
        assert elapsed < 1.0, f"{spec} table took {elapsed:.2f} s"
