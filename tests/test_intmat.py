import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mwl.errors import DomainError
from mwl.intmat import (
    EchelonLattice,
    exponent_sum,
    hermite_form,
    identity,
    invert_unimodular,
    lattice_intersection,
    left_kernel,
    matmul,
    row_basis,
    smith_normal_form,
    solve_left,
)


def det_exact(m):
    # Fraction Gaussian elimination; exact for any integer matrix.
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] * inv
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def invariant_factors_oracle(m):
    # Determinantal divisors: d_k = gcd of all k x k minors, and the k-th
    # invariant factor is d_k / d_{k-1}.  Independent of any reduction.
    rows, cols = len(m), len(m[0]) if m else 0
    factors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                minor = det_exact([[m[i][j] for j in ci] for i in ri])
                g = math.gcd(g, int(minor))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def check_snf(m):
    s, v, v_inv = smith_normal_form(m)
    cols = len(m[0]) if m else 0
    assert matmul(v, v_inv) == identity(cols)
    assert row_basis(matmul(m, v)) == row_basis(s)
    diag = [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]
    for i in range(len(s)):
        for j in range(len(s[0])):
            if i != j:
                assert s[i][j] == 0
    for d in diag:
        assert d >= 0
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0
    assert [d for d in diag if d != 0] == invariant_factors_oracle(m)
    return diag


def test_snf_worked_example():
    diag = check_snf([[2, 4], [6, 8]])
    assert diag == [2, 4]


def test_snf_identity():
    s, v, v_inv = smith_normal_form(identity(3))
    assert s == identity(3)
    assert v == identity(3)
    assert v_inv == identity(3)


def test_snf_zero_matrix():
    diag = check_snf([[0]])
    assert diag == [0]


def test_snf_rectangular():
    assert check_snf([[6, 10, 15]]) == [1]
    assert check_snf([[4], [6]]) == [2]


small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_snf_random(m):
    check_snf(m)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_hermite_random(m):
    h, t = hermite_form(m)
    assert matmul(t, m) == h
    assert abs(det_exact(t)) == 1
    pivots = []
    for row in h:
        piv = next((j for j, e in enumerate(row) if e != 0), None)
        if piv is None:
            continue
        assert row[piv] > 0
        if pivots:
            assert piv > pivots[-1]
        pivots.append(piv)


def _reference_hermite(m):
    """Dense column Euclid, independent of EchelonLattice: (h, t) with
    h = t @ m in Hermite form and t unimodular, zero rows at the bottom."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(row) for row in m]
    t = [[int(i == j) for j in range(rows)] for i in range(rows)]

    def add_row(dst, src, q):  # row dst += q * row src, in a and t
        for mat in (a, t):
            mat[dst] = [x + q * y for x, y in zip(mat[dst], mat[src])]

    r = 0
    for j in range(cols):
        # Euclid on column j among rows >= r.
        while True:
            nz = [i for i in range(r, rows) if a[i][j] != 0]
            if not nz:
                break
            pi = min(nz, key=lambda i: abs(a[i][j]))
            a[r], a[pi] = a[pi], a[r]
            t[r], t[pi] = t[pi], t[r]
            done = True
            for i in range(r + 1, rows):
                if a[i][j] != 0:
                    add_row(i, r, -(a[i][j] // a[r][j]))
                    done = done and a[i][j] == 0
            if done:
                break
        if r < rows and a[r][j] != 0:
            if a[r][j] < 0:
                add_row(r, r, -2)
            for i in range(r):
                add_row(i, r, -(a[i][j] // a[r][j]))
            r += 1
            if r == rows:
                break
    return a, t


def _reference_basis(rows):
    return [row for row in _reference_hermite(rows)[0] if any(row)]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(small_matrices)
def test_hermite_forms_match_the_dense_reference(m):
    ref_h, ref_t = _reference_hermite(m)
    assert matmul(ref_t, m) == ref_h
    assert hermite_form(m)[0] == ref_h
    assert row_basis(m) == _reference_basis(m)
    ref_kernel = [ref_t[i] for i, row in enumerate(ref_h) if not any(row)]
    assert _reference_basis(left_kernel(m)) == _reference_basis(ref_kernel)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(small_matrices, st.data())
def test_column_moduli_match_stacked_relation_rows(m, data):
    cols = len(m[0])
    moduli = data.draw(st.lists(st.sampled_from([0, 0, 2, 3, 4, 6, 9]),
                                min_size=cols, max_size=cols))
    relations = [[t if k == j else 0 for k in range(cols)] for j, t in enumerate(moduli) if t]
    assert row_basis(m, moduli) == row_basis(m + relations)
    kernel = left_kernel(m, moduli)
    for x in matmul(kernel, m):
        assert not any(e % t if t else e for e, t in zip(x, moduli))
    # the stacked form: a kernel over m and the relations, multipliers cut off
    stacked = [w[:len(m)] for w in left_kernel(m + relations)]
    assert row_basis(kernel) == row_basis(stacked)


@st.composite
def torsion_lattices(draw):
    """Column moduli (0 for a free column), rows to insert, and how many of
    them go in before a first dense() call."""
    moduli = draw(st.lists(st.sampled_from([0, 0, 2, 3, 4, 6, 9]), min_size=1, max_size=4))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=len(moduli), max_size=len(moduli)),
                         max_size=5))
    return moduli, rows, draw(st.integers(0, len(rows)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(torsion_lattices())
def test_lattice_dense_basis_matches_the_dense_reference(case):
    moduli, rows, first = case
    lattice = EchelonLattice()
    for j, t in enumerate(moduli):
        lattice.column(j, t)
    for i, row in enumerate(rows):
        if i == first:
            lattice.dense()  # rewriting the rows must keep their lattice
        lattice.insert({j: e for j, e in enumerate(row) if e})
    relations = [[t if k == j else 0 for k in range(len(moduli))]
                 for j, t in enumerate(moduli) if t]
    assert lattice.dense() == (_reference_basis(rows + relations), relations)


def test_dense_reduces_above_a_pivot_that_enters_later():
    lattice = EchelonLattice()
    lattice.insert({lattice.column(0, 0): 1, lattice.column(1, 0): 3})
    lattice.insert({1: 2})
    assert lattice.dense()[0] == [[1, 1], [0, 2]]


def test_snf_huge_entries_stay_exact():
    big = 10 ** 30
    m = [[2 * big, 4 * big], [6 * big, 8 * big + 2]]
    s, v, v_inv = smith_normal_form(m)
    assert matmul(v, v_inv) == identity(2)
    assert row_basis(matmul(m, v)) == row_basis(s)
    diag = [s[0][0], s[1][1]]
    assert s[0][1] == s[1][0] == 0
    assert diag[0] > 0 and diag[1] % diag[0] == 0
    assert diag[0] * diag[1] == abs(det_exact(m))


def test_solve_left():
    basis = [[2, 0], [0, 3]]
    assert solve_left(basis, [4, 9]) == [2, 3]
    assert solve_left(basis, [1, 0]) is None
    assert solve_left([[2, 1], [0, 3]], [2, 7]) == [1, 2]
    assert solve_left([], [0, 0]) == []
    assert solve_left([], [1, 0]) is None
    for not_hermite in ([[0, 3], [2, 0]], [[-2, 0], [0, 3]], [[2, 5], [0, 3]],
                        [[2, 0], [0, 0]], [[2, 0], [2, 3]]):
        with pytest.raises(ValueError):
            solve_left(not_hermite, [4, 9])


def test_left_kernel():
    m = [[1, 2], [2, 4], [0, 1]]
    ker = left_kernel(m)
    for row in ker:
        assert all(x == 0 for x in matmul([row], m)[0])
    # rank 2 matrix of 3 rows: kernel rank 1
    assert len(row_basis(ker)) == 1


def test_invert_unimodular():
    m = [[1, 2], [1, 3]]
    inv = invert_unimodular(m)
    assert matmul(m, inv) == identity(2)
    with pytest.raises(ValueError):
        invert_unimodular([[2, 0], [0, 1]])


def test_lattice_intersection():
    # 2Z x Z meets Z x 3Z in 2Z x 3Z
    inter = lattice_intersection([[2, 0], [0, 1]], [[1, 0], [0, 3]], 2)
    assert row_basis(inter) == [[2, 0], [0, 3]]
    # span{(1,1)} meets span{(1,-1)} trivially in Z^2
    assert lattice_intersection([[1, 1]], [[1, -1]], 2) == []


def _trial_exponent_sum(n):
    total, p = 0, 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            total += 1
        p += 1
    return total + (n > 1)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.one_of(st.integers(1, 10 ** 7 - 1),
                 st.builds(lambda a, b: a * b, st.integers(100, 3000), st.integers(100, 3000))))
def test_exponent_sum_matches_trial_division(n):
    assert exponent_sum(n) == _trial_exponent_sum(n)


# primes near 10^9: trial division would run on to the smallest of them
PRIMES_NEAR_1E9 = (998244353, 999999937, 1000000007, 1000000009, 1000000021, 1000000033)


def test_primes_near_1e9_are_prime():
    assert all(_trial_exponent_sum(p) == 1 for p in PRIMES_NEAR_1E9)


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sampled_from(PRIMES_NEAR_1E9), min_size=2, max_size=3),
       st.integers(1, 10 ** 4))
def test_exponent_sum_splits_products_of_large_primes(primes, small):
    # two primes stay below the Miller-Rabin bound, three pass it; a
    # witness proves the product composite either way, and Pollard-Brent
    # splits it
    assert exponent_sum(math.prod(primes) * small) == len(primes) + _trial_exponent_sum(small)


def test_exponent_sum_past_the_miller_rabin_bound_raises():
    # 2^89 - 1 is prime, and past the bound Miller-Rabin proves nothing:
    # no trial division runs on towards its square root
    with pytest.raises(DomainError, match="3317044064679887385961981"):
        exponent_sum(2 ** 89 - 1)
    with pytest.raises(DomainError):
        exponent_sum(12 * (2 ** 89 - 1))


def test_exponent_sum_of_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2-7 and 2-23: fewer than 13
    # Miller-Rabin bases would call them prime
    assert exponent_sum(151 * 751 * 28351) == exponent_sum(3215031751) == 3
    assert exponent_sum(149491 * 747451 * 34233211) == exponent_sum(3825123056546413051) == 3
