"""Exact integer matrix kernels: Smith and Hermite forms, lattice solving.

Everything here works on plain Python ints, so all values stay exact at
any magnitude.  Matrices are row-major lists and lattices are spanned by
rows; a "transform" is always a unimodular matrix acting on the left or
right.  The Smith form returns its right transform v with v's inverse
(what a presentation needs to lift generators back) and no left
transform.  EchelonLattice is the one Hermite elimination: it grows an
echelon basis vector by vector, its rank and index give `rank` and
`nu`, and its dense rows are the Hermite basis of its lattice.  Every
Hermite form, kernel and subgroup presentation reads such a basis, its
columns read modulo their torsion orders: row_basis is that basis, and
hermite_form splits the basis of [m | I] into [h | t].  left_kernel, the
one kernel routine (kernels of group homomorphisms, of F_p matrices and
of the sofic transfer systems), reads the echelon rows of [m | I] whose
pivot is a transform column; it skips the Hermite reduction, as every
caller reads only the lattice those rows span.
"""

from __future__ import annotations

import math

from .errors import DomainError


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b) -> list[list[int]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch in matmul")
    cols = len(b[0]) if b else 0
    return [[sum(row[k] * b[k][j] for k in range(len(row))) for j in range(cols)]
            for row in a]


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m, dst, src, q):
    # row dst += q * row src
    row_s = m[src]
    row_d = m[dst]
    for k in range(len(row_d)):
        row_d[k] += q * row_s[k]


def _add_col(m, dst, src, q):
    for row in m:
        row[dst] += q * row[src]


def smith_normal_form(m) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (s, v, v_inv) with s = u @ m @ v for some unimodular u.

    s is diagonal with non-negative entries forming a divisibility chain
    (each entry divides the next); v is unimodular and v_inv its inverse,
    kept by mirroring each column operation on v as the inverse row
    operation on v_inv.  u is not built: rowspan(m @ v) = rowspan(s).
    Empty matrices come back unchanged with identity transforms.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(row) for row in m]
    v = identity(cols)
    v_inv = identity(cols)

    t = 0
    while t < min(rows, cols):
        # Pivot: entry of smallest absolute value in the trailing block.
        pi = pj = -1
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                e = a[i][j]
                if e != 0 and (best is None or abs(e) < best):
                    best, pi, pj = abs(e), i, j
        if best is None:
            break
        if pi != t:
            _swap_rows(a, t, pi)
        if pj != t:
            _swap_cols(a, t, pj)
            _swap_cols(v, t, pj)
            _swap_rows(v_inv, t, pj)

        while True:
            # Clear the pivot column with row operations.
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] == 0:
                    continue
                _add_row(a, i, t, -(a[i][t] // a[t][t]))
                if a[i][t] != 0:
                    # Remainder is a smaller pivot; promote it.
                    _swap_rows(a, t, i)
                    dirty = True
            if dirty:
                continue
            # Clear the pivot row with column operations.
            for j in range(t + 1, cols):
                if a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                _add_col(a, j, t, -q)
                _add_col(v, j, t, -q)
                _add_row(v_inv, t, j, q)  # inverse of the column operation
                if a[t][j] != 0:
                    _swap_cols(a, t, j)
                    _swap_cols(v, t, j)
                    _swap_rows(v_inv, t, j)
                    dirty = True
            if dirty:
                continue
            # Pivot must divide the whole trailing block for the chain.
            p = a[t][t]
            stray = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % p != 0:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            _add_row(a, t, stray, 1)
        t += 1

    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            _add_row(a, i, i, -2)  # negate row: r - 2r
    return a, v, v_inv


def hermite_form(m, moduli=None) -> tuple[list[list[int]], list[list[int]]]:
    """Row echelon form over the integers with transform: h = t @ m, each
    column j read modulo moduli[j] (0, or no moduli: free).

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), and t is unimodular.  Zero rows sink to the bottom.  The
    Hermite basis (row_basis) of the rows of [m | I] splits as [h | t],
    with one row per row of m and per torsion column.
    """
    lattice, cols = _augmented(m, moduli)
    basis = lattice.dense()[0]
    return [row[:cols] for row in basis], [row[cols:] for row in basis]


def _augmented(m, moduli) -> tuple["EchelonLattice", int]:
    """The EchelonLattice of the rows of [m | I], column j < cols read
    modulo moduli[j] and the transform columns free, and cols."""
    cols = len(m[0]) if m else len(moduli or ())
    moduli = tuple(moduli or (0,) * cols) + (0,) * len(m)
    rows = [list(row) + [int(i == k) for k in range(len(m))] for i, row in enumerate(m)]
    return echelon_lattice(rows, moduli), cols


def echelon_lattice(rows, moduli) -> "EchelonLattice":
    """The EchelonLattice of the given rows, column j read modulo moduli[j]."""
    lattice = EchelonLattice()
    for j, t in enumerate(moduli):
        lattice.column(j, t)
    for row in rows:
        lattice.insert({j: e for j, e in enumerate(row) if e})
    return lattice


def row_basis(rows, moduli=None) -> list[list[int]]:
    """Hermite basis of the lattice the rows span, column j read modulo
    moduli[j] (no moduli: all free): the dense basis of their EchelonLattice."""
    return echelon_lattice(rows, moduli or (0,) * (len(rows[0]) if rows else 0)).dense()[0]


def solve_left(basis, target) -> list[int] | None:
    """Solve x @ basis = target over the integers, or None.

    basis is a Hermite row basis, as row_basis returns it, so x is unique
    and comes from back substitution; any other basis raises ValueError.
    """
    pivots = [next((j for j, e in enumerate(row) if e), len(row)) for row in basis]
    for i, (row, p) in enumerate(zip(basis, pivots)):
        if (p == len(row) or row[p] < 0 or (i and p <= pivots[i - 1])
                or any(not 0 <= above[p] < row[p] for above in basis[:i])):
            raise ValueError("basis is not in Hermite form")
    v = list(target)
    x = []
    for row, p in zip(basis, pivots):
        q, rem = divmod(v[p], row[p])
        if rem:
            return None
        x.append(q)
        for k in range(p, len(v)):
            v[k] -= q * row[k]
    return None if any(v) else x


def left_kernel(m, moduli=None) -> list[list[int]]:
    """Basis rows of the lattice {x : x @ m = 0}, column j read modulo moduli[j].

    They are the echelon rows of [m | I] whose pivot is a transform
    column, so their m part is zero, read over the transform columns.
    The basis is echelon but not Hermite-reduced."""
    lattice, cols = _augmented(m, moduli)
    width = cols + len(m)
    return [[row.get(k, 0) for k in range(cols, width)]
            for c, row in sorted(lattice._rows.items()) if c >= cols]


def invert_unimodular(m) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix.  No command calls it; the
    span intmat.invert_unimodular and tests/test_intmat.py keep it."""
    n = len(m)
    h, t = hermite_form(m)
    if h != identity(n):
        raise ValueError("matrix is not unimodular")
    return t


def lattice_intersection(rows_a, rows_b, dim: int) -> list[list[int]]:
    """Basis of the intersection of the lattices spanned by rows_a, rows_b.
    Only intersect_subgroups calls it; the span intmat.lattice_intersection
    and tests/test_intmat.py keep it."""
    pa = row_basis(rows_a) if rows_a else []
    pb = row_basis(rows_b) if rows_b else []
    if not pa or not pb:
        return []
    stacked = pa + pb
    inter = []
    for w in left_kernel(stacked):
        ua = w[: len(pa)]
        vec = [sum(ua[i] * pa[i][k] for i in range(len(pa))) for k in range(dim)]
        if any(vec):
            inter.append(vec)
    return row_basis(inter)


# Miller-Rabin on the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Miller-Rabin on _MR_BASES for odd n > 41.  False proves n composite;
    True proves n prime below _MR_BOUND."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# steps of rho whose differences share one gcd
_BRENT_BATCH = 128


def _brent_divisor(n: int) -> int:
    """A divisor 1 < d < n of the odd composite n: Pollard's rho with
    Brent's cycle search (Brent, BIT 20, 1980) on x -> x^2 + c from x = 2,
    tried for c = 1, 2, ... in turn, so d is a function of n alone."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y  # the batch start, to step again if the batch overshoots
                for _ in range(min(_BRENT_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _BRENT_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def exponent_sum(n: int) -> int:
    """Number of prime factors of n >= 1, counted with multiplicity.

    Trial division by the divisors below 101.  Each part left over then
    meets Miller-Rabin: a witness proves it composite, and Pollard-Brent
    splits it; no witness proves it prime below _MR_BOUND.  A part past
    the bound with no witness raises DomainError: its count would rest on
    a test that proves nothing there, so orders are supported while every
    such part lies below the bound.
    """
    total = 0
    p = 2
    while p * p <= n and p < 101:
        while n % p == 0:
            n //= p
            total += 1
        p += 1 if p == 2 else 2
    if p * p > n:  # n is 1 or a prime
        return total + (n > 1)
    parts = [n]  # each part > 1 with no prime factor below 101
    while parts:
        m = parts.pop()
        if not _is_prime(m):
            d = _brent_divisor(m)
            parts += [d, m // d]
        elif m < _MR_BOUND:
            total += 1
        else:
            raise DomainError(
                f"order factor {m} lies past {_MR_BOUND}, the bound on prime factors "
                f"of orders: Miller-Rabin finds no witness but proves nothing there")
    return total


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


class EchelonLattice:
    """Echelon basis of L + R in Z^columns, grown one vector at a time.

    Columns are named by sortable keys and added lazily, each with a
    modulus: a torsion order t >= 2, whose relation t*e_c joins R, or 0
    for a free column.  L is spanned by the inserted vectors, so
    (L + R)/R is the subgroup they generate in the product of the
    columns' groups.  Rows are sparse {column: entry} dicts, one per
    pivot column (the row's smallest key).

    `insert` eliminates pivot by pivot (Cohen 1993, section 2.4): a
    pivot that does not divide the incoming entry is replaced by their
    gcd through a unimodular 2x2 step, so every pivot is positive.
    Torsion entries are kept in [0, t) by the relations, and a row that
    enters the basis has its entries above later pivots reduced into
    [0, pivot), so entries stay bounded.
    """

    def __init__(self):
        self._moduli = {}  # column -> torsion order, or 0 when free
        self._rows = {}    # pivot column -> row
        self._torsion_columns = 0
        # exponent_sum of prod(t_c / p_c) over the torsion columns: with
        # free_rank 0 the subgroup has order prod(t_c) / prod(p_c)
        self.omega = 0

    @property
    def free_rank(self) -> int:
        """Rank of (L + R)/R: every torsion column holds one pivot."""
        return len(self._rows) - self._torsion_columns

    def copy(self) -> "EchelonLattice":
        """An independent copy; rows are shared, as no row is edited in place."""
        out = EchelonLattice()
        out.__dict__.update(vars(self), _moduli=dict(self._moduli), _rows=dict(self._rows))
        return out

    def dense(self) -> tuple[list[list[int]], list[list[int]]]:
        """The Hermite basis of L + R and the relations t*e_c of R as dense
        rows over the sorted columns.  Each row is installed again first:
        no row is reduced above a pivot that enters or shrinks after it."""
        for c in sorted(self._rows):
            self._install(c, self._rows[c])
        columns = sorted(self._moduli)
        rows = [[row.get(k, 0) for k in columns] for _, row in sorted(self._rows.items())]
        relations = [[self._moduli[k] if k == c else 0 for k in columns]
                     for c in columns if self._moduli[c]]
        return rows, relations

    def column(self, key, modulus: int):
        """Add the column `key` with its modulus unless present; return key."""
        if key not in self._moduli:
            self._moduli[key] = modulus
            if modulus:
                self._torsion_columns += 1
                self._rows[key] = {key: modulus}
        return key

    def _combine(self, u, a, w, b):
        """a*u + b*w with torsion entries reduced."""
        moduli = self._moduli
        out = {}
        for k in u.keys() | w.keys():
            x = a * u.get(k, 0) + b * w.get(k, 0)
            if moduli[k]:
                x %= moduli[k]
            if x:
                out[k] = x
        return out

    def _install(self, c, row):
        """Make row the basis row of pivot c after reducing it above later pivots."""
        rows = self._rows
        d = c
        while True:
            later = [k for k in row if k > d and k in rows and not 0 <= row[k] < rows[k][k]]
            if not later:
                break
            d = min(later)
            row = self._combine(row, 1, rows[d], -(row[d] // rows[d][d]))
        rows[c] = row

    def insert(self, vec) -> None:
        """Add the vector {column: entry} (columns added beforehand) to L."""
        rows, moduli = self._rows, self._moduli
        v = {}
        for k, x in vec.items():
            if moduli[k]:
                x %= moduli[k]
            if x:
                v[k] = x
        while v:
            c = min(v)
            a = v[c]
            row = rows.get(c)
            if row is None:
                self._install(c, v if a > 0 else self._combine(v, -1, {}, 0))
                return
            p = row[c]
            if a % p == 0:  # v is this insert's own dict: update it in place
                q = a // p
                for k, e in row.items():
                    x = v.get(k, 0) - q * e
                    if moduli[k]:
                        x %= moduli[k]
                    if x:
                        v[k] = x
                    else:
                        v.pop(k, None)
                continue
            g, x, y = _xgcd(p, a)
            pivot_row = self._combine(row, x, v, y)
            v = self._combine(v, p // g, row, -(a // g))
            if moduli[c]:
                self.omega += exponent_sum(p // g)
            self._install(c, pivot_row)
