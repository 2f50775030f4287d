"""Staircase bases for submodules of F_p[t, 1/t]^k and canonical residues.

Coefficients live in a prime field, and the one-variable module theory
makes exact reduction cheap: a submodule of F_p[t]^k has an echelon
basis with one pivot per leading position (position-over-term order),
and reducing each pivot component of a vector in ascending position
order is a canonical normal form.  The normal forms are the vectors
whose pivot components have degree below the pivot's, a fixed F_p-linear
complement of the submodule, so the normal-form map is F_p-linear: a
coefficient-wise sum, negative or multiple of normal forms is again a
normal form, and only multiplication by t can leave the complement.

Submodules of the Laurent module are handled by t-normalizing the
generators into F_p[t]^k and then t-saturating the polynomial module
(dividing out combinations that vanish mod t) so that polynomial
membership agrees with Laurent membership.  When the quotient is finite,
the staircase is a square upper triangular matrix B, and its
determinant f, the product of the pivot polynomials, kills every class
(adj(B) B = f I).  f is also the characteristic polynomial of t on the
quotient, and saturation makes t one-to-one, hence invertible, on a
finite quotient, so f(0) != 0.  The polynomial u = -(f - f(0)) / (t f(0))
then satisfies t u = 1 - f / f(0), which acts as 1: u is t^-1 on the
quotient.  Classes of elements with negative support get canonical
representatives by multiplying with a power of u and reducing once.
With free directions left in the quotient there is no
translation-consistent representative and the configuration is
rejected.

Polynomials are coefficient tuples, lowest degree first, with no
trailing zeros; () is zero.  A Laurent vector is a polynomial vector
with a degree offset: (vec, low) stands for t^low * vec.
"""

from __future__ import annotations

from .errors import ConfigurationError
from .intmat import exponent_sum


def pnorm(coeffs, p):
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def pdeg(a):
    return len(a) - 1  # -1 for the zero polynomial


def padd(a, b, p):
    n = max(len(a), len(b))
    return pnorm([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)], p)


def pscale(a, c, p):
    return pnorm([c * x for x in a], p)


def pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return pnorm(out, p)


def pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b):
        while rem and rem[-1] % p == 0:
            rem.pop()
        if len(rem) < len(b):
            break
        shift = len(rem) - len(b)
        factor = (rem[-1] * inv_lead) % p
        quo[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
    return pnorm(quo, p), pnorm(rem, p)


def pmonic(a, p):
    if not a:
        return a
    return pscale(a, pow(a[-1], p - 2, p), p)


def pxgcd(a, b, p):
    """(g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, padd(s0, pscale(pmul(q, s1, p), -1, p), p)
        t0, t1 = t1, padd(t0, pscale(pmul(q, t1, p), -1, p), p)
    if not r0:
        return (), (), ()
    c = pow(r0[-1], p - 2, p)
    return pmonic(r0, p), pscale(s0, c, p), pscale(t0, c, p)


def _fp_kernel(rows, width, p):
    """Basis of the right kernel of a matrix over F_p (rows of length width)."""
    mat = [list(r) for r in rows]
    n = len(mat)
    pivots = {}
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, n) if mat[i][col] % p), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(n):
            if i != r and mat[i][col] % p:
                f = mat[i][col]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots[col] = r
        r += 1
    basis = []
    for col in range(width):
        if col in pivots:
            continue
        vec = [0] * width
        vec[col] = 1
        for pcol, prow in pivots.items():
            vec[pcol] = (-mat[prow][col]) % p
        basis.append(tuple(vec))
    return basis


class StaircaseBasis:
    """Echelon basis of a t-saturated submodule of F_p[t]^k."""

    def __init__(self, p, k, poly_vectors):
        if exponent_sum(p) != 1:
            raise ConfigurationError(f"modulus {p} is not prime")
        self.p = p
        self.k = k
        self.rows: list[list[tuple]] = []
        for vec in poly_vectors:
            self._insert(self._tnormalize(list(vec)))
        self._saturate()

    # -- construction -------------------------------------------------

    def _tnormalize(self, vec):
        # divide out the largest common power of t across all components
        vec = [pnorm(c, self.p) for c in vec]
        nonzero = [c for c in vec if c]
        if not nonzero:
            return vec
        shift = min(next(i for i, x in enumerate(c) if x) for c in nonzero)
        if shift:
            vec = [c[shift:] if c else c for c in vec]
        return vec

    def _pivot(self, vec):
        return next((i for i, c in enumerate(vec) if c), None)

    def _insert(self, vec):
        p = self.p
        while True:
            pos = self._pivot(vec)
            if pos is None:
                return
            holder = next((r for r in self.rows if self._pivot(r) == pos), None)
            if holder is None:
                lead = vec[pos]
                inv = pow(lead[-1], p - 2, p)
                self.rows.append([pscale(c, inv, p) for c in vec])
                self.rows.sort(key=self._pivot)
                return
            g, s, t = pxgcd(holder[pos], vec[pos], p)
            combo = [padd(pmul(s, holder[i], p), pmul(t, vec[i], p), p)
                     for i in range(self.k)]
            qa, _ = pdivmod(vec[pos], g, p)
            qb, _ = pdivmod(holder[pos], g, p)
            residual = [padd(pmul(qb, vec[i], p), pscale(pmul(qa, holder[i], p), -1, p), p)
                        for i in range(self.k)]
            holder[:] = combo
            vec = residual

    def _saturate(self):
        p = self.p
        while True:
            if not self.rows:
                return
            consts = [[(c[0] if c else 0) for c in row] for row in self.rows]
            added = False
            for gamma in _fp_kernel(_transpose(consts), len(self.rows), p):
                combo = [()] * self.k
                for coeff, row in zip(gamma, self.rows):
                    if coeff:
                        combo = [padd(combo[i], pscale(row[i], coeff, p), p)
                                 for i in range(self.k)]
                if all(not c for c in combo):
                    continue
                dropped = [c[1:] if c else c for c in combo]  # divide by t
                if not self.member(dropped):
                    self._insert([pnorm(c, p) for c in dropped])
                    added = True
                    break
            if not added:
                return

    # -- queries ------------------------------------------------------

    def reduce(self, vec):
        """Canonical remainder of a polynomial vector (ascending walk)."""
        p = self.p
        vec = [pnorm(c, p) for c in vec]
        for row in self.rows:
            pos = self._pivot(row)
            if vec[pos]:
                q, rem = pdivmod(vec[pos], row[pos], p)
                if q:
                    vec = [padd(vec[i], pscale(pmul(q, row[i], p), -1, p), p)
                           for i in range(self.k)]
                vec[pos] = rem
        return vec

    def member(self, vec) -> bool:
        return all(not c for c in self.reduce(vec))

    @property
    def is_finite_quotient(self) -> bool:
        return len(self.rows) == self.k

    def _pivot_degrees(self):
        if not self.is_finite_quotient:
            raise ConfigurationError("quotient has free directions")
        return [pdeg(row[pos]) for pos, row in enumerate(self.rows)]

    @property
    def quotient_dim(self) -> int:
        return sum(self._pivot_degrees())

    def residue_count(self) -> int:
        return self.p ** self.quotient_dim

    def enumerate_residues(self):
        """All canonical residue vectors of a finite quotient."""
        p = self.p
        degs = self._pivot_degrees()
        from itertools import product as iproduct

        for flat in iproduct(range(p), repeat=sum(degs)):
            out, start = [], 0
            for d in degs:
                out.append(pnorm(flat[start:start + d], p))
                start += d
            yield out

    def inverse_power(self, m: int):
        """u^m mod f for m >= 1: the polynomial acting as t^-m on a finite
        quotient (f and u as in the module docstring)."""
        if not self.is_finite_quotient:
            raise ConfigurationError(
                "canonical forms with negative support need a finite quotient")
        p = self.p
        f = (1,)
        for pos, row in enumerate(self.rows):
            f = pmul(f, row[pos], p)
        if f[0] == 0:
            raise ConfigurationError("t is not invertible on the quotient")
        base = pscale(f[1:], -pow(f[0], p - 2, p), p)
        power = (1,)
        while True:
            if m & 1:
                power = pdivmod(pmul(power, base, p), f, p)[1]
            m >>= 1
            if not m:
                return power
            base = pdivmod(pmul(base, base, p), f, p)[1]


def _transpose(rows):
    if not rows:
        return []
    return [list(col) for col in zip(*rows)]


def laurent_normal_form(staircase: StaircaseBasis, vec, low: int):
    """Canonical representative of the Laurent vector t^low * vec modulo
    the submodule, as a polynomial vector.

    `vec` is a polynomial vector of length k and low <= 0.  With low == 0
    this is the remainder of `reduce`; otherwise vec is multiplied by the
    polynomial acting as t^low, which needs a finite quotient.
    """
    if low == 0:
        return staircase.reduce(vec)
    u = staircase.inverse_power(-low)
    return staircase.reduce([pmul(c, u, staircase.p) for c in vec])
