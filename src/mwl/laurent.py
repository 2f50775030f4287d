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

A vector joins the basis by Euclid on pivot components: the row at its
pivot position keeps the lower pivot degree, and the other vector is
reduced by it and inserted again.  Submodules of the Laurent module are
handled by t-normalizing the generators into F_p[t]^k and then
t-saturating the polynomial module (dividing out combinations that
vanish mod t) so that polynomial membership agrees with Laurent
membership; both divide by the whole power of t in one helper,
_tnormalize.  The combinations come from the integer left kernel of the
rows' constant terms, columns read modulo p (intmat.left_kernel).
Normal forms, pivot polynomials and quotient sizes depend only on the
submodule, not on the basis or kernel basis reached.  When the
quotient is finite, the staircase is a square upper triangular matrix B,
and its determinant f, the product of the pivot polynomials, kills every
class (adj(B) B = f I).  f is also the characteristic polynomial of t on
the quotient, and saturation makes t one-to-one, hence invertible, on a
finite quotient, so f(0) != 0.  The polynomial
u = -(f - f(0)) / (t f(0)) then satisfies t u = 1 - f / f(0), which
acts as 1: u is t^-1 on the quotient.  Classes of elements with negative support get canonical
representatives by multiplying with a power of u and reducing once.
With free directions left in the quotient there is no
translation-consistent representative and the configuration is rejected.

Polynomials are coefficient tuples, lowest degree first, with no
trailing zeros; () is zero.  A Laurent vector is a polynomial vector
with a degree offset: (vec, low) stands for t^low * vec.
"""

from __future__ import annotations

from .errors import ConfigurationError
from .intmat import exponent_sum, left_kernel


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
            inv = pow(vec[pos][-1], p - 2, p)
            vec = [pscale(c, inv, p) for c in vec]
            at = next((i for i, r in enumerate(self.rows) if self._pivot(r) == pos), None)
            if at is None:
                self.rows.append(vec)
                self.rows.sort(key=self._pivot)
                return
            if pdeg(vec[pos]) < pdeg(self.rows[at][pos]):
                self.rows[at], vec = vec, self.rows[at]
            row = self.rows[at]
            q, _ = pdivmod(vec[pos], row[pos], p)
            vec = [padd(vec[i], pscale(pmul(q, row[i], p), -1, p), p) for i in range(self.k)]

    def _saturate(self):
        p = self.p
        while True:
            if not self.rows:
                return
            consts = [[(c[0] if c else 0) for c in row] for row in self.rows]
            added = False
            for gamma in left_kernel(consts, (p,) * self.k):  # gamma @ consts = 0 mod p
                combo = [()] * self.k
                for coeff, row in zip(gamma, self.rows):
                    if coeff:
                        combo = [padd(combo[i], pscale(row[i], coeff, p), p)
                                 for i in range(self.k)]
                combo = self._tnormalize(combo)  # divide by its whole power of t
                if not self.member(combo):  # the zero combination is a member
                    self._insert(combo)
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
