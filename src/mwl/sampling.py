"""Seeded instance generation for the axiom and upgrading checkers.

Reproducibility across runs and implementations matters more than
statistical quality here, so randomness comes from a fixed xorshift64*
generator rather than the stdlib Mersenne Twister:

    state ^= state >> 12
    state ^= (state << 25) mod 2^64
    state ^= state >> 27
    output = (state * 0x2545F4914F6CDD1D) mod 2^64

Bounded draws use plain modulo; the bias is irrelevant for test streams
and keeps the mapping trivially portable.

Sample streams bound groups to at most 64 elements and sets to at most 8
elements so that every checked inequality can be evaluated exactly.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import product

from .errors import DomainError
from .finabelian import AbHom, FinAbGroup, hom_kernel
from .intmat import identity, row_basis
from .subsets import Element, FiniteSubset

MASK64 = (1 << 64) - 1
DEFAULT_SEED = 0x9E3779B97F4A7C15

MAX_GROUP_ORDER = 64
MAX_SET_SIZE = 8
AUTOMORPHISM_TRIES = 48  # random homs drawn before falling back to the identity

# canonical group shapes with at most 64 elements, fixed pool for reproducible draws
_GROUP_SHAPES = (
    (),
    (2,), (3,), (4,), (5,), (6,), (8,), (9,), (12,), (16,), (24,), (36,), (60,),
    (2, 2), (2, 4), (2, 6), (2, 8), (3, 3), (3, 6), (4, 4), (2, 16), (5, 5),
    (2, 2, 2), (2, 2, 4), (2, 2, 8), (2, 4, 4), (3, 3, 3), (2, 2, 2, 2),
)


class XorShift64Star:
    """Deterministic 64-bit shift-register generator (xorshift64*)."""

    def __init__(self, seed: int):
        self.state = (seed & MASK64) or DEFAULT_SEED

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & MASK64

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.below(len(seq))]


def random_finite_group(rng: XorShift64Star, max_order: int = MAX_GROUP_ORDER) -> FinAbGroup:
    return rng.choice(_groups_up_to(max_order))


@cache
def _groups_up_to(max_order: int) -> tuple[FinAbGroup, ...]:
    """The groups of _GROUP_SHAPES with at most max_order elements, in table order."""
    return tuple(FinAbGroup(s) for s in _GROUP_SHAPES if math.prod(s) <= max_order)


def random_element(rng, group: FinAbGroup):
    if group.free_rank:
        raise DomainError("random elements need a finite group")
    return Element(group, tuple(rng.below(t) for t in group.torsion))


def random_subset(rng, group: FinAbGroup, max_size: int = MAX_SET_SIZE,
                  adjoin_zero: bool = False, *, pool=None) -> FiniteSubset:
    """Nonempty random subset; optionally forced to contain 0.

    `pool` restricts draws to the given elements (used to stay inside a
    torsion subgroup or a kernel).
    """
    size = rng.below(max_size) + 1
    elems = []
    for _ in range(size):
        if pool is not None:
            elems.append(rng.choice(pool))
        else:
            elems.append(random_element(rng, group))
    if adjoin_zero:
        elems.append(group.zero())
    return FiniteSubset.of(group, elems)


def random_hom(rng, source: FinAbGroup, target: FinAbGroup) -> AbHom:
    """Uniform random homomorphism between finite groups.

    The image of a generator of order t is drawn from the t-torsion of
    the target, coordinate by coordinate, which parametrizes Hom exactly.
    """
    rows = []
    for t in source.torsion:
        row = []
        for tj in target.torsion:
            g = math.gcd(t, tj)
            row.append((tj // g) * rng.below(g))
        rows.append(row)
    return AbHom.from_rows(source, target, rows)


def random_automorphism(rng, group: FinAbGroup) -> AbHom:
    """Random automorphism of a finite group (identity as fallback).

    An endomorphism of a finite group is one-to-one iff it is onto, that
    is, iff its image and the relations span the whole coordinate lattice.
    """
    full = identity(group.ambient_dim)
    for _ in range(AUTOMORPHISM_TRIES):
        phi = random_hom(rng, group, group)
        if row_basis(phi.matrix, group._moduli) == full:
            return phi
    return AbHom.identity(group)


def kernel_elements(phi: AbHom):
    """All elements of the kernel of a hom between finite groups."""
    ker, incl = hom_kernel(phi)
    return [incl(x) for x in ker.elements()]


def torsion_elements(group: FinAbGroup, k: int):
    """All elements killed by k, in coordinate order.

    On a torsion coordinate of order t these are the multiples of
    t / gcd(k, t); a free coordinate killed by k is 0.
    """
    if k < 1:
        raise DomainError("torsion order must be a positive integer")
    steps = [range(0, t, t // math.gcd(k, t)) for t in group.torsion]
    free = (0,) * group.free_rank
    return [Element(group, coords + free) for coords in product(*steps)]
