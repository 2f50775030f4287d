"""Finitely generated abelian groups in canonical presentation.

A group is stored as its invariant-factor decomposition: torsion factors
(a divisibility chain of integers >= 2) followed by free coordinates.
Element coordinates are kept in canonical residue form, so equality and
hashing are plain tuple comparisons and set arithmetic on elements is
exact.  Subgroups and quotients are returned as fresh canonical groups
together with the homomorphism realizing them, which keeps infinite
subgroups like 2Z <= Z representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .errors import DomainError
from .intmat import (
    invert_unimodular,
    left_kernel,
    matmul,
    row_basis,
    smith_normal_form,
    solve_left,
)

__all__ = [
    "FinAbGroup",
    "AbElement",
    "AbHom",
    "smith_normal_form",
    "subgroup_generated",
    "quotient_group",
    "hom_kernel",
    "hom_image",
    "torsion_k",
    "cardinality",
    "direct_sum",
]

INFINITE = math.inf


@dataclass(frozen=True)
class FinAbGroup:
    """Direct sum of Z/t_1 + ... + Z/t_k + Z^free_rank, with t_i | t_(i+1).

    Coordinates 0..k-1 are the torsion coordinates (reduced mod t_i);
    the remaining free_rank coordinates are unreduced integers.
    """

    torsion: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        if self.free_rank < 0:
            raise DomainError("free_rank must be non-negative")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise DomainError("torsion factors must form a divisibility chain")
        if any(t < 2 for t in self.torsion):
            raise DomainError("torsion factors must be >= 2")

    @property
    def ambient_dim(self) -> int:
        return len(self.torsion) + self.free_rank

    @staticmethod
    def free(rank: int) -> "FinAbGroup":
        return FinAbGroup((), rank)

    @staticmethod
    def cyclic(m: int) -> "FinAbGroup":
        if m == 0:
            return FinAbGroup((), 1)
        return FinAbGroup((m,), 0)

    @staticmethod
    def of(*factors: int) -> "FinAbGroup":
        """Canonical form of a direct sum of cyclic groups Z/f (f=0 gives Z)."""
        rels = [[factors[i] if i == j else 0 for j in range(len(factors))]
                for i in range(len(factors))]
        group, _, _ = presentation_from_relations(len(factors), rels)
        return group

    def element(self, coords) -> "AbElement":
        try:
            coords = tuple(coords)
        except TypeError:
            raise DomainError(f"coordinates must be a list of integers, got {coords!r}") from None
        if not all(type(x) is int for x in coords):
            raise DomainError(f"coordinates must be integers, got {list(coords)!r}")
        if len(coords) != self.ambient_dim:
            raise DomainError("coordinate length does not match ambient dimension")
        return AbElement(self, self.reduce(coords))

    def reduce(self, coords) -> tuple[int, ...]:
        k = len(self.torsion)
        return tuple(c % t for c, t in zip(coords, self.torsion)) + tuple(coords[k:])

    def zero(self) -> "AbElement":
        return AbElement(self, (0,) * self.ambient_dim)

    def relation_rows(self) -> list[list[int]]:
        n = self.ambient_dim
        return [[self.torsion[i] if i == j else 0 for j in range(n)]
                for i in range(len(self.torsion))]

    def cardinality(self) -> int | float:
        if self.free_rank:
            return INFINITE
        return math.prod(self.torsion)

    def elements(self):
        """All elements; only valid for finite groups."""
        if self.free_rank:
            raise DomainError("cannot enumerate an infinite group")
        for coords in product(*(range(t) for t in self.torsion)):
            yield AbElement(self, coords)

    # item protocol used by FiniteSubset: items are canonical coord tuples
    def _zero_item(self):
        return (0,) * self.ambient_dim

    def _add_items(self, a, b):
        return self.reduce(tuple(x + y for x, y in zip(a, b)))

    def _neg_item(self, a):
        return self.reduce(tuple(-x for x in a))

    def _element_of_item(self, item) -> "AbElement":
        return AbElement(self, item)

    @property
    def _moduli(self) -> tuple[int, ...]:
        return self.torsion + (0,) * self.free_rank

    def _terms(self, item):
        return (((), item),)

    def __str__(self):
        parts = [f"C{t}" for t in self.torsion] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class AbElement:
    group: FinAbGroup
    coords: tuple[int, ...]

    def __add__(self, other: "AbElement") -> "AbElement":
        if self.group != other.group:
            raise DomainError("elements of different groups")
        return AbElement(self.group, self.group._add_items(self.coords, other.coords))

    def __neg__(self) -> "AbElement":
        return AbElement(self.group, self.group._neg_item(self.coords))

    def __sub__(self, other: "AbElement") -> "AbElement":
        return self + (-other)

    def __rmul__(self, k: int) -> "AbElement":
        return AbElement(self.group, self.group.reduce(tuple(k * c for c in self.coords)))

    def is_zero(self) -> bool:
        return not any(self.coords)


@dataclass(frozen=True)
class AbHom:
    """Homomorphism given by a matrix of generator images (row convention).

    Row i is the image of the i-th standard coordinate of the source, so
    the map is x -> x @ matrix.  Well-definedness (each source relation
    lands in the target relation lattice) is checked at construction.
    """

    source: FinAbGroup
    target: FinAbGroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = len(self.matrix)
        if rows != self.source.ambient_dim:
            raise DomainError("hom matrix must have one row per source coordinate")
        for row in self.matrix:
            if len(row) != self.target.ambient_dim:
                raise DomainError("hom matrix row length does not match target")
        for i, t in enumerate(self.source.torsion):
            if any(self.target.reduce(tuple(t * x for x in self.matrix[i]))):
                raise DomainError("matrix does not define a homomorphism")

    @staticmethod
    def from_rows(source, target, rows) -> "AbHom":
        return AbHom(source, target, tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(group: FinAbGroup) -> "AbHom":
        n = group.ambient_dim
        return AbHom.from_rows(group, group,
                               [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def scalar(group: FinAbGroup, k: int) -> "AbHom":
        n = group.ambient_dim
        return AbHom.from_rows(group, group,
                               [[k if i == j else 0 for j in range(n)] for i in range(n)])

    def apply(self, elt: AbElement) -> AbElement:
        if elt.group != self.source:
            raise DomainError("element not in the source group")
        vec = [sum(elt.coords[i] * self.matrix[i][j] for i in range(len(self.matrix)))
               for j in range(self.target.ambient_dim)]
        return AbElement(self.target, self.target.reduce(vec))

    def __call__(self, elt: AbElement) -> AbElement:
        return self.apply(elt)


def presentation_from_relations(ambient_dim, relation_rows):
    """Canonicalize Z^ambient_dim / rowspan(relations).

    Returns (group, proj, section): proj is an ambient_dim x k matrix
    sending old coordinates to canonical ones, section a k x ambient_dim
    matrix lifting each canonical generator back to Z^ambient_dim.
    """
    if not relation_rows:
        n = ambient_dim
        eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        return FinAbGroup((), n), eye, eye
    s, _, v = smith_normal_form(relation_rows)
    vinv = invert_unimodular(v)
    r = min(len(s), len(s[0]))
    diag = [s[i][i] for i in range(r)] + [0] * (ambient_dim - r)
    torsion_idx = [i for i, d in enumerate(diag) if d >= 2]
    free_idx = [i for i, d in enumerate(diag) if d == 0]
    kept = torsion_idx + free_idx
    group = FinAbGroup(tuple(diag[i] for i in torsion_idx), len(free_idx))
    proj = [[v[i][j] for j in kept] for i in range(ambient_dim)]
    section = [list(vinv[j]) for j in kept]
    return group, proj, section


def _subgroup_from_rows(g: FinAbGroup, rows) -> tuple[FinAbGroup, AbHom]:
    """Present (rowspan(rows) + relations)/relations as a subgroup of g."""
    lattice = row_basis([list(r) for r in rows] + g.relation_rows())
    if not lattice:
        trivial = FinAbGroup()
        return trivial, AbHom.from_rows(trivial, g, [])
    rel_in_basis = []
    for rel in g.relation_rows():
        coeffs = solve_left(lattice, rel)
        if coeffs is None:
            raise DomainError("group relation outside the subgroup lattice")
        rel_in_basis.append(coeffs)
    sub, _, section = presentation_from_relations(len(lattice), rel_in_basis)
    incl_rows = matmul(section, lattice)
    return sub, AbHom.from_rows(sub, g, [g.reduce(r) for r in incl_rows])


def subgroup_generated(g: FinAbGroup, elements) -> tuple[FinAbGroup, AbHom]:
    """Subgroup generated by the given elements, with its inclusion."""
    elements = list(elements)
    if not elements:
        raise DomainError("generating set must be nonempty")
    for e in elements:
        if e.group != g:
            raise DomainError("generator outside the group")
    return _subgroup_from_rows(g, [list(e.coords) for e in elements])


def quotient_group(g: FinAbGroup, generators) -> tuple[FinAbGroup, AbHom]:
    """Quotient of g by the subgroup the generators span, with projection."""
    rows = []
    for e in generators:
        if e.group != g:
            raise DomainError("generator outside the group")
        rows.append(list(e.coords))
    quot, proj, _ = presentation_from_relations(
        g.ambient_dim, g.relation_rows() + rows)
    return quot, AbHom.from_rows(g, quot, proj)


def hom_kernel(h: AbHom) -> tuple[FinAbGroup, AbHom]:
    """Kernel of h as a presented subgroup of the source."""
    n = h.source.ambient_dim
    stacked = [list(r) for r in h.matrix] + h.target.relation_rows()
    kernel_rows = [w[:n] for w in left_kernel(stacked)]
    return _subgroup_from_rows(h.source, kernel_rows)


def hom_image(h: AbHom) -> tuple[FinAbGroup, AbHom]:
    """Image of h as a presented subgroup of the target."""
    return _subgroup_from_rows(h.target, [list(r) for r in h.matrix])


def torsion_k(g: FinAbGroup, k: int) -> tuple[FinAbGroup, AbHom]:
    """Subgroup of elements killed by k."""
    if k < 1:
        raise DomainError("torsion order must be a positive integer")
    return hom_kernel(AbHom.scalar(g, k))


def cardinality(g: FinAbGroup) -> int | float:
    return g.cardinality()


def direct_sum(g: FinAbGroup, h: FinAbGroup) -> tuple[FinAbGroup, AbHom, AbHom]:
    """Canonical direct sum with the two embeddings."""
    total, (emb_g, emb_h) = direct_sum_many([g, h])
    return total, emb_g, emb_h


def direct_sum_many(groups) -> tuple[FinAbGroup, list[AbHom]]:
    """Direct sum of a list of groups with all embeddings, in one pass."""
    dims = [g.ambient_dim for g in groups]
    n = sum(dims)
    rels = []
    offset = 0
    for g, d in zip(groups, dims):
        for row in g.relation_rows():
            rels.append([0] * offset + row + [0] * (n - offset - d))
        offset += d
    total, proj, _ = presentation_from_relations(n, rels)
    embeddings = []
    offset = 0
    for g, d in zip(groups, dims):
        embeddings.append(AbHom.from_rows(g, total, proj[offset:offset + d]))
        offset += d
    return total, embeddings


def intersect_subgroups(g: FinAbGroup, gens_a, gens_b) -> list[AbElement]:
    """Generators of the intersection of two finitely generated subgroups."""
    from .intmat import lattice_intersection

    n = g.ambient_dim
    rows_a = [list(e.coords) for e in gens_a] + g.relation_rows()
    rows_b = [list(e.coords) for e in gens_b] + g.relation_rows()
    inter = lattice_intersection(rows_a, rows_b, n)
    return [g.element(row) for row in inter]
