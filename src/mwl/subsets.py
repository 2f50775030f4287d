"""Elements and deduplicated finite subsets of a group or shift module.

An Element pairs its ambient object with one canonical item (a plain
nested tuple, its `coords`); a subset stores the items alone, so set
arithmetic runs on hashable data at native speed and elements are
materialized only on iteration.  The ambient object supplies the item
protocol, which both FinAbGroup and ShiftModule implement: the algebra
_zero_item/_add_items/_neg_item/_scale_item, and the coordinate view
that weak lengths read, _moduli (the torsion order of each coefficient
coordinate, 0 when free) and _terms (an item as (point, coefficient
coordinates) pairs; a group item is one pair at point ()).  A group item
is the tuple of canonical coordinates, and AbHom._apply_item maps items,
so sums, images and product sets never build an element.

Minkowski sums grow multiplicatively, so every constructor that can make
a set larger than its inputs enforces a hard cap and fails loudly instead
of thrashing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, SetSizeLimitError

SET_CAP = 10**6


@dataclass(frozen=True)
class Element:
    """An element of a group or shift module, kept as its canonical item.

    Arithmetic calls the ambient's item protocol.
    """

    ambient: object
    coords: tuple

    def __add__(self, other: "Element") -> "Element":
        if self.ambient != other.ambient:
            raise DomainError("elements of different ambients")
        return Element(self.ambient, self.ambient._add_items(self.coords, other.coords))

    def __neg__(self) -> "Element":
        return Element(self.ambient, self.ambient._neg_item(self.coords))

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __rmul__(self, k: int) -> "Element":
        return Element(self.ambient, self.ambient._scale_item(k, self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)


@dataclass(frozen=True)
class FiniteSubset:
    ambient: object
    items: frozenset

    @staticmethod
    def of(ambient, elements) -> "FiniteSubset":
        items = []
        for e in elements:
            if not isinstance(e, Element) or e.ambient != ambient:
                raise DomainError("element does not belong to the ambient object")
            items.append(e.coords)
        return FiniteSubset.from_items(ambient, items)

    @staticmethod
    def from_items(ambient, items) -> "FiniteSubset":
        items = frozenset(items)
        if not items:
            raise DomainError("finite subsets must be nonempty")
        if len(items) > SET_CAP:
            raise SetSizeLimitError(SET_CAP)
        return FiniteSubset(ambient, items)

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        for item in self.items:
            yield Element(self.ambient, item)

    def sorted_elements(self):
        return [Element(self.ambient, i) for i in sorted(self.items)]

    def contains_zero(self) -> bool:
        return self.ambient._zero_item() in self.items

    def is_symmetric(self) -> bool:
        neg = self.ambient._neg_item
        return all(neg(i) in self.items for i in self.items)


def minkowski_sum(a: FiniteSubset, b: FiniteSubset) -> FiniteSubset:
    """Sum set {x + y}; result size is capped."""
    if a.ambient != b.ambient:
        raise DomainError("minkowski sum of subsets of different ambients")
    add = a.ambient._add_items
    out = set()
    for x in a.items:
        for y in b.items:
            out.add(add(x, y))
            if len(out) > SET_CAP:
                raise SetSizeLimitError(SET_CAP)
    return FiniteSubset(a.ambient, frozenset(out))


def negate(a: FiniteSubset) -> FiniteSubset:
    neg = a.ambient._neg_item
    return FiniteSubset(a.ambient, frozenset(neg(x) for x in a.items))


def difference_set(a: FiniteSubset, b: FiniteSubset) -> FiniteSubset:
    """The set a - b = {x - y : x in a, y in b}."""
    return minkowski_sum(a, negate(b))


def union(a: FiniteSubset, b: FiniteSubset) -> FiniteSubset:
    if a.ambient != b.ambient:
        raise DomainError("union of subsets of different ambients")
    return FiniteSubset.from_items(a.ambient, a.items | b.items)


def product_subset(a: FiniteSubset, emb_a, b: FiniteSubset, emb_b) -> FiniteSubset:
    """Image of a x b inside a direct sum, given the two embeddings."""
    return minkowski_sum(map_subset(emb_a, a), map_subset(emb_b, b))


def map_subset(phi, a: FiniteSubset) -> FiniteSubset:
    """Image of a subset under a homomorphism (deduplicated)."""
    if a.ambient != phi.source:
        raise DomainError("element not in the source group")
    return FiniteSubset(phi.target, frozenset(map(phi._apply_item, a.items)))
