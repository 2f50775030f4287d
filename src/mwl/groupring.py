"""Group-ring modules: finitely supported coefficient functions with shift.

A ShiftModule realizes C-valued finitely supported functions on a
finitely generated abelian group, acted on by an abelian acting group:

  * plain modules give CG' (e.g. (Z/2)G, ZG for C = Z),
  * an action homomorphism lets the acting group work through a quotient
    (modules like C(G/H)),
  * a principal submodule presentation over a prime field with infinite
    cyclic support turns element normalization into one-variable
    staircase reduction, realizing quotient modules exactly.

Elements are stored as Element.coords: sorted tuples of (support coords,
coefficient coords) with no zero coefficients, so equality, hashing and
set deduplication are tuple operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ConfigurationError, DomainError
from .finabelian import (
    INFINITE,
    AbHom,
    FinAbGroup,
    direct_sum_many,
    quotient_group,
)
from .laurent import StaircaseBasis, laurent_normal_form, pnorm
from .subsets import Element, FiniteSubset, minkowski_sum


@dataclass(frozen=True)
class ShiftModule:
    """C-valued finitely supported functions on the support group.

    `action` (optional) is a homomorphism from the acting group `group`
    onto the support group; without it the group acts on itself.
    `quotient` (optional) holds the generators, as items, of a principal
    submodule over F_p[t, 1/t]; elements are then kept in normal form
    modulo that submodule.  An item is reduced where it can leave normal
    form: when it is built (`element`, a projection) and when it is
    translated.  Sums, negatives and scalar multiples are taken
    coefficient-wise without reduction, because the normal forms are a
    fixed F_p-linear complement of the submodule.
    """

    group: FinAbGroup                        # the acting group
    coeff: FinAbGroup
    action: AbHom | None = None
    quotient: tuple | None = None

    def __post_init__(self):
        if self.action is not None and self.action.source != self.group:
            raise ConfigurationError("the action must start at the acting group")
        if self.quotient is not None:
            support = self.support_group
            if support.free_rank != 1 or support.torsion:
                raise ConfigurationError(
                    "principal submodule reduction needs infinite cyclic support")
            if self.coeff.free_rank or len(set(self.coeff.torsion)) > 1:
                raise ConfigurationError(
                    "principal submodule reduction needs prime-field coefficients")
            self._staircase  # force validation (prime modulus, generators)

    @property
    def support_group(self) -> FinAbGroup:
        return self.action.target if self.action is not None else self.group

    @cached_property
    def _staircase(self) -> StaircaseBasis:
        p = self.coeff.torsion[0] if self.coeff.torsion else 0
        return StaircaseBasis(p, len(self.coeff.torsion),
                              [self._vector(items)[0] for items in self.quotient])

    def _vector(self, items):
        """(vec, low) with t^low * vec the item's Laurent vector and low <= 0;
        items over infinite cyclic support and prime-field coefficients."""
        k = len(self.coeff.torsion)
        if not items:
            return [()] * k, 0
        low = min(items[0][0][0], 0)
        vec = [[0] * (items[-1][0][0] + 1 - low) for _ in range(k)]
        for (d,), c in items:
            for pos, v in enumerate(c):
                vec[pos][d - low] = v
        return [pnorm(c, self.coeff.torsion[0]) for c in vec], low

    @staticmethod
    def _items(vec):
        """The item of the polynomial vector vec (degree 0 at support point 0)."""
        by_point: dict[tuple, list] = {}
        for pos, poly in enumerate(vec):
            for d, c in enumerate(poly):
                if c:
                    by_point.setdefault((d,), [0] * len(vec))[pos] = c
        return tuple(sorted((g, tuple(c)) for g, c in by_point.items()))

    # -- elements -------------------------------------------------------

    def element(self, pairs) -> Element:
        try:
            pairs = [(gcoords, ccoords) for gcoords, ccoords in pairs]
        except (TypeError, ValueError):
            raise DomainError("an element must be a list of [support, coefficient] pairs, "
                              f"got {pairs!r}") from None
        support_group, coeff = self.support_group, self.coeff
        support = {}
        for gcoords, ccoords in pairs:
            g = support_group.element(gcoords).coords
            c = coeff.element(ccoords).coords
            support[g] = coeff._add_items(support[g], c) if g in support else c
        items = tuple(sorted((g, c) for g, c in support.items() if any(c)))
        return Element(self, self._canonical(items))

    def zero(self) -> Element:
        return Element(self, ())

    def delta(self, ccoords, at=None) -> Element:
        """The function with one coefficient at one point (default identity)."""
        if at is None:
            at = self.support_group.zero().coords
        return self.element([(at, ccoords)])

    def _canonical(self, items):
        """Normal form of an item modulo the principal submodule.

        Called only where an item can leave normal form; a module without
        a quotient, or a quotient by the zero submodule, keeps every item.
        """
        if self.quotient is None or not self._staircase.rows:
            return items
        return self._items(laurent_normal_form(self._staircase, *self._vector(items)))

    # -- item protocol for Element and FiniteSubset ----------------------

    def _zero_item(self):
        return ()

    def _add_items(self, x, y):
        if not x:
            return y
        if not y:
            return x
        coeff = self.coeff
        merged = []
        i = j = 0
        while i < len(x) and j < len(y):
            gx, cx = x[i]
            gy, cy = y[j]
            if gx < gy:
                merged.append(x[i])
                i += 1
            elif gy < gx:
                merged.append(y[j])
                j += 1
            else:
                s = coeff._add_items(cx, cy)
                if any(s):
                    merged.append((gx, s))
                i += 1
                j += 1
        merged.extend(x[i:])
        merged.extend(y[j:])
        return tuple(merged)

    def _neg_item(self, x):
        neg = self.coeff._neg_item
        return tuple((g, neg(c)) for g, c in x)

    def _scale_item(self, k, x):
        coeff = self.coeff
        out = []
        for g, c in x:
            scaled = coeff.reduce(tuple(k * v for v in c))
            if any(scaled):
                out.append((g, scaled))
        return tuple(out)

    def _translate_item(self, shift_coords, x):
        add = self.support_group._add_items
        return self._canonical(
            tuple(sorted((add(g, shift_coords), c) for g, c in x)))

    @property
    def _moduli(self) -> tuple[int, ...]:
        return self.coeff._moduli

    def _terms(self, item):
        return item

    def action_shift(self, s: Element) -> tuple[int, ...]:
        """Support translation realized by an acting group element."""
        if s.ambient != self.group:
            raise DomainError("element not in the acting group")
        return s.coords if self.action is None else self.action(s).coords

    # -- global structure -------------------------------------------------

    def cardinality(self) -> int | float:
        if self.quotient is not None:
            if self._staircase.is_finite_quotient:
                return self._staircase.residue_count()
            return INFINITE
        support_card = self.support_group.cardinality()
        coeff_card = self.coeff.cardinality()
        if support_card == INFINITE or coeff_card == INFINITE:
            return INFINITE if coeff_card != 1 else 1
        return coeff_card ** support_card


def gr_translate(s: Element, a: FiniteSubset) -> FiniteSubset:
    """The translated set {s.x : x in a}; same size as a."""
    module = a.ambient
    shift = module.action_shift(s)
    return FiniteSubset.from_items(
        module, {module._translate_item(shift, x) for x in a.items})


def orbit_sum(a: FiniteSubset, folner_set, base: FiniteSubset | None = None) -> FiniteSubset:
    """Minkowski sum of the translates of a by the inverses of the set, plus base.

    Without base the set must be nonempty.  With base = a^[E] and the set
    F disjoint from E, the result is a^[E u F], so a nested Folner
    sequence is summed one shell at a time.
    """
    folner_set = list(folner_set)
    if base is None and not folner_set:
        raise DomainError("orbit sums need a nonempty translate set")
    total = base
    for s in folner_set:
        translated = gr_translate(-s, a)
        total = translated if total is None else minkowski_sum(total, translated)
    return total


def coeff_quotient(m: ShiftModule, d_generators):
    """Quotient by the coefficient subgroup D = <generators>.

    Returns the shift module over C/D and the coefficient-wise
    projection on elements; the projection commutes with the action.
    """
    if m.quotient is not None:
        raise ConfigurationError("module already carries a quotient structure")
    gens = [m.coeff.element(c) for c in d_generators]
    quot, proj = quotient_group(m.coeff, gens)
    target = ShiftModule(m.group, quot, m.action)

    def project(x: Element) -> Element:
        if x.ambient != m:
            raise DomainError("element not in the source module")
        return target.element([(g, proj._apply_item(c)) for g, c in x.coords])

    return target, project


def principal_quotient(m: ShiftModule, generators):
    """Quotient by the submodule the generators (elements of m) span over
    the group ring, with the projection; needs infinite cyclic support
    and prime-field coefficients."""
    if m.quotient is not None:
        raise ConfigurationError("module already carries a quotient structure")
    generators = list(generators)
    if any(f.ambient != m for f in generators):
        raise DomainError("generator not in the module")
    target = ShiftModule(m.group, m.coeff, m.action, tuple(f.coords for f in generators))

    def project(x: Element) -> Element:
        if x.ambient != m:
            raise DomainError("element not in the source module")
        return Element(target, target._canonical(x.coords))

    return target, project


def embed_subset(a: FiniteSubset):
    """Embed a finite set of module elements into one abelian group.

    Returns (ambient FinAbGroup, FiniteSubset of its elements).  The
    embedding is coefficient-wise over the union of supports.  It is
    injective and additive, so spans, ranks and torsion counts agree with
    the module-side set; in a principal quotient module too, because
    normal forms add coefficient-wise.  No command calls it; the span
    groupring.embed and the reference of tests/test_one_evaluator.py keep it.
    """
    module = a.ambient
    points = sorted({g for x in a.items for g, _ in x})
    if not points:
        points = [module.support_group.zero().coords]
    ambient, embeddings = direct_sum_many([module.coeff] * len(points))
    index = {pt: i for i, pt in enumerate(points)}
    items = []
    for x in a.items:
        total = ambient._zero_item()
        for g, c in x:
            total = ambient._add_items(total, embeddings[index[g]]._apply_item(c))
        items.append(total)
    return ambient, FiniteSubset.from_items(ambient, items)
