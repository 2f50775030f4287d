"""Built-in weak length functions on finite subsets of abelian groups
and of shift modules.

Five selectors are provided:

  log_card   log |A|
  tors_log   log |T_k(M) intersect A|   (k-torsion count)
  rank       free rank of <A>
  nu         sum of elementary-divisor exponents of <A> (composition
             length over Z); +inf when <A> has a free part
  gen        minimal number of generators of <A>

`gen` is kept as the standing counterexample: it is monotone but fails
the product property, so it is not a weak length.

log_card and tors_log count items.  rank, nu and gen depend on A only
through <A>, and all three are read off one echelon lattice of the items
(intmat.EchelonLattice), for group and module subsets alike.

Each axiom is one function that draws its instance from a seeded
xorshift64* stream and returns the counterexample or None; `AXIOMS` maps
the axiom names to them.  check_axiom runs one axiom through
first_counterexample, the loop the upgrading checker shares, and reports
the first counterexample exactly; a failed check is data, not an error.
Streams are pinned to xorshift64* so counterexamples reproduce
bit-for-bit.  Two domain conventions are applied where the axioms
themselves require them: axioms stated for sets containing 0 draw
zero-adjoined sets, and tors_log streams draw from the k-torsion
subgroup, the collection on which the torsion length actually is a weak
length (on general sets its quotient and sum bounds fail; see the
out-of-domain test for a witness).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .finabelian import FinAbGroup, direct_sum, present_subgroup
from .intmat import EchelonLattice
from .sampling import (
    XorShift64Star,
    kernel_elements,
    random_finite_group,
    random_hom,
    random_automorphism,
    random_subset,
    torsion_elements,
)
from .subsets import FiniteSubset, map_subset, minkowski_sum, product_subset, union
from .values import LengthValue, value_add, value_cmp


@dataclass(frozen=True)
class WeakLengthSpec:
    kind: str                 # log_card | tors_log | rank | nu | gen
    k: int | None = None      # torsion order for tors_log

    def __post_init__(self):
        if self.kind not in ("log_card", "tors_log", "rank", "nu", "gen"):
            raise DomainError(f"unknown weak length kind {self.kind!r}")
        if self.kind == "tors_log":
            if self.k is None or self.k < 1:
                raise DomainError("tors_log needs a positive torsion order")
        elif self.k is not None:
            raise DomainError("only tors_log takes a torsion order")

    @property
    def length_induced(self) -> bool:
        return self.kind in ("rank", "nu")

    def to_json(self):
        if self.kind == "tors_log":
            return {"kind": "tors_log", "k": self.k}
        return {"kind": self.kind}

    def __str__(self):
        return f"tors_log({self.k})" if self.kind == "tors_log" else self.kind


LOG_CARD = WeakLengthSpec("log_card")
RANK = WeakLengthSpec("rank")
NU = WeakLengthSpec("nu")
GEN = WeakLengthSpec("gen")


def tors_log(k: int) -> WeakLengthSpec:
    return WeakLengthSpec("tors_log", k)


def span_length(spec: WeakLengthSpec, lattice: EchelonLattice) -> LengthValue:
    """rank, nu or gen of the subgroup (L + R)/R that an echelon lattice holds.

    nu is the composition length, the number of prime factors of the
    subgroup's order, which is the sum of the elementary-divisor
    exponents; +inf when the subgroup has a free part.  gen is the number
    of invariant factors of the lattice's presentation (present_subgroup:
    its Hermite basis subject to the relations of its torsion columns).
    """
    if spec.kind == "gen":
        span, _, _ = present_subgroup(lattice)
        return LengthValue.rational(span.free_rank + len(span.torsion))
    if spec.kind == "rank":
        return LengthValue.rational(lattice.free_rank)
    if lattice.free_rank:
        return LengthValue.infinity()
    return LengthValue.rational(lattice.omega)


def span_insert(lattice: EchelonLattice, ambient, items) -> None:
    """Add items of a group or module to the lattice of their span.

    Columns are (support point, coordinate) pairs with the coordinate's
    torsion order as modulus; a group item sits at the one point ().
    """
    moduli, terms, column = ambient._moduli, ambient._terms, lattice.column
    for x in items:
        lattice.insert({column((g, i), moduli[i]): v
                        for g, c in terms(x) for i, v in enumerate(c) if v})


def torsion_test(k: int, moduli):
    """Whether a coefficient tuple read with these moduli is k-torsion:
    k * v vanishes on each torsion coordinate and v on each free one."""
    return lambda c: not any(k * v % m if m else v for v, m in zip(c, moduli))


def count_value(spec: WeakLengthSpec, count: int) -> LengthValue:
    """log_card or tors_log of a set with `count` elements, or `count`
    k-torsion elements; tors_log is undefined on a set that meets no
    k-torsion."""
    if count == 0 and spec.kind == "tors_log":
        raise DomainError(
            f"set meets no {spec.k}-torsion; the torsion length is undefined here")
    return LengthValue.log_count(count)


def eval_weak_length(spec: WeakLengthSpec, ambient, a: FiniteSubset) -> LengthValue:
    """Evaluate a built-in weak length on a nonempty subset of a group or
    of a shift module.

    Items are read through the ambient's coordinate view (`_moduli`,
    `_terms`), so groups and modules take the same path: log_card and
    tors_log count items, and rank, nu and gen, which depend on A only
    through <A>, read one echelon lattice of the items.
    """
    if a.ambient != ambient:
        raise DomainError("subset does not live in the given group or module")
    if len(a) == 0:
        raise DomainError("weak lengths are defined on nonempty sets")

    if spec.kind == "log_card":
        return count_value(spec, len(a))

    if spec.kind == "tors_log":
        # an item is k-torsion when every coefficient tuple is; many items
        # share their coefficient tuples, so each verdict is kept
        is_torsion, terms = torsion_test(spec.k, ambient._moduli), ambient._terms
        verdicts = {}
        count = 0
        for x in a.items:
            for _, c in terms(x):
                ok = verdicts.get(c)
                if ok is None:
                    ok = verdicts[c] = is_torsion(c)
                if not ok:
                    break
            else:
                count += 1
        return count_value(spec, count)

    lattice = EchelonLattice()
    span_insert(lattice, ambient, a.items)
    return span_length(spec, lattice)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a seeded law check.

    `spec` is a WeakLengthSpec for an axiom check and a BivariantSpec for
    the upgrading laws, where `axiom` is None and left out of the JSON.
    """
    spec: object
    axiom: str | None
    passed: bool
    checked: int
    counterexample: dict | None = None

    def to_json(self):
        out = {"spec": self.spec.to_json()}
        if self.axiom is not None:
            out["axiom"] = self.axiom
        out["passed"] = self.passed
        out["checked"] = self.checked
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def first_counterexample(spec, axiom, law, seed: int, budget: int) -> CheckReport:
    """Run `budget` instances of one law on one xorshift stream.

    `law(spec, rng, index)` draws instance `index` from rng and returns a
    dict that describes the violation, or None for a pass; the first
    counterexample wins.
    """
    if budget < 1:
        raise DomainError("budget must be at least 1")
    rng = XorShift64Star(seed)
    for index in range(budget):
        witness = law(spec, rng, index)
        if witness is not None:
            witness["sample_index"] = index
            return CheckReport(spec, axiom, False, index + 1, witness)
    return CheckReport(spec, axiom, True, budget)


def _describe_set(a: FiniteSubset):
    return [list(x.coords) for x in a.sorted_elements()]


def _sample_sets(rng, spec, group, adjoin_zero, max_size=8):
    # tors_log draws from the k-torsion subgroup, its domain of validity
    if spec.kind == "tors_log":
        pool = torsion_elements(group, spec.k)
        return random_subset(rng, group, max_size, adjoin_zero, pool=pool)
    return random_subset(rng, group, max_size, adjoin_zero)


# One function per axiom: each draws its instance from rng and returns the
# counterexample dict or None.  Instance 0 of regularity and product is
# canonical: the trivial group, and the C2 x C3 pair that witnesses the
# failure of `gen`.


def _regularity(spec, rng, index):
    g = FinAbGroup() if index == 0 else random_finite_group(rng)
    val = eval_weak_length(spec, g, FiniteSubset.of(g, [g.zero()]))
    if not val.is_zero():
        return {"value": str(val)}
    return None


def _product(spec, rng, index):
    if index == 0:
        g1, g2 = FinAbGroup((2,)), FinAbGroup((3,))
        a1 = FiniteSubset.of(g1, list(g1.elements()))
        a2 = FiniteSubset.of(g2, list(g2.elements()))
    else:
        g1 = random_finite_group(rng, 16)
        g2 = random_finite_group(rng, 16)
        a1 = _sample_sets(rng, spec, g1, True, 4)
        a2 = _sample_sets(rng, spec, g2, True, 4)
    total, e1, e2 = direct_sum(g1, g2)
    lhs = eval_weak_length(spec, total, product_subset(a1, e1, a2, e2))
    rhs = value_add(eval_weak_length(spec, g1, a1), eval_weak_length(spec, g2, a2))
    if value_cmp(lhs, rhs) != 0:
        return {
            "g1": str(g1), "a1": _describe_set(a1),
            "g2": str(g2), "a2": _describe_set(a2),
            "value_product": str(lhs), "value_sum": str(rhs),
        }
    return None


def _image_law(spec, g, phi, a, exact):
    # l(phi(A)) <= l(A), with equality when phi is an automorphism
    lhs = eval_weak_length(spec, phi.target, map_subset(phi, a))
    rhs = eval_weak_length(spec, g, a)
    order = value_cmp(lhs, rhs)
    if order > 0 or (exact and order != 0):
        return {"group": str(g), "a": _describe_set(a),
                "image_value": str(lhs), "value": str(rhs)}
    return None


def _quotient(spec, rng, index):
    g = random_finite_group(rng)
    h = random_finite_group(rng)
    phi = random_hom(rng, g, h)
    return _image_law(spec, g, phi, _sample_sets(rng, spec, g, False), exact=False)


def _invariance(spec, rng, index):
    g = random_finite_group(rng)
    phi = random_automorphism(rng, g)
    return _image_law(spec, g, phi, _sample_sets(rng, spec, g, False), exact=True)


def _upper_continuity(spec, rng, index):
    g = random_finite_group(rng)
    # each set is the union of the one before and a new draw, so the union
    # of the chain is its last set and l(union) = l(last set) holds as is
    chain = [_sample_sets(rng, spec, g, False, 3)]
    for _ in range(rng.below(3) + 1):
        chain.append(union(chain[-1], _sample_sets(rng, spec, g, False, 3)))
    vals = [eval_weak_length(spec, g, s) for s in chain]
    for x, y in zip(vals, vals[1:]):
        if value_cmp(x, y) > 0:
            return {"group": str(g), "values": [str(v) for v in vals]}
    return None


def _strong_quotient(spec, rng, index):
    g = random_finite_group(rng)
    h = random_finite_group(rng)
    phi = random_hom(rng, g, h)
    pool = kernel_elements(phi)
    if spec.kind == "tors_log":
        tors = set(torsion_elements(g, spec.k))
        pool = [x for x in pool if x in tors]
    # b is drawn before a; tests/test_draw_order.py pins the draws
    b = random_subset(rng, g, 4, True, pool=pool)
    a = _sample_sets(rng, spec, g, True)
    lhs = eval_weak_length(spec, g, minkowski_sum(a, b))
    rhs = value_add(eval_weak_length(spec, phi.target, map_subset(phi, a)),
                    eval_weak_length(spec, g, b))
    if value_cmp(lhs, rhs) < 0:
        return {"group": str(g), "a": _describe_set(a), "b": _describe_set(b),
                "sum_value": str(lhs), "bound": str(rhs)}
    return None


def _subadd_sum(spec, rng, index):
    g = random_finite_group(rng)
    a = _sample_sets(rng, spec, g, False)
    b = _sample_sets(rng, spec, g, False)
    lhs = eval_weak_length(spec, g, minkowski_sum(a, b))
    rhs = value_add(eval_weak_length(spec, g, a), eval_weak_length(spec, g, b))
    if value_cmp(lhs, rhs) > 0:
        return {"group": str(g), "a": _describe_set(a), "b": _describe_set(b),
                "sum_value": str(lhs), "bound": str(rhs)}
    return None


def _union_vs_sum(spec, rng, index):
    g = random_finite_group(rng)
    a = _sample_sets(rng, spec, g, True)
    b = _sample_sets(rng, spec, g, True)
    lhs = eval_weak_length(spec, g, union(a, b))
    rhs = eval_weak_length(spec, g, minkowski_sum(a, b))
    if value_cmp(lhs, rhs) > 0:
        return {"group": str(g), "a": _describe_set(a), "b": _describe_set(b),
                "union_value": str(lhs), "sum_value": str(rhs)}
    return None


AXIOMS = {
    "regularity": _regularity,
    "product": _product,
    "quotient": _quotient,
    "upper_continuity": _upper_continuity,
    "strong_quotient": _strong_quotient,
    "subadd_sum": _subadd_sum,
    "union_vs_sum": _union_vs_sum,
    "invariance": _invariance,
}


def check_axiom(spec: WeakLengthSpec, axiom: str, seed: int, budget: int) -> CheckReport:
    """Run `budget` instances of one axiom; first counterexample wins."""
    if not isinstance(axiom, str) or axiom not in AXIOMS:
        raise DomainError(f"unknown axiom {axiom!r}")
    return first_counterexample(spec, axiom, AXIOMS[axiom], seed, budget)
