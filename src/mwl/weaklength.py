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

check_axiom evaluates one named axiom on a seeded instance stream and
reports the first counterexample exactly; a failed check is data, not an
error.  Streams are pinned to xorshift64* so counterexamples reproduce
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
from .finabelian import FinAbGroup, direct_sum, subgroup_generated
from .groupring import embed_subset
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

AXIOMS = (
    "regularity",
    "product",
    "quotient",
    "upper_continuity",
    "strong_quotient",
    "subadd_sum",
    "union_vs_sum",
    "invariance",
)


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
    """rank or nu of the subgroup (L + R)/R that an echelon lattice holds.

    nu is the composition length, the number of prime factors of the
    subgroup's order, which is the sum of the elementary-divisor
    exponents; +inf when the subgroup has a free part.
    """
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


def eval_weak_length(spec: WeakLengthSpec, ambient, a: FiniteSubset) -> LengthValue:
    """Evaluate a built-in weak length on a nonempty subset of a group or
    of a shift module.

    Items are read through the ambient's coordinate view (`_moduli`,
    `_terms`); only `gen` embeds a module subset into a group first.
    """
    if a.ambient != ambient:
        raise DomainError("subset does not live in the given group or module")
    if len(a) == 0:
        raise DomainError("weak lengths are defined on nonempty sets")

    if spec.kind == "log_card":
        return LengthValue.log_count(len(a))

    if spec.kind == "tors_log":
        # an item is k-torsion when every coefficient tuple is; many items
        # share their coefficient tuples, so each verdict is kept
        k, moduli, terms = spec.k, ambient._moduli, ambient._terms
        verdicts = {}
        count = 0
        for x in a.items:
            for _, c in terms(x):
                ok = verdicts.get(c)
                if ok is None:
                    ok = verdicts[c] = not any(k * v % m if m else v
                                               for v, m in zip(c, moduli))
                if not ok:
                    break
            else:
                count += 1
        if count == 0:
            raise DomainError(
                f"set meets no {spec.k}-torsion; the torsion length is undefined here")
        return LengthValue.log_count(count)

    if spec.length_induced:
        lattice = EchelonLattice()
        span_insert(lattice, ambient, a.items)
        return span_length(spec, lattice)

    # gen: free rank plus number of invariant factors
    if not isinstance(ambient, FinAbGroup):
        ambient, a = embed_subset(a)
    span, _ = subgroup_generated(ambient, list(a))
    return LengthValue.rational(span.free_rank + len(span.torsion))


@dataclass(frozen=True)
class CheckReport:
    spec: WeakLengthSpec
    axiom: str
    passed: bool
    checked: int
    counterexample: dict | None = None

    def to_json(self):
        out = {
            "spec": self.spec.to_json(),
            "axiom": self.axiom,
            "passed": self.passed,
            "checked": self.checked,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _describe_set(a: FiniteSubset):
    return [list(x.coords) for x in a.sorted_elements()]


def _sample_sets(rng, spec, group, adjoin_zero, max_size=8):
    # tors_log draws from the k-torsion subgroup, its domain of validity
    if spec.kind == "tors_log":
        pool = torsion_elements(group, spec.k)
        return random_subset(rng, group, max_size, adjoin_zero, pool=pool)
    return random_subset(rng, group, max_size, adjoin_zero)


def axiom_instances(spec: WeakLengthSpec, axiom: str, seed: int):
    """Deterministic instance stream for one axiom.

    Canonical edge instances come first (the trivial group, and for the
    product axiom the C2 x C3 pair that witnesses the failure of `gen`),
    then xorshift-driven draws.
    """
    rng = XorShift64Star(seed)
    trivial = FinAbGroup()

    if axiom == "regularity":
        yield {"group": trivial}
        while True:
            yield {"group": random_finite_group(rng)}

    elif axiom == "product":
        z2, z3 = FinAbGroup.cyclic(2), FinAbGroup.cyclic(3)
        yield {
            "g1": z2, "a1": FiniteSubset.of(z2, list(z2.elements())),
            "g2": z3, "a2": FiniteSubset.of(z3, list(z3.elements())),
        }
        while True:
            g1 = random_finite_group(rng, 16)
            g2 = random_finite_group(rng, 16)
            yield {
                "g1": g1, "a1": _sample_sets(rng, spec, g1, True, 4),
                "g2": g2, "a2": _sample_sets(rng, spec, g2, True, 4),
            }

    elif axiom in ("quotient", "invariance"):
        while True:
            g = random_finite_group(rng)
            if axiom == "quotient":
                h = random_finite_group(rng)
                phi = random_hom(rng, g, h)
            else:
                phi = random_automorphism(rng, g)
            yield {"group": g, "a": _sample_sets(rng, spec, g, False), "phi": phi}

    elif axiom == "upper_continuity":
        while True:
            g = random_finite_group(rng)
            chain = [_sample_sets(rng, spec, g, False, 3)]
            for _ in range(rng.below(3) + 1):
                grown = union(chain[-1], _sample_sets(rng, spec, g, False, 3))
                chain.append(grown)
            yield {"group": g, "chain": chain}

    elif axiom == "strong_quotient":
        while True:
            g = random_finite_group(rng)
            h = random_finite_group(rng)
            phi = random_hom(rng, g, h)
            pool = kernel_elements(phi)
            if spec.kind == "tors_log":
                tors = set(torsion_elements(g, spec.k))
                pool = [x for x in pool if x in tors]
            b = random_subset(rng, g, 4, True, pool=pool)
            yield {"group": g, "a": _sample_sets(rng, spec, g, True), "b": b, "phi": phi}

    elif axiom in ("subadd_sum", "union_vs_sum"):
        adjoin = axiom == "union_vs_sum"
        while True:
            g = random_finite_group(rng)
            yield {
                "group": g,
                "a": _sample_sets(rng, spec, g, adjoin),
                "b": _sample_sets(rng, spec, g, adjoin),
            }

    else:
        raise DomainError(f"unknown axiom {axiom!r}")


def _check_one(spec: WeakLengthSpec, axiom: str, inst) -> dict | None:
    """Evaluate one instance; a dict describes the violation, None is a pass."""
    ev = lambda g, s: eval_weak_length(spec, g, s)

    if axiom == "regularity":
        g = inst["group"]
        val = ev(g, FiniteSubset.of(g, [g.zero()]))
        if not val.is_zero():
            return {"value": str(val)}
        return None

    if axiom == "product":
        g1, a1, g2, a2 = inst["g1"], inst["a1"], inst["g2"], inst["a2"]
        total, e1, e2 = direct_sum(g1, g2)
        prod = product_subset(a1, e1, a2, e2)
        lhs = ev(total, prod)
        rhs = value_add(ev(g1, a1), ev(g2, a2))
        if value_cmp(lhs, rhs) != 0:
            return {
                "g1": str(g1), "a1": _describe_set(a1),
                "g2": str(g2), "a2": _describe_set(a2),
                "value_product": str(lhs), "value_sum": str(rhs),
            }
        return None

    if axiom == "quotient":
        g, a, phi = inst["group"], inst["a"], inst["phi"]
        lhs = ev(phi.target, map_subset(phi, a))
        rhs = ev(g, a)
        if value_cmp(lhs, rhs) > 0:
            return {"group": str(g), "a": _describe_set(a),
                    "image_value": str(lhs), "value": str(rhs)}
        return None

    if axiom == "upper_continuity":
        g, chain = inst["group"], inst["chain"]
        vals = [ev(g, s) for s in chain]
        for x, y in zip(vals, vals[1:]):
            if value_cmp(x, y) > 0:
                return {"group": str(g), "values": [str(v) for v in vals]}
        total = chain[0]
        for s in chain[1:]:
            total = union(total, s)
        if value_cmp(vals[-1], ev(g, total)) != 0:
            return {"group": str(g), "values": [str(v) for v in vals]}
        return None

    if axiom == "strong_quotient":
        g, a, b, phi = inst["group"], inst["a"], inst["b"], inst["phi"]
        lhs = ev(g, minkowski_sum(a, b))
        rhs = value_add(ev(phi.target, map_subset(phi, a)), ev(g, b))
        if value_cmp(lhs, rhs) < 0:
            return {"group": str(g), "a": _describe_set(a), "b": _describe_set(b),
                    "sum_value": str(lhs), "bound": str(rhs)}
        return None

    if axiom == "subadd_sum":
        g, a, b = inst["group"], inst["a"], inst["b"]
        lhs = ev(g, minkowski_sum(a, b))
        rhs = value_add(ev(g, a), ev(g, b))
        if value_cmp(lhs, rhs) > 0:
            return {"group": str(g), "a": _describe_set(a), "b": _describe_set(b),
                    "sum_value": str(lhs), "bound": str(rhs)}
        return None

    if axiom == "union_vs_sum":
        g, a, b = inst["group"], inst["a"], inst["b"]
        lhs = ev(g, union(a, b))
        rhs = ev(g, minkowski_sum(a, b))
        if value_cmp(lhs, rhs) > 0:
            return {"group": str(g), "a": _describe_set(a), "b": _describe_set(b),
                    "union_value": str(lhs), "sum_value": str(rhs)}
        return None

    if axiom == "invariance":
        g, a, phi = inst["group"], inst["a"], inst["phi"]
        lhs = ev(phi.target, map_subset(phi, a))
        rhs = ev(g, a)
        if value_cmp(lhs, rhs) != 0:
            return {"group": str(g), "a": _describe_set(a),
                    "image_value": str(lhs), "value": str(rhs)}
        return None

    raise DomainError(f"unknown axiom {axiom!r}")


def check_axiom(spec: WeakLengthSpec, axiom: str, seed: int, budget: int) -> CheckReport:
    """Run `budget` instances of one axiom; first counterexample wins."""
    if budget < 1:
        raise DomainError("budget must be at least 1")
    if axiom not in AXIOMS:
        raise DomainError(f"unknown axiom {axiom!r}")
    stream = axiom_instances(spec, axiom, seed)
    for index in range(budget):
        witness = _check_one(spec, axiom, next(stream))
        if witness is not None:
            witness["sample_index"] = index
            return CheckReport(spec, axiom, False, index + 1, witness)
    return CheckReport(spec, axiom, True, budget)
