"""Bivariant upgradings of weak lengths and their kernel witnesses.

Two upgradings are implemented:

  cover_log        l(A, B) = min log|C| over covers A <= C + B, paired
                   with log-cardinality.  The minimum is found by an
                   exact branch-and-bound set-cover search over the
                   candidate translates C <= A - B (any useful c lies
                   there) at cover sizes 1, 2, ... in turn, returning the
                   lexicographically least minimum cover.

  quotient_length  l(A, B) = L(<image of A in M/<B>>) for a base length
                   L in {rank, nu}.

kernel_witness builds, for a homomorphism phi, a finite B inside ker phi
that realizes l(A, B) = l(phi(A)) exactly: the difference-set witness
(A - A) meet ker phi for the cover upgrading, and a generating set of
<A> meet ker phi for the quotient upgrading (exact over Z, so no
epsilon slack is needed).  That generating set comes from one integer
left kernel: the combinations x @ A with x @ phi(A) = 0 modulo the
target's torsion orders, in Hermite form modulo the source's.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError, DomainError
from .finabelian import AbHom, FinAbGroup, direct_sum, quotient_group
from .intmat import left_kernel, matmul, row_basis
from .sampling import (
    random_automorphism,
    random_finite_group,
    random_hom,
    random_subset,
)
from .subsets import (
    FiniteSubset,
    difference_set,
    map_subset,
    minkowski_sum,
    product_subset,
)
from .values import LengthValue, value_add, value_cmp
from .weaklength import (
    LOG_CARD,
    NU,
    RANK,
    CheckReport,
    WeakLengthSpec,
    eval_weak_length,
    first_counterexample,
)

MAX_COVER_CANDIDATES = 24
# group order and set size bounds of the upgrading checker's instances
INSTANCE_MAX_ORDER = 36
INSTANCE_MAX_SET = 6
# cover candidates of the checker's largest instance: the product sets of
# two zero-adjoined 2-sets have at most 9 points each, so at most 81
# differences; every other instance lives in a group of order <= 36
INSTANCE_MAX_CANDIDATES = 81


@dataclass(frozen=True)
class BivariantSpec:
    kind: str                          # cover_log | quotient_length
    base: WeakLengthSpec | None = None

    def __post_init__(self):
        if self.kind == "cover_log":
            if self.base is not None:
                raise DomainError("cover_log takes no base length")
        elif self.kind == "quotient_length":
            if self.base not in (RANK, NU):
                raise DomainError("quotient_length pairs with rank or nu")
        else:
            raise DomainError(f"unknown bivariant kind {self.kind!r}")

    def to_json(self):
        if self.kind == "cover_log":
            return {"kind": "cover_log"}
        return {"kind": "quotient_length", "base": self.base.kind}

    def __str__(self):
        return self.kind if self.kind == "cover_log" else f"quotient_length[{self.base}]"


COVER_LOG = BivariantSpec("cover_log")


def cover_bivariant(g: FinAbGroup, a: FiniteSubset, b: FiniteSubset,
                    max_candidates: int = MAX_COVER_CANDIDATES):
    """Exact min-cover value with a deterministic minimizing cover.

    Returns (LengthValue log of the minimum cover size, witness cover).
    Ties among minimum covers break toward the lexicographically least
    set of canonical coordinates.
    """
    if a.ambient != g or b.ambient != g:
        raise DomainError("sets must live in the given group")
    candidates_set = difference_set(a, b)
    if len(candidates_set) > max_candidates:
        raise ConfigurationError(
            f"cover search over {len(candidates_set)} candidates exceeds the "
            f"cap of {max_candidates}")

    targets = sorted(a.items)
    index = {item: i for i, item in enumerate(targets)}
    full = (1 << len(targets)) - 1
    add = g._add_items

    # the first candidate per target mask: swapping a later one with the
    # same mask for it keeps a cover minimum and makes it lex-smaller
    first_by_mask = {}
    for c in sorted(candidates_set.items):
        mask = 0
        for y in b.items:
            hit = index.get(add(c, y))
            if hit is not None:
                mask |= 1 << hit
        if mask:
            first_by_mask.setdefault(mask, c)
    candidates = [(c, mask) for mask, c in first_by_mask.items()]

    cover_all = 0
    for _, mask in candidates:
        cover_all |= mask
    if cover_all != full:  # every a = a - y + y with y in b is coverable
        raise DomainError("cover candidates miss an element of the set")

    suffix_union = [0] * (len(candidates) + 1)
    for i in range(len(candidates) - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | candidates[i][1]

    def search(pos, covered, chosen, bound):
        # returns a minimal cover of size <= bound extending `chosen`, or None
        if covered == full:
            return list(chosen)
        if bound == 0 or (covered | suffix_union[pos]) != full:
            return None
        for i in range(pos, len(candidates)):
            c, mask = candidates[i]
            if mask & ~covered == 0:
                continue
            chosen.append(c)
            found = search(i + 1, covered | mask, chosen, bound - 1)
            chosen.pop()
            if found is not None:
                # first hit at the current bound is lexicographically least
                return found
        return None

    # the first bound with a cover is the optimum; all candidates cover
    witness = None
    bound = 0
    while witness is None:
        bound += 1
        witness = search(0, 0, [], bound)
    return LengthValue.log_count(len(witness)), FiniteSubset.from_items(g, witness)


def quotient_bivariant(spec: BivariantSpec, g: FinAbGroup,
                       a: FiniteSubset, b: FiniteSubset) -> LengthValue:
    """Base length of the image of a in g/<b>."""
    if spec.kind != "quotient_length":
        raise DomainError("quotient_bivariant needs a quotient_length spec")
    if a.ambient != g or b.ambient != g:
        raise DomainError("sets must live in the given group")
    quot, proj = quotient_group(g, list(b))
    return eval_weak_length(spec.base, quot, map_subset(proj, a))


def bivariant_eval(spec: BivariantSpec, g, a, b, max_candidates=MAX_COVER_CANDIDATES) -> LengthValue:
    if spec.kind == "cover_log":
        value, _ = cover_bivariant(g, a, b, max_candidates)
        return value
    return quotient_bivariant(spec, g, a, b)


def unary_value(spec: BivariantSpec, g, a) -> LengthValue:
    """The weak length the spec upgrades (cover_log: log_card), on a."""
    return eval_weak_length(spec.base or LOG_CARD, g, a)


def kernel_witness(spec: BivariantSpec, phi: AbHom, a: FiniteSubset) -> FiniteSubset:
    """Finite B <= ker phi with l(A, B) = l(phi(A)).

    For cover_log this is (A - A) meet ker phi together with 0.  For
    quotient_length it is the Hermite basis of the lattice of
    <A> meet ker phi (with 0), which attains the bound exactly.
    """
    g = phi.source
    if a.ambient != g:
        raise DomainError("set must live in the source of the homomorphism")

    if spec.kind == "cover_log":
        diffs = difference_set(a, a)
        members = [x for x in diffs if phi(x).is_zero()]
        return FiniteSubset.of(g, members + [g.zero()])

    # x @ A lies in ker phi exactly when x @ phi(A) = 0 with columns read
    # modulo the target's torsion orders: one left kernel gives every such x
    coords = [list(x.coords) for x in a]
    images = [list(phi(x).coords) for x in a]
    kernel = left_kernel(images, phi.target._moduli)
    lattice = row_basis(matmul(kernel, coords), g._moduli)
    return FiniteSubset.of(g, [g.element(row) for row in lattice] + [g.zero()])


def check_upgrading_proper(spec: BivariantSpec, seed: int, budget: int) -> CheckReport:
    """Verify the proper-upgrading inequalities on seeded instances.

    One draw-and-check function, run by first_counterexample (the loop of
    the axiom checker too), tests every law on each instance: regularity,
    the triangle inequality, the derived bound l(A) <= l(A,B) + l(B), the
    sum bound, quotient monotonicity, invariance, the direct-product law,
    and the kernel-witness postcondition.  The sum and product laws are
    checked on small base-pointed pairs; without a common base point the
    generated submodule of a product set is smaller than the product of
    the generated submodules and the identities are simply false.
    """
    return first_counterexample(spec, None, _check_upgrading_instance, seed, budget)


def _check_upgrading_instance(spec: BivariantSpec, rng, index) -> dict | None:
    g = random_finite_group(rng, INSTANCE_MAX_ORDER)
    h = random_finite_group(rng, INSTANCE_MAX_ORDER)
    gs = random_finite_group(rng, 9)
    a, b, c = (random_subset(rng, g, INSTANCE_MAX_SET) for _ in range(3))
    phi = random_hom(rng, g, h)
    iso = random_automorphism(rng, g)
    # small zero-adjoined pairs for the sum and product identities
    a2, b2, a3, b3 = (random_subset(rng, g, 2, adjoin_zero=True) for _ in range(4))
    sa, sb = (random_subset(rng, gs, 2, adjoin_zero=True) for _ in range(2))

    ev = lambda G, x, y: bivariant_eval(spec, G, x, y, max_candidates=INSTANCE_MAX_CANDIDATES)

    # regularity
    zero_set = FiniteSubset.of(g, [g.zero()])
    if not ev(g, zero_set, zero_set).is_zero():
        return {"law": "regularity"}

    # triangle and the derived unary bound
    lab, lbc, lac = ev(g, a, b), ev(g, b, c), ev(g, a, c)
    if value_cmp(lac, value_add(lab, lbc)) > 0:
        return {"law": "triangle", "l_ac": str(lac), "l_ab": str(lab), "l_bc": str(lbc)}
    la = unary_value(spec, g, a)
    lb = unary_value(spec, g, b)
    if value_cmp(la, value_add(lab, lb)) > 0:
        return {"law": "unary_bound", "l_a": str(la), "l_ab": str(lab), "l_b": str(lb)}

    # sum bound on small base-pointed pairs
    lhs = ev(g, minkowski_sum(a2, a3), minkowski_sum(b2, b3))
    l_ab2 = ev(g, a2, b2)
    rhs = value_add(l_ab2, ev(g, a3, b3))
    if value_cmp(lhs, rhs) > 0:
        return {"law": "sum_bound", "lhs": str(lhs), "rhs": str(rhs)}

    # quotient monotonicity and invariance
    img = ev(phi.target, map_subset(phi, a), map_subset(phi, b))
    if value_cmp(img, lab) > 0:
        return {"law": "quotient", "image": str(img), "value": str(lab)}
    moved = ev(iso.target, map_subset(iso, a), map_subset(iso, b))
    if value_cmp(moved, lab) != 0:
        return {"law": "invariance", "image": str(moved), "value": str(lab)}

    # direct product on small base-pointed factors
    total, e1, e2 = direct_sum(g, gs)
    pa = product_subset(a2, e1, sa, e2)
    pb = product_subset(b2, e1, sb, e2)
    prod_val = ev(total, pa, pb)
    l_small = ev(gs, sa, sb)
    split = value_add(l_ab2, l_small)
    # a product cover projects onto a cover of each factor, and a product of
    # covers is a cover: cover_log has only max(factors) <= product <= split
    lows = (l_ab2, l_small) if spec.kind == "cover_log" else (split,)
    if value_cmp(prod_val, split) > 0 or any(value_cmp(prod_val, x) < 0 for x in lows):
        return {"law": "direct_product", "product": str(prod_val),
                "factors": [str(l_ab2), str(l_small)], "split": str(split)}

    # kernel witness postcondition
    witness = kernel_witness(spec, phi, a)
    achieved = ev(g, a, witness)
    target = unary_value(spec, phi.target, map_subset(phi, a))
    if value_cmp(achieved, target) != 0:
        return {"law": "kernel_witness", "achieved": str(achieved), "target": str(target)}
    return None
