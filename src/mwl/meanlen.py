"""Folner boxes, ratio tables, limit certificates and addition reports.

The net limit over increasingly invariant sets is evaluated along box
sequences [0,n)^d times the full finite part.  Ratios l(A^[F_n])/|F_n|
are exact, and a limit value is only claimed exactly when a structural
certificate proves it for every finite translate set, not just the
computed prefix:

  product-structure  the witness is supported at a single point, or
                     consists of scalar multiples of one nonzero element
                     over domain coefficients (Z or a prime field with
                     torsion-free support): distinct translates are then
                     independent, l(A^[F]) = |F| * l(A) for every finite
                     F (rank, nu, gen: if 0 is in A), and the net ratio
                     is constant;
  finite-module      a finite module under an infinite acting group has
                     bounded values, so the limit is zero;
  sofic              log_card over Z with finite coefficients: the rows
                     are path counts of an automaton (mwl.sofic), and the
                     limit is log k when the largest spectral radius of
                     its components is an integer k, proved exactly;
  constant           every computed ratio is the same exact value; this
                     is evidence about a prefix, reported without an
                     exactness claim (a finite quotient looks constant
                     before it saturates).

Computed rows are always checked against an applicable structural rule,
so a disagreement raises instead of misreporting.  Sofic rows are counted,
never enumerated, so they are never truncated.  Enumerated orbit sets
that would overflow the subset cap truncate the table and mark it, unless
the product-structure rule covers the missing rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from . import sofic
from .errors import ConfigurationError, DomainError, SetSizeLimitError
from .finabelian import INFINITE, AbElement, FinAbGroup
from .groupring import (
    ShiftModule,
    embed_subset,
    gr_translate,
    orbit_sum,
)
from .subsets import FiniteSubset, minkowski_sum, union
from .values import (
    LengthValue,
    MeanRatio,
    ratio_add,
    ratio_cmp,
    ratio_eq,
    ratio_le,
    ratio_min,
    value_add,
    value_cmp,
    value_le,
)
from .weaklength import WeakLengthSpec, eval_weak_length

DEFAULT_N_MAX_BUDGET = 4096  # coefficient_card ** n_max stays near this
# Largest n_max.  Sofic rows are never truncated, and their Fekete checks
# cost about n_max^2 / 4 products of counts of up to n_max * log2(lambda)
# bits.  Timed on one CPU: 1000 rows take 0.15-0.55 s with automata of
# 4-10 states and 0.8-1.5 s with 800-3134 states; 2000 rows on the small
# automata already take 0.9-3.3 s, growing about as n_max^3.
N_MAX_LIMIT = 1000


@dataclass(frozen=True)
class InvarianceParams:
    k_set: tuple[AbElement, ...]
    delta: Fraction

    def __post_init__(self):
        if not (0 < self.delta <= 1):
            raise DomainError("delta must lie in (0, 1]")


@dataclass(frozen=True)
class InvarianceCheck:
    invariant: bool
    interior_count: int
    size: int


def is_invariant(folner_set, params: InvarianceParams) -> InvarianceCheck:
    """Exact (K, delta)-invariance check with the interior count."""
    members = set(x.coords for x in folner_set)
    if not members:
        raise DomainError("invariance is defined for nonempty sets")
    count = 0
    for s in folner_set:
        if all((k + s).coords in members for k in params.k_set):
            count += 1
    ok = count >= (1 - params.delta) * len(members)
    return InvarianceCheck(bool(ok), count, len(members))


@dataclass(frozen=True)
class FolnerBoxes:
    """Boxes [0,n)^d times the full finite part of the acting group."""

    group: FinAbGroup
    n_max: int

    def __post_init__(self):
        if not 1 <= self.n_max <= N_MAX_LIMIT:
            raise DomainError(f"n_max must lie in 1..{N_MAX_LIMIT}, got {self.n_max}")

    def box(self, n: int) -> list[AbElement]:
        g = self.group
        torsion_part = list(iproduct(*(range(t) for t in g.torsion)))
        return [g.element(tail + free)
                for free in iproduct(range(n), repeat=g.free_rank)
                for tail in torsion_part]

    def shell(self, n: int) -> list[AbElement]:
        """F_n minus F_(n-1), with F_0 empty, in box order: the points whose
        largest free coordinate is n - 1 (none for n >= 2 without free part)."""
        if n == 1:
            return self.box(1)
        inner = set(self.box(n - 1))
        return [s for s in self.box(n) if s not in inner]

    def size(self, n: int) -> int:
        return n ** self.group.free_rank * math.prod(self.group.torsion)


def default_n_max(module: ShiftModule) -> int:
    card = module.coeff.cardinality()
    if card == INFINITE or card <= 2:
        return 12
    n = 1
    while card ** (n + 1) <= DEFAULT_N_MAX_BUDGET:
        n += 1
    return max(1, n)


@dataclass(frozen=True)
class RatioRow:
    n: int
    folner_size: int
    value: LengthValue
    ratio: MeanRatio
    method: str  # sofic | enumerated | certified

    def to_json(self):
        out = {"n": self.n, "folner_size": self.folner_size,
               "count_or_value": self.value.to_json(), "method": self.method}
        out.update(self.ratio.to_json())
        return out


@dataclass(frozen=True)
class CertificateInfo:
    kind: str | None  # product-structure | finite-module | sofic | constant | None
    ratio: MeanRatio | None
    exact: bool


@dataclass(frozen=True)
class MeanEstimate:
    spec: WeakLengthSpec
    rows: tuple[RatioRow, ...]
    running_inf: MeanRatio
    zero_in_a: bool
    symmetric_a: bool
    length_induced: bool
    constant_exact: bool
    strongly_subadditive: bool
    truncated_at: int | None
    fekete_checked: bool
    fekete_ok: bool | None
    doubling_ok: bool | None
    limit: CertificateInfo

    def to_json(self):
        return {
            "spec": self.spec.to_json(),
            "rows": [r.to_json() for r in self.rows],
            "running_inf": self.running_inf.to_json(),
            "flags": {
                "zero_in_A": self.zero_in_a,
                "symmetric_A": self.symmetric_a,
                "length_induced": self.length_induced,
                "constant_exact": self.constant_exact,
                "strongly_subadditive": self.strongly_subadditive,
            },
            "truncated_at": self.truncated_at,
            "fekete": {"checked": self.fekete_checked, "ok": self.fekete_ok},
            "doubling_ok": self.doubling_ok,
            "limit": {
                "certificate": self.limit.kind,
                "ratio": None if self.limit.ratio is None else self.limit.ratio.to_json(),
                "exact": self.limit.exact,
            },
        }


def product_structure_value(module: ShiftModule, a: FiniteSubset,
                            spec: WeakLengthSpec) -> LengthValue | None:
    """Per-translate value v with l(A^[F]) = |F| * v for every finite F.

    Two witness shapes admit the a-priori argument (plain modules only;
    an action through a quotient or a submodule reduction breaks the
    independence of translates):

      * every element supported at one common point: translates occupy
        disjoint points and values over disjoint points multiply;
      * all elements scalar multiples of one nonzero element, over Z or
        a prime field with torsion-free support: the group ring is then
        a domain and distinct scalar combinations stay distinct.

    Either way A^[F] is a plain product of translates, which settles
    log_card and tors_log; the span-based specs also need 0 in A, since
    A = {delta} gives a one-element A^[F] whose span does not grow.
    """
    if module.action is not None or module.quotient is not None:
        return None
    if spec.kind not in ("log_card", "tors_log") and not a.contains_zero():
        return None
    if _single_point_witness(a) or _scalar_multiples_witness(module, a):
        return eval_module_subset(spec, a)
    return None


def _single_point_witness(a: FiniteSubset) -> bool:
    points = {g for item in a.items for g, _ in item}
    return len(points) <= 1


def _scalar_multiples_witness(module: ShiftModule, a: FiniteSubset) -> bool:
    coeff = module.coeff
    if coeff.ambient_dim != 1:
        return False
    if coeff.torsion:
        p = coeff.torsion[0]
        if any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            return False
    elif coeff.free_rank != 1:
        return False
    if module.support_group.torsion:
        return False
    modulus = coeff.torsion[0] if coeff.torsion else 0
    points = sorted({g for item in a.items for g, _ in item})
    index = {g: i for i, g in enumerate(points)}
    vectors = []
    for item in a.items:
        vec = [0] * len(points)
        for g, c in item:
            vec[index[g]] = c[0]
        vectors.append(vec)
    # rank <= 1: all 2x2 minors vanish (mod p when coefficients are Z/p)
    for x in vectors:
        for y in vectors:
            for i in range(len(points)):
                for j in range(i + 1, len(points)):
                    minor = x[i] * y[j] - x[j] * y[i]
                    if (minor % modulus) if modulus else minor:
                        return False
    return True


def _scaled_value(v: LengthValue, size: int) -> LengthValue:
    if v.is_infinite():
        return v
    if v.kind == "log":
        return LengthValue.log_count(v.count ** size)
    return LengthValue.rational(v.q * size)


def eval_module_subset(spec: WeakLengthSpec, subset: FiniteSubset) -> LengthValue:
    """Evaluate a weak length on a finite set of module elements."""
    if spec.kind == "log_card":
        return LengthValue.log_count(len(subset))
    if spec.kind == "tors_log":
        # coefficient-wise test on raw items; scaling keeps canonical
        # residues canonical, so no renormalization is needed
        coeff = subset.ambient.coeff
        torsion, width = coeff.torsion, coeff.ambient_dim
        k = spec.k
        count = 0
        for item in subset.items:
            for _, c in item:
                for i in range(width):
                    v = k * c[i]
                    if (v % torsion[i]) if i < len(torsion) else v:
                        break
                else:
                    continue
                break
            else:
                count += 1
        if count == 0:
            raise DomainError("set meets no k-torsion")
        return LengthValue.log_count(count)
    ambient, embedded = embed_subset(subset)
    return eval_weak_length(spec, ambient, embedded)


def ratio_sequence(module: ShiftModule, a: FiniteSubset, spec: WeakLengthSpec,
                   seq: FolnerBoxes) -> MeanEstimate:
    """Exact ratio table l(A^[F_n]) / |F_n| for n = 1..n_max.

    log_card over Z with finite coefficients counts every row with the
    subset-construction automaton of mwl.sofic (method "sofic"), unless
    that automaton passes its state cap.  Other tables enumerate the
    orbit sums (see _enumerated_values).
    """
    if a.ambient != module:
        raise DomainError("witness does not live in the module")
    zero_in_a = a.contains_zero()
    symmetric_a = a.is_symmetric()
    structural = product_structure_value(module, a, spec)
    automaton = sofic.subset_automaton(a) if sofic.applies(module, spec) else None
    if automaton is not None:
        computed = ((LengthValue.log_count(c), "sofic") for c in automaton.counts(seq.n_max))
    else:
        computed = _enumerated_values(a, spec, seq, structural)

    rows = []
    for n, (value, method) in enumerate(computed, 1):
        size = seq.size(n)
        if structural is not None:
            expected = _scaled_value(structural, size)
            if value_cmp(value, expected) != 0:
                raise ConfigurationError(
                    f"structural value {expected} disagrees with the computed "
                    f"value {value} at n={n}")
        rows.append(RatioRow(n, size, value, MeanRatio(value, size), method))
    if not rows:
        raise ConfigurationError("no Folner box could be evaluated under the cap")
    truncated_at = None if len(rows) == seq.n_max else len(rows) + 1

    ratios = [r.ratio for r in rows]
    finite_ratios = [r for r in ratios if not r.value.is_infinite()]
    running_inf = ratio_min(finite_ratios) if finite_ratios else ratios[0]
    constant_exact = all(ratio_eq(r, ratios[0]) for r in ratios[1:])
    strongly_subadditive = spec.length_induced and symmetric_a and zero_in_a

    fekete_checked = zero_in_a and module.group.free_rank == 1
    fekete_ok = _fekete_ok([r.value for r in rows]) if fekete_checked else None
    doubling_ok = None
    if strongly_subadditive:
        ratio_at = {r.n: r.ratio for r in rows}
        doubling_ok = all(ratio_le(ratio_at[2 * n], ratio_at[n])
                          for n in ratio_at if 2 * n in ratio_at)

    limit = _limit_certificate(module, structural, automaton, ratios[0], constant_exact)
    return MeanEstimate(
        spec=spec, rows=tuple(rows), running_inf=running_inf,
        zero_in_a=zero_in_a, symmetric_a=symmetric_a,
        length_induced=spec.length_induced, constant_exact=constant_exact,
        strongly_subadditive=strongly_subadditive, truncated_at=truncated_at,
        fekete_checked=fekete_checked, fekete_ok=fekete_ok,
        doubling_ok=doubling_ok, limit=limit)


def _enumerated_values(a: FiniteSubset, spec: WeakLengthSpec, seq: FolnerBoxes,
                       structural: LengthValue | None):
    """(value, method) per row from the orbit sums, in order of n.

    The boxes are nested, so each row adds the translates over the shell
    F_n minus F_(n-1) to the previous row's set.  For 0 in A and a
    length-induced spec the submodule generated by A^[F_n] equals the one
    generated by the union of the translates, so that union is carried
    instead of the orbit sum.  |X + Y| >= |X| makes |A^[F_n]| grow with
    n, so once a row passes SET_CAP no later row is enumerated: the rows
    from there on take the structural value, or the table ends.
    """
    use_span = spec.length_induced and a.contains_zero()
    orbit = None  # A^[F_(n-1)], or the union of its translates on the span path
    capped = False
    for n in range(1, seq.n_max + 1):
        if not capped:
            try:
                if use_span:
                    for s in seq.shell(n):
                        t = gr_translate(-s, a)
                        orbit = t if orbit is None else union(orbit, t)
                else:
                    orbit = orbit_sum(a, seq.shell(n), orbit)
                value = eval_module_subset(spec, orbit)
            except SetSizeLimitError:
                capped, orbit = True, None
            else:
                yield value, "enumerated"
                continue
        if structural is None:
            return
        yield _scaled_value(structural, seq.size(n)), "certified"


def _fekete_ok(values) -> bool:
    """l(F_(n+m)) <= l(F_n) + l(F_m) on every computed pair (values[i] is row i + 1)."""
    last = len(values)
    pairs = ((n, m) for n in range(1, last // 2 + 1) for m in range(n, last - n + 1))
    v = (None, *values)
    if all(x.kind == "log" for x in values):
        # log a <= log b + log c  iff  a <= b * c; a LengthValue built per
        # pair made a 1000-row sofic table take 0.83 s instead of 0.17 s
        c = (None, *(x.count for x in values))
        return all(c[n + m] <= c[n] * c[m] for n, m in pairs)
    return all(value_le(v[n + m], value_add(v[n], v[m])) for n, m in pairs)


def _limit_certificate(module, structural, automaton, first_ratio,
                       constant_exact) -> CertificateInfo:
    if structural is not None:
        return CertificateInfo("product-structure", MeanRatio(structural, 1), True)
    if module.cardinality() != INFINITE and module.group.cardinality() == INFINITE:
        return CertificateInfo("finite-module", MeanRatio(LengthValue.log_count(1), 1), True)
    base = automaton.limit_base() if automaton is not None else None
    if base is not None:
        return CertificateInfo("sofic", MeanRatio(LengthValue.log_count(base), 1), True)
    if constant_exact:
        # prefix evidence only: a finite quotient looks constant early on
        return CertificateInfo("constant", first_ratio, False)
    return CertificateInfo(None, None, False)


@dataclass(frozen=True)
class LowerBoundReport:
    estimates: tuple[MeanEstimate, ...]
    bound: MeanRatio | None
    best_witness: int | None

    def to_json(self):
        return {
            "witnesses": [e.to_json() for e in self.estimates],
            "bound": None if self.bound is None else self.bound.to_json(),
            "best_witness": self.best_witness,
        }


def mean_lower_bound(module: ShiftModule, witnesses, spec: WeakLengthSpec,
                     seq: FolnerBoxes) -> LowerBoundReport:
    """Best certified witness value; a lower bound for the module mean.

    Only witnesses containing 0 contribute to the bound channel (the
    mean is a sup over base-pointed sets); per-witness running infima
    are reported alongside as upper bounds for those witnesses' limits.
    """
    estimates = []
    bound = None
    best = None
    for i, w in enumerate(witnesses):
        est = ratio_sequence(module, w, spec, seq)
        estimates.append(est)
        if est.zero_in_a and est.limit.exact and est.limit.ratio is not None:
            if bound is None or ratio_cmp(est.limit.ratio, bound) > 0:
                bound = est.limit.ratio
                best = i
    return LowerBoundReport(tuple(estimates), bound, best)


@dataclass(frozen=True)
class AdditionReport:
    total: MeanEstimate
    submodule: MeanEstimate
    quotient: MeanEstimate
    verdict: str                      # EXACT-EQUAL | VALUES-DIFFER | BOUNDS-ONLY
    easy_direction_ok: bool
    easy_rows: tuple

    def to_json(self):
        return {
            "total": self.total.to_json(),
            "submodule": self.submodule.to_json(),
            "quotient": self.quotient.to_json(),
            "verdict": self.verdict,
            "easy_direction_ok": self.easy_direction_ok,
            "easy_rows": [
                {"n": n, "total": t.to_json(), "parts": p.to_json()}
                for (n, t, p) in self.easy_rows
            ],
        }


def addition_report(m2: ShiftModule, quotient,
                    witness_submodule: FiniteSubset, witness_total: FiniteSubset,
                    witness_quotient_lift: FiniteSubset, spec: WeakLengthSpec,
                    seq: FolnerBoxes) -> AdditionReport:
    """Three ratio tables and the exact addition-formula verdict.

    `quotient` is the pair (M/N, projection M -> M/N) that coeff_quotient
    or principal_quotient returns for the submodule N of m2.  The
    submodule witness must lie inside N; its orbit sums then stay there,
    so its table is the submodule's own mean data computed inside the
    ambient module.  The quotient witness is given as a lift in the total
    module and pushed through the projection.  The easy direction
    l((B+B1)^[F]) >= l(B^[F]) + l(C^[F]) is checked exactly row by row.
    """
    quot, project = quotient
    for x in witness_submodule:
        if not project(x).is_zero():
            raise DomainError("submodule witness leaves the submodule")

    pushed = FiniteSubset.of(quot, [project(x) for x in witness_quotient_lift])

    est_total = ratio_sequence(m2, witness_total, spec, seq)
    est_sub = ratio_sequence(m2, witness_submodule, spec, seq)
    est_quot = ratio_sequence(quot, pushed, spec, seq)

    # easy direction on the combined witness A = B + B1
    combined = minkowski_sum(witness_submodule, witness_quotient_lift)
    witnesses = (combined, witness_submodule, pushed)
    orbits = [None] * len(witnesses)
    easy_rows = []
    easy_ok = True
    for n in range(1, seq.n_max + 1):
        shell = seq.shell(n)
        vals = []
        try:
            for i, w in enumerate(witnesses):
                orbits[i] = orbit_sum(w, shell, orbits[i])
                vals.append(eval_module_subset(spec, orbits[i]))
        except SetSizeLimitError:
            break
        a_val, b_val, c_val = vals
        parts = value_add(b_val, c_val)
        easy_rows.append((n, a_val, parts))
        if not value_le(parts, a_val):
            easy_ok = False

    limits = (est_total.limit, est_sub.limit, est_quot.limit)
    if all(l.exact and l.ratio is not None for l in limits):
        total_l, sub_l, quot_l = (l.ratio for l in limits)
        if ratio_eq(total_l, ratio_add(sub_l, quot_l)):
            verdict = "EXACT-EQUAL"
        else:
            verdict = "VALUES-DIFFER"
    else:
        verdict = "BOUNDS-ONLY"
    return AdditionReport(est_total, est_sub, est_quot, verdict, easy_ok,
                          tuple(easy_rows))
