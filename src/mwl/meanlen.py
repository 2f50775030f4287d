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
  sofic              log_card or tors_log over Z with finite
                     coefficients: the rows are weighted path counts of an
                     automaton (mwl.sofic), and the limit is log k when
                     the largest spectral radius of its components of live
                     states is an integer k, proved exactly.

A table no rule covers has no certificate; its flag constant_exact is
prefix evidence only (a finite quotient looks constant before it saturates).

Computed rows are always checked against an applicable structural rule,
so a disagreement raises instead of misreporting.  Sofic rows (counted)
and rank, nu and gen rows (one carried lattice) are never truncated.  An
orbit sum that would overflow the subset cap truncates the table and
marks it, unless the product-structure rule covers the missing rows.
An orbit sum that is the whole finite module M, or that equals the one
before it, ends the summing (see _table_rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct

from . import sofic
from .errors import ConfigurationError, DomainError, SetSizeLimitError
from .finabelian import INFINITE, FinAbGroup
from .groupring import ShiftModule, gr_translate, orbit_sum
from .intmat import EchelonLattice, exponent_sum
from .subsets import SET_CAP, Element, FiniteSubset, difference_set, minkowski_sum
from .values import (
    LOG,
    LengthValue,
    MeanRatio,
    ratio_add,
    ratio_eq,
    ratio_le,
    ratio_min,
    value_add,
    value_cmp,
    value_le,
)
from .weaklength import (
    WeakLengthSpec,
    count_value,
    eval_weak_length,
    span_insert,
    span_length,
)

DEFAULT_N_MAX_BUDGET = 4096  # coefficient_card ** n_max stays near this
# Largest n_max.  Sofic rows are never truncated, and their Fekete checks
# cost about n_max^2 / 4 products of counts of up to n_max * log2(lambda)
# bits.  Timed on one CPU: 1000 rows take 0.15-0.55 s with automata of
# 4-10 states and 0.8-1.5 s with 800-3134 states; 2000 rows on the small
# automata already take 0.9-3.3 s, growing about as n_max^3.
N_MAX_LIMIT = 1000


@dataclass(frozen=True)
class FolnerBoxes:
    """Boxes [0,n)^d times the full finite part of the acting group."""

    group: FinAbGroup
    n_max: int

    def __post_init__(self):
        if not 1 <= self.n_max <= N_MAX_LIMIT:
            raise DomainError(f"n_max must lie in 1..{N_MAX_LIMIT}, got {self.n_max}")

    def box(self, n: int) -> list[Element]:
        return self._points(iproduct(range(n), repeat=self.group.free_rank))

    def shell(self, n: int) -> list[Element]:
        """F_n minus F_(n-1), with F_0 empty, in box order: the points whose
        largest free coordinate is n - 1 (none for n >= 2 without free part)."""
        if n == 1:
            return self.box(1)
        return self._points(_top_layer(n, self.group.free_rank))

    def _points(self, free_parts) -> list[Element]:
        # coordinates come out reduced, so no FinAbGroup.element check
        g = self.group
        torsion_part = list(iproduct(*(range(t) for t in g.torsion)))
        return [Element(g, tail + free) for free in free_parts for tail in torsion_part]

    def size(self, n: int) -> int:
        return n ** self.group.free_rank * math.prod(self.group.torsion)


def _top_layer(n: int, rank: int):
    """The tuples in [0, n)^rank whose largest entry is n - 1, in
    lexicographic order (none for rank 0)."""
    if rank == 0:
        return
    if rank > 1:
        for head in range(n - 1):
            for rest in _top_layer(n, rank - 1):
                yield (head, *rest)
    for rest in iproduct(range(n), repeat=rank - 1):
        yield (n - 1, *rest)


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
    kind: str | None  # product-structure | finite-module | sofic | None
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
    if coeff.torsion and exponent_sum(coeff.torsion[0]) != 1:
        return False
    if module.support_group.torsion:
        return False
    # one nonzero element up to scalars: a span of rank <= 1 over Z, or
    # of dimension <= 1 over F_p (omega counts its dimension)
    lattice = EchelonLattice()
    span_insert(lattice, module, a.items)
    return lattice.free_rank + lattice.omega <= 1


def _scaled_value(v: LengthValue, size: int) -> LengthValue:
    if v.is_infinite():
        return v
    if v.kind == "log":
        return LengthValue.log_count(v.count ** size)
    return LengthValue.rational(v.q * size)


def eval_module_subset(spec: WeakLengthSpec, subset: FiniteSubset) -> LengthValue:
    """Evaluate a weak length on a finite set of module elements."""
    return eval_weak_length(spec, subset.ambient, subset)


def ratio_sequence(module: ShiftModule, a: FiniteSubset, spec: WeakLengthSpec,
                   seq: FolnerBoxes) -> MeanEstimate:
    """Exact ratio table l(A^[F_n]) / |F_n| for n = 1..n_max.

    The rows come from _table_rows.  Where they end at the set cap and
    the product-structure rule applies, the rule's value fills the rows
    from there on (method "certified"); otherwise the table ends there.
    running_inf, the least finite ratio, bounds the limit from above only
    where rows are subadditive (Fekete: log_card, rank, nu, gen); tors_log
    rows need not be, and scenarios/torsion-fibonacci.json has running_inf
    log 1 but limit log((1 + sqrt 5) / 2).
    """
    if a.ambient != module:
        raise DomainError("witness does not live in the module")
    zero_in_a = a.contains_zero()
    symmetric_a = a.is_symmetric()
    structural = product_structure_value(module, a, spec)
    automaton, computed = _table_rows(a, spec, seq)

    rows = []
    for n in range(1, seq.n_max + 1):
        size = seq.size(n)
        expected = None if structural is None else _scaled_value(structural, size)
        if (automaton is None and spec.kind in ("log_card", "tors_log")
                and expected is not None and len(a.items) ** size > SET_CAP):
            # translates are independent, so |A^[F_n]| = |A|^|F_n|: its
            # orbit sum would pass the cap
            computed = iter(())
        # past the last computed row only the structural value goes on
        value, method = next(computed, (expected, "certified"))
        if value is None:
            break
        if expected is not None and value_cmp(value, expected) != 0:
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

    limit = _limit_certificate(module, structural, automaton, ratios[0])
    return MeanEstimate(
        spec=spec, rows=tuple(rows), running_inf=running_inf,
        zero_in_a=zero_in_a, symmetric_a=symmetric_a,
        length_induced=spec.length_induced, constant_exact=constant_exact,
        strongly_subadditive=strongly_subadditive, truncated_at=truncated_at,
        fekete_checked=fekete_checked, fekete_ok=fekete_ok,
        doubling_ok=doubling_ok, limit=limit)


def _table_rows(a: FiniteSubset, spec: WeakLengthSpec, seq: FolnerBoxes):
    """The automaton that counts the rows of A, or None, and the rows as
    (value, method) in order of n, each grown from the last by the shell
    F_n minus F_(n-1).

    log_card and tors_log over Z with finite coefficients are counted by
    mwl.sofic (method "sofic") unless it passes its state cap; a tors_log
    count of 0 is the domain error of a set that meets no k-torsion.  rank,
    nu and gen depend on A^[F] only through its span, and their rows come
    from one carried lattice: with a0 the least item of A (0 if 0 is in
    A), A^[F] = a0^[F] + (A - a0)^[F], so <A^[F]> is spanned by the point
    a0^[F] and the translates of A - a0, which holds 0.  Other log_card and
    tors_log rows carry the orbit sum, and end at the first one past
    SET_CAP.  No more orbit sums are built once A^[F_n] = A^[F_(n-1)] + B
    (B the shell sum) is the whole finite module M, since M + B' = M for
    every later shell sum B', or once A^[F_n] = A^[F_(n-1)] where 0 is in
    A or the acting group has free rank <= 1.  Then H = Stab(A^[F_(n-1)])
    is invariant under the acting group, and every later shell sum lies in
    H, so every later set is the same.  With 0 in A, A^[F_(n-1)] is
    invariant, as e + F_(n-1) lies in F_n for each generator e, and every
    later g.A is a translate of some s.A in B, which lies in H.  With free
    rank 1 the shell sums are t^(n-1) C with C = A^[F_1], and A^[F_(n-1)]
    = C + t A^[F_(n-1)] gives tH = H.
    """
    automaton = sofic.subset_automaton(a, spec) if sofic.applies(a.ambient, spec) else None
    return automaton, _rows(a, spec, seq, automaton)


def _rows(a, spec, seq, automaton):  # the generator behind _table_rows
    if automaton is not None:
        for count in automaton.counts(seq.n_max):
            yield count_value(spec, count), "sofic"
    elif spec.kind not in ("log_card", "tors_log"):  # rank, nu, gen
        lattice, point = EchelonLattice(), None  # point: a0^[F_n]
        a0 = FiniteSubset(a.ambient, frozenset([min(a.items)]))  # 0 if 0 is in A
        shifted = a if a.contains_zero() else difference_set(a, a0)
        for n in range(1, seq.n_max + 1):
            for s in seq.shell(n):
                span_insert(lattice, a.ambient, gr_translate(-s, shifted).items)
            row = lattice
            if shifted is not a:  # the point goes into a copy of the lattice
                point = orbit_sum(a0, seq.shell(n), point)
                row = lattice.copy()
                span_insert(row, a.ambient, point.items)
            yield span_length(spec, row), "enumerated"
    else:
        orbit, whole, settled = None, a.ambient.cardinality(), False  # A^[F_(n-1)], |M|, done
        steady = a.contains_zero() or seq.group.free_rank <= 1  # equal sets stay equal
        for n in range(1, seq.n_max + 1):
            if not settled:
                try:
                    grown = orbit_sum(a, seq.shell(n), orbit)
                except SetSizeLimitError:
                    return
                settled = len(grown) == whole or (steady and grown == orbit)
                orbit, value = grown, eval_module_subset(spec, grown)
            yield value, "enumerated"


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
    if all(x.kind == "rational" for x in values):
        # the same test on the values times a common denominator: Fraction
        # sums per pair took 9 s of a 22 s 1000-row rank table
        d = math.lcm(*(x.q.denominator for x in values))
        c = (None, *(x.q.numerator * (d // x.q.denominator) for x in values))
        return all(c[n + m] <= c[n] + c[m] for n, m in pairs)
    return all(value_le(v[n + m], value_add(v[n], v[m])) for n, m in pairs)


def _limit_certificate(module, structural, automaton, first_ratio) -> CertificateInfo:
    if structural is not None:
        return CertificateInfo("product-structure", MeanRatio(structural, 1), True)
    if module.cardinality() != INFINITE and module.group.cardinality() == INFINITE:
        zero = (LengthValue.log_count(1) if first_ratio.value.kind == LOG
                else LengthValue.rational(0))
        return CertificateInfo("finite-module", MeanRatio(zero, 1), True)
    base = automaton.limit_base() if automaton is not None else None
    if base is not None:
        return CertificateInfo("sofic", MeanRatio(LengthValue.log_count(base), 1), True)
    return CertificateInfo(None, None, False)


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
    The rows of B + B1 come from the row source of the tables
    (_table_rows); they end with the submodule or quotient table, or at
    the first orbit sum of B + B1 past the set cap.
    """
    quot, project = quotient
    for x in witness_submodule:
        if not project(x).is_zero():
            raise DomainError("submodule witness leaves the submodule")

    pushed = FiniteSubset.of(quot, [project(x) for x in witness_quotient_lift])

    est_total = ratio_sequence(m2, witness_total, spec, seq)
    est_sub = ratio_sequence(m2, witness_submodule, spec, seq)
    est_quot = ratio_sequence(quot, pushed, spec, seq)

    # easy direction on the combined witness A = B + B1, row by row
    # against the two tables just computed; they come first in zip, so
    # no row past the end of either is computed for A
    _, combined_rows = _table_rows(
        minkowski_sum(witness_submodule, witness_quotient_lift), spec, seq)
    easy_rows = []
    easy_ok = True
    for sub_row, quot_row, (a_val, _) in zip(est_sub.rows, est_quot.rows, combined_rows):
        parts = value_add(sub_row.value, quot_row.value)
        easy_rows.append((sub_row.n, a_val, parts))
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
