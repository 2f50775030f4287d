"""Shell-by-shell ratio tables against orbit sums rebuilt from whole boxes.

`ratio_sequence` and the easy rows of `addition_report` take their rows
from one row source: counted by mwl.sofic where it applies; for rank, nu
and gen, one carried lattice of the translates of A - a0 plus the point
a0^[F_n] (a0 the least item of A), which never reaches the set cap; else
grown from A^[F_(n-1)] to A^[F_n], ending at the first row past the set
cap.  The reference here is the from-scratch orbit sum
`orbit_sum(a, seq.box(n))`, under a lowered cap so that cap hits happen on
small inputs.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mwl import groupring, meanlen, subsets
from mwl.errors import SetSizeLimitError
from mwl.finabelian import AbHom, FinAbGroup, subgroup_generated
from mwl.groupring import (
    ShiftModule,
    coeff_quotient,
    embed_subset,
    gr_translate,
    orbit_sum,
    principal_quotient,
)
from mwl.intmat import exponent_sum
from mwl.meanlen import (
    FolnerBoxes,
    addition_report,
    eval_module_subset,
    ratio_sequence,
)
from mwl.sampling import XorShift64Star
from mwl.subsets import FiniteSubset, difference_set, minkowski_sum
from mwl.values import LengthValue, value_add, value_cmp
from mwl.weaklength import GEN, LOG_CARD, NU, RANK, tors_log

SET_CAP = subsets.SET_CAP
CAP = 400
Z = FinAbGroup.free(1)
ACTING = {
    "Z": Z,
    "Z^2": FinAbGroup.free(2),
    "ZxC2": FinAbGroup((2,), 1),
    "C3": FinAbGroup.of(3),  # finite: every shell after the first is empty
}
THROUGH_Z = AbHom.from_rows(FinAbGroup.free(2), Z, [[1], [0]])  # Z^2 acting through Z
COEFFS = (FinAbGroup.of(2), FinAbGroup.of(3), FinAbGroup.of(4), FinAbGroup.free(1))
FINITE_COEFFS = (FinAbGroup.of(4), FinAbGroup.of(2, 2), FinAbGroup.of(3), FinAbGroup.of(2))


@pytest.fixture
def low_cap(monkeypatch):
    # the cap that minkowski_sum enforces
    monkeypatch.setattr(subsets, "SET_CAP", CAP)


def _random_element(rng, module):
    support, coeff = module.support_group, module.coeff
    pairs = []
    for _ in range(rng.below(2) + 1):
        g = [rng.below(t) for t in support.torsion] + [
            rng.below(3) for _ in range(support.free_rank)]
        c = [rng.below(t) for t in coeff.torsion] + [
            rng.below(5) - 2 for _ in range(coeff.free_rank)]
        pairs.append((g, c))
    return module.element(pairs)


def _rebuilt(spec, a, seq, n):
    """The value of row n from the whole box, or None past the cap."""
    try:
        return eval_module_subset(spec, orbit_sum(a, seq.box(n)))
    except SetSizeLimitError:
        return None


def _snf_span_value(spec, subset):
    """rank, nu or gen through the Smith-form path instead of the echelon lattice."""
    ambient, embedded = embed_subset(subset)
    span, _ = subgroup_generated(ambient, list(embedded))
    if spec.kind == "gen":
        return LengthValue.rational(span.free_rank + len(span.torsion))
    if spec.kind == "rank":
        return LengthValue.rational(span.free_rank)
    if span.free_rank:
        return LengthValue.infinity()
    return LengthValue.rational(sum(exponent_sum(t) for t in span.torsion))


def _span_ref(spec, a, seq, n):
    """rank, nu or gen of A^[F_n] through the Smith-form path.

    For any a0 in A, A^[F] = a0^[F] + (A - a0)^[F] and 0 is in A - a0, so
    <A^[F]> is spanned by the translates of A - a0 over the whole box and
    the point a0^[F].  The tables take the least item for a0; this
    reference takes the largest.
    """
    a0 = FiniteSubset(a.ambient, frozenset([max(a.items)]))
    box = seq.box(n)
    translates = frozenset().union(
        *(gr_translate(-s, difference_set(a, a0)).items for s in box))
    return _snf_span_value(spec, FiniteSubset(a.ambient, translates | orbit_sum(a0, box).items))


def _spans(spec):
    """Whether the tables of spec come from the lattice: rank, nu and gen."""
    return spec.kind in ("rank", "nu", "gen")


def _check_table(module, a, spec, seq):
    est = ratio_sequence(module, a, spec, seq)
    for row in est.rows:
        ref = _rebuilt(spec, a, seq, row.n)
        if _spans(spec):
            # the lattice never materializes the orbit sum, so it also has
            # rows past the cap; those compare with the span reference
            assert row.method == "enumerated"
            assert value_cmp(row.value, _span_ref(spec, a, seq, row.n)) == 0
            assert ref is None or value_cmp(row.value, ref) == 0
        elif row.method == "enumerated":
            assert ref is not None and value_cmp(row.value, ref) == 0
        elif row.method == "sofic":
            # counted, never enumerated: every row below the cap is checked
            assert ref is None or value_cmp(row.value, ref) == 0
        else:
            assert ref is None  # certified rows are the rows past the cap
    if est.truncated_at is None:
        assert len(est.rows) == seq.n_max
    else:
        assert not _spans(spec) and len(est.rows) == est.truncated_at - 1
        assert _rebuilt(spec, a, seq, est.truncated_at) is None
    return est


@pytest.mark.parametrize("name", sorted(ACTING))
def test_shells_partition_the_box(name):
    seq = FolnerBoxes(ACTING[name], 5)
    seen = []
    for n in range(1, 6):
        seen += [s.coords for s in seq.shell(n)]
        assert sorted(seen) == sorted(s.coords for s in seq.box(n))
        inner = set(seq.box(n - 1)) if n > 1 else set()
        assert seq.shell(n) == [s for s in seq.box(n) if s not in inner]  # box order
    if name == "C3":
        assert all(seq.shell(n) == [] for n in range(2, 6))


@pytest.mark.parametrize("name", sorted(ACTING))
def test_random_tables_match_rebuilt_orbit_sums(low_cap, name):
    acting = ACTING[name]
    rng = XorShift64Star(sum(map(ord, name)))
    n_max = {0: 2, 1: 10, 2: 3}[acting.free_rank]
    truncated = enumerated = 0
    for coeff in COEFFS:
        module = ShiftModule(acting, coeff)
        for trial in range(3):
            elements = [_random_element(rng, module) for _ in range(rng.below(3) + 1)]
            specs = [LOG_CARD, RANK, NU, GEN]
            if coeff.torsion:
                specs.append(tors_log(coeff.torsion[0]))
            for spec in specs:
                # tors_log needs the set to meet the torsion; 0 always does
                with_zero = spec.kind == "tors_log" or (trial + len(elements)) % 2 == 0
                a = FiniteSubset.of(module, elements + [module.zero()] * with_zero)
                est = _check_table(module, a, spec, FolnerBoxes(acting, n_max))
                truncated += est.truncated_at is not None
                enumerated += sum(r.method == "enumerated" for r in est.rows)
    assert enumerated > 0
    if acting.free_rank:
        assert truncated > 0  # the lowered cap is reached on some tables


def test_product_structure_needs_zero_for_length_induced_specs():
    # A = {delta}: A^[F] is one element, so its span is cyclic and nu is 1
    # for every F, not |F|
    m = ShiftModule(FinAbGroup.of(3), FinAbGroup.of(3))
    a = FiniteSubset.of(m, [m.delta([1])])
    est = ratio_sequence(m, a, NU, FolnerBoxes(m.group, 2))
    assert [r.value.q for r in est.rows] == [1, 1]


def _principal(p, coeffs):
    """Z acting on F_p[t^+-1] / (f), f the sum of coeffs[i] t^i."""
    m = ShiftModule(Z, FinAbGroup.of(p))
    f = m.element([((i,), (c,)) for i, c in enumerate(coeffs) if c])
    return ShiftModule(Z, FinAbGroup.of(p), quotient=(f.coords,))


def _principal_quotient_module():
    """Z acting on F_2[t^+-1] / (1 + t + t^3)."""
    return _principal(2, [1, 1, 0, 1])


def test_principal_quotient_table_matches_rebuilt_orbit_sums(low_cap):
    quot = _principal_quotient_module()
    for elements in ([quot.delta([1])], [quot.zero(), quot.delta([1])],
                     [quot.delta([1]), quot.delta([1], at=(2,))]):
        a = FiniteSubset.of(quot, elements)
        for spec in (LOG_CARD, RANK, NU, GEN, tors_log(2)):
            if spec.kind == "tors_log" and not a.contains_zero():
                continue
            _check_table(quot, a, spec, FolnerBoxes(Z, 8))


def _count_orbit_sums(monkeypatch):
    """The argument tuples of every meanlen.orbit_sum call from now on."""
    calls = []
    real = meanlen.orbit_sum

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(meanlen, "orbit_sum", counted)
    return calls


def test_orbit_sums_stop_at_the_whole_module(monkeypatch):
    # F_2[t^+-1] / (1 + t^3 + t^10) has 1024 elements, and {0, d0}^[F_n]
    # holds the 2^n polynomials of degree < n: from n = 10 on it is the
    # whole module, so rows 11-20 are read off without an orbit sum
    calls = _count_orbit_sums(monkeypatch)
    quot = _principal(2, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1])
    a = FiniteSubset.of(quot, [quot.zero(), quot.delta([1])])
    est = ratio_sequence(quot, a, LOG_CARD, FolnerBoxes(Z, 20))
    assert len(calls) <= 10
    assert [r.value.count for r in est.rows] == [min(2 ** n, 1024) for n in range(1, 21)]
    assert est.limit.kind == "finite-module"


def test_orbit_sums_stop_once_they_stop_growing(monkeypatch):
    # M = F_2[t^+-1] / ((1 + t)(1 + t^3 + t^16)) has 2^17 elements, and
    # {0, 1 + t}^[F_n] fills the submodule (1 + t)M of 2^16 elements at
    # n = 16: the 17th orbit sum equals the 16th, and no more are built
    calls = _count_orbit_sums(monkeypatch)
    quot = _principal(2, [1, 1, 0, 1, 1] + [0] * 11 + [1, 1])
    a = FiniteSubset.of(quot, [quot.zero(), quot.element([((0,), (1,)), ((1,), (1,))])])
    est = ratio_sequence(quot, a, LOG_CARD, FolnerBoxes(Z, 40))
    assert len(calls) == 17
    assert [r.value.count for r in est.rows] == [min(2 ** n, 2 ** 16) for n in range(1, 41)]
    assert {r.method for r in est.rows} == {"enumerated"}


@st.composite
def finite_module_tables(draw):
    """A finite module, a witness of 1-3 elements with or without 0,
    log_card or tors_log(p), and n_max past the row where the orbit sums
    of {0, d0} stop growing.  The module is F_p[t^+-1] / (f) for p = 2 or
    3 and f of degree 1-6 with f(0) != 0, acted on by Z, or C^m for C in
    FINITE_COEFFS with Z or Z^2 acting through a map onto C_m, m = 1-3."""
    acting = draw(st.sampled_from(("principal", Z, FinAbGroup.free(2))))
    if acting == "principal":
        acting, p, degree = Z, draw(st.sampled_from((2, 3))), draw(st.integers(1, 6))
        nonzero, entry = st.integers(1, p - 1), st.integers(0, p - 1)
        module = _principal(p, [draw(nonzero), *(draw(entry) for _ in range(degree - 1)),
                                draw(nonzero)])
        stops, point = degree, st.tuples(st.integers(0, degree))
    else:
        coeff, m = draw(st.sampled_from(FINITE_COEFFS)), draw(st.integers(1, 3))
        target = FinAbGroup.of(m)  # C_1 has no coordinates
        images = [1] + [draw(st.integers(0, m - 1)) for _ in range(acting.free_rank - 1)]
        module = ShiftModule(acting, coeff, AbHom.from_rows(
            acting, target, [[x] * len(target.torsion) for x in images]))
        stops = m * max(coeff.torsion)
        point = st.tuples(*(st.integers(0, t - 1) for t in target.torsion))
    coeff = module.coeff
    coefficient = st.tuples(*(st.integers(0, t - 1) for t in coeff.torsion))
    elements = [module.element(draw(st.lists(st.tuples(point, coefficient), min_size=1, max_size=2)))
                for _ in range(draw(st.integers(1, 3)))]
    p = 3 if coeff.torsion[0] == 3 else 2
    spec = draw(st.sampled_from((LOG_CARD, tors_log(p))))
    # tors_log needs the set to meet the p-torsion; 0 always does
    with_zero = spec.kind == "tors_log" or draw(st.booleans())
    a = FiniteSubset.of(module, elements + [module.zero()] * with_zero)
    return module, a, spec, FolnerBoxes(acting, stops + draw(st.integers(1, 3)))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(finite_module_tables())
def test_finite_module_rows_match_rebuilt_orbit_sums(case):
    # rows after the orbit sum fills the module are read off, not summed;
    # the slow path rebuilds every row from the whole box
    module, a, spec, seq = case
    est = ratio_sequence(module, a, spec, seq)
    assert est.truncated_at is None and {r.method for r in est.rows} == {"enumerated"}
    for row in est.rows:
        assert value_cmp(row.value, _rebuilt(spec, a, seq, row.n)) == 0


LATTICE_COEFFS = (FinAbGroup.free(1), FinAbGroup.of(4), FinAbGroup.of(2, 2),
                  FinAbGroup.of(3), FinAbGroup((2,), 1))
LATTICE_MODULES = (
    *(ShiftModule(ACTING[name], coeff) for name in ("Z", "Z^2", "ZxC2") for coeff in LATTICE_COEFFS),
    ShiftModule(FinAbGroup.free(2), FinAbGroup.of(2), action=THROUGH_Z),
    _principal_quotient_module(),
)


@st.composite
def witnesses_without_zero(draw):
    """A module of LATTICE_MODULES, a witness of 1-3 nonzero elements with
    1-2 terms each, and rank or nu."""
    module = draw(st.sampled_from(LATTICE_MODULES))
    support, coeff = module.support_group, module.coeff

    def coords(group, free):
        return ([draw(st.integers(0, t - 1)) for t in group.torsion]
                + [draw(free) for _ in range(group.free_rank)])

    items = {module.element([(coords(support, st.integers(0, 2)), coords(coeff, st.integers(-2, 2)))
                             for _ in range(draw(st.integers(1, 2)))]).coords
             for _ in range(draw(st.integers(1, 3)))} - {module.zero().coords}
    assume(items)
    return module, FiniteSubset.from_items(module, items), draw(st.sampled_from((RANK, NU)))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(witnesses_without_zero())
def test_rank_and_nu_rows_without_zero_match_rebuilt_orbit_sums(case):
    # every row whose orbit sum fits under the lowered cap is rebuilt from
    # the whole box and evaluated as a set
    module, a, spec = case
    seq = FolnerBoxes(module.group, 8 if module.group.free_rank == 1 else 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subsets, "SET_CAP", CAP)
        est = ratio_sequence(module, a, spec, seq)
        for n in range(1, seq.n_max + 1):
            ref = _rebuilt(spec, a, seq, n)
            if ref is None:
                break
            assert value_cmp(est.rows[n - 1].value, ref) == 0


def test_rank_table_without_zero_runs_past_the_cap(low_cap):
    # {delta_0, 2 delta_1} over Z: the translates of A - a0 = {0, 2t - 1}
    # span rank n and the point a0^[F_n] adds one more
    m = ShiftModule(Z, FinAbGroup.free(1))
    a = FiniteSubset.of(m, [m.delta([1]), m.delta([2], at=(1,))])
    seq = FolnerBoxes(Z, 40)
    est = ratio_sequence(m, a, RANK, seq)
    assert _rebuilt(RANK, a, seq, 9) is None  # its orbit sum passed the lowered cap
    assert est.truncated_at is None
    assert [r.value.q for r in est.rows] == [n + 1 for n in range(1, 41)]
    assert {r.method for r in est.rows} == {"enumerated"}


def _easy_rows_rebuilt(spec, combined, sub, pushed, seq):
    rows = []
    for n in range(1, seq.n_max + 1):
        values = [_rebuilt(spec, w, seq, n) for w in (combined, sub, pushed)]
        if None in values:
            break
        rows.append((n, values[0], value_add(values[1], values[2])))
    return rows


def _check_easy_rows(report, expected):
    assert len(report.easy_rows) == len(expected)
    for (n, a_val, parts), (n_ref, a_ref, parts_ref) in zip(report.easy_rows, expected):
        assert n == n_ref
        assert value_cmp(a_val, a_ref) == 0 and value_cmp(parts, parts_ref) == 0


def _addition_case(case, action=None):
    """(M, (M/N, projection), total witness, B, B1) of one addition case,
    acted on by Z or, through `action`, by Z^2."""
    group = Z if action is None else action.source
    if case == "coeff-z4":
        m2 = ShiftModule(group, FinAbGroup.of(4), action)
        n1 = coeff_quotient(m2, [[2]])
        total = FiniteSubset.of(m2, [m2.delta([c]) for c in range(4)])
        sub = FiniteSubset.of(m2, [m2.zero(), m2.delta([2])])
    else:
        m2 = ShiftModule(group, FinAbGroup.of(2), action)
        f = m2.element([((0,), (1,)), ((1,), (1,)), ((3,), (1,))])
        n1 = principal_quotient(m2, [f])
        total = FiniteSubset.of(m2, [m2.zero(), m2.delta([1])])
        sub = FiniteSubset.of(m2, [m2.zero(), f])
    lift = FiniteSubset.of(m2, [m2.zero(), m2.delta([1]), m2.delta([1], at=(1,))])
    return m2, n1, total, sub, lift


def _pushed(quotient, lift):
    quot, project = quotient
    return FiniteSubset.of(quot, [project(x) for x in lift])


@pytest.mark.parametrize("case", ["coeff-z4", "principal-z2"])
def test_easy_rows_match_rebuilt_orbit_sums(low_cap, monkeypatch, case):
    # Z^2 acting through Z: no automaton counts log_card and the
    # product-structure rule does not apply, so B + B1 is enumerated.  0 is
    # in B and in B1, so B + B1 contains both parts and reaches the lowered
    # cap first: the rows end where all three rebuilt orbit sums still fit
    m2, n1, total, sub, lift = _addition_case(case, THROUGH_Z)
    seq = FolnerBoxes(THROUGH_Z.source, 7)
    report = addition_report(m2, n1, sub, total, lift, LOG_CARD, seq)
    combined = minkowski_sum(sub, lift)
    expected = _easy_rows_rebuilt(LOG_CARD, combined, sub, _pushed(n1, lift), seq)
    assert 0 < len(expected) < seq.n_max
    assert _rebuilt(LOG_CARD, combined, seq, len(expected) + 1) is None
    _check_easy_rows(report, expected)

    # log_card and tors_log acted on by Z with finite coefficients: B + B1
    # is counted by mwl.sofic like the tables, so its rows run past the
    # lowered cap to the end of the submodule and quotient tables
    m2, n1, total, sub, lift = _addition_case(case)
    seq = FolnerBoxes(Z, 7)
    reports = {spec.kind: addition_report(m2, n1, sub, total, lift, spec, seq)
               for spec in (LOG_CARD, tors_log(2))}
    combined = minkowski_sum(sub, lift)
    assert _rebuilt(LOG_CARD, combined, seq, seq.n_max) is None
    monkeypatch.setattr(subsets, "SET_CAP", SET_CAP)
    for spec in (LOG_CARD, tors_log(2)):
        expected = _easy_rows_rebuilt(spec, combined, sub, _pushed(n1, lift), seq)
        assert len(expected) == seq.n_max  # every row fits under the real cap
        _check_easy_rows(reports[spec.kind], expected)


def _z4_addition(sub_elements, lift_elements, spec, seq, action=None):
    """Addition report over C4 with N = 2C4, and B + B1."""
    m2 = ShiftModule(seq.group, FinAbGroup.of(4), action)
    sub = FiniteSubset.of(m2, sub_elements(m2))
    lift = FiniteSubset.of(m2, lift_elements(m2))
    total = FiniteSubset.of(m2, [m2.delta([c]) for c in range(4)])
    report = addition_report(m2, coeff_quotient(m2, [[2]]), sub, total, lift, spec, seq)
    return report, minkowski_sum(sub, lift)


def _check_easy_parts(report):
    for (n, _, parts), sub_row, quot_row in zip(
            report.easy_rows, report.submodule.rows, report.quotient.rows):
        assert n == sub_row.n == quot_row.n
        assert value_cmp(parts, value_add(sub_row.value, quot_row.value)) == 0


@st.composite
def coeff_subgroup_additions(draw):
    """M over C2, C3, C4 or C2 x C2, a coefficient subgroup D given by
    generators, B with coefficients in D, a lift B1 and n_max <= 6; the
    elements are supported in {0, 1}."""
    coeff = draw(st.sampled_from(FINITE_COEFFS))
    m2 = ShiftModule(Z, coeff)
    coefficient = st.tuples(*(st.integers(0, t - 1) for t in coeff.torsion))
    gens = draw(st.lists(coefficient, min_size=1, max_size=2))

    def in_d():
        ks = [draw(st.integers(0, 3)) for _ in gens]
        return tuple(sum(k * g[j] for k, g in zip(ks, gens)) % t
                     for j, t in enumerate(coeff.torsion))

    def witness(coefficients):
        elements = [m2.element([((i,), c) for i, c in enumerate(window) if any(c)])
                    for window in draw(st.lists(st.lists(coefficients, min_size=2, max_size=2),
                                                min_size=1, max_size=3))]
        return FiniteSubset.of(m2, elements + [m2.zero()] * draw(st.booleans()))

    sub = witness(st.builds(in_d))
    lift = witness(coefficient)
    return m2, [list(g) for g in gens], sub, lift, FolnerBoxes(Z, draw(st.sampled_from(range(6, 0, -1))))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(coeff_subgroup_additions())
def test_easy_rows_match_rebuilt_orbit_sums_on_random_coeff_quotients(case):
    # the easy rows come from the fast row source (sofic counts); the slow
    # path rebuilds the orbit sums of B + B1 from the whole box
    m2, gens, sub, lift, seq = case
    report = addition_report(m2, coeff_quotient(m2, gens), sub, lift, lift, LOG_CARD, seq)
    combined = minkowski_sum(sub, lift)
    assert [n for n, _, _ in report.easy_rows] == list(range(1, seq.n_max + 1))
    for n, a_val, _ in report.easy_rows:
        assert a_val.count == len(orbit_sum(combined, seq.box(n)))
    _check_easy_parts(report)
    # B + B1 maps onto C^[F] with fibres holding a translate of B^[F]
    assert report.easy_direction_ok


def test_nu_easy_rows_reach_n_max_through_the_lattice(low_cap):
    seq = FolnerBoxes(Z, 10)
    report, combined = _z4_addition(
        lambda m: [m.zero(), m.delta([2])],
        lambda m: [m.zero(), m.delta([1]), m.delta([1], at=(1,))], NU, seq)
    assert _rebuilt(NU, combined, seq, seq.n_max) is None  # B + B1 passed the cap
    assert [n for n, _, _ in report.easy_rows] == list(range(1, seq.n_max + 1))
    for n, a_val, _ in report.easy_rows:
        assert value_cmp(a_val, _span_ref(NU, combined, seq, n)) == 0
    _check_easy_parts(report)


def test_nu_easy_rows_reach_n_max_without_zero_in_the_submodule_witness(low_cap):
    # 0 is not in B, yet its nu table comes from the lattice like the
    # others, so neither it nor the easy rows end at the cap
    seq = FolnerBoxes(Z, 10)
    report, combined = _z4_addition(
        lambda m: [m.delta([2]), m.delta([2], at=(1,))],
        lambda m: [m.zero(), m.delta([2])], NU, seq)
    m2 = combined.ambient
    sub = FiniteSubset.of(m2, [m2.delta([2]), m2.delta([2], at=(1,))])
    assert _rebuilt(NU, sub, seq, seq.n_max) is None  # B passed the cap
    assert report.submodule.truncated_at is None
    for row in report.submodule.rows:
        assert value_cmp(row.value, _span_ref(NU, sub, seq, row.n)) == 0
    assert [n for n, _, _ in report.easy_rows] == list(range(1, seq.n_max + 1))
    for n, a_val, _ in report.easy_rows:
        assert value_cmp(a_val, _span_ref(NU, combined, seq, n)) == 0
    _check_easy_parts(report)


def test_easy_rows_end_at_the_end_of_the_submodule_table(low_cap):
    # log_card with Z^2 acting through Z is enumerated, and no structural
    # rule covers B, so its table ends at the cap.  B1 is one point, so
    # B + B1 is a translate of B, whose orbit sums pass the cap at the same
    # row; the quotient table (one point) never does
    seq = FolnerBoxes(THROUGH_Z.source, 10)
    report, combined = _z4_addition(
        lambda m: [m.delta([2]), m.delta([2], at=(1,))],
        lambda m: [m.delta([1])], LOG_CARD, seq, THROUGH_Z)
    last = report.submodule.truncated_at - 1
    assert report.quotient.truncated_at is None
    assert [n for n, _, _ in report.easy_rows] == list(range(1, last + 1))
    assert _rebuilt(LOG_CARD, combined, seq, last + 1) is None  # past the cap of B + B1
    for n, a_val, _ in report.easy_rows:
        assert value_cmp(a_val, _rebuilt(LOG_CARD, combined, seq, n)) == 0
    _check_easy_parts(report)


def test_gen_table_runs_past_the_cap(low_cap):
    # gen reads the span, so its rows come from the lattice like rank's:
    # {0, d0, d1} over C2 spans C2^(n+1), and {d0, 2 d1} over Z (no 0)
    # spans Z^(n+1), on rows whose orbit sums pass the lowered cap
    for coeff, elements in ((FinAbGroup.of(2), lambda m: [m.zero(), m.delta([1]), m.delta([1], at=(1,))]),
                            (FinAbGroup.free(1), lambda m: [m.delta([1]), m.delta([2], at=(1,))])):
        m = ShiftModule(Z, coeff)
        a = FiniteSubset.of(m, elements(m))
        seq = FolnerBoxes(Z, 40)
        est = ratio_sequence(m, a, GEN, seq)
        assert _rebuilt(GEN, a, seq, 9) is None  # its orbit sum passed the lowered cap
        assert est.truncated_at is None
        assert [r.value.q for r in est.rows] == [n + 1 for n in range(1, 41)]
        assert {r.method for r in est.rows} == {"enumerated"}


def _spy_on_minkowski(monkeypatch):
    """Record minkowski_sum calls in orbit sums; fail on a call after a cap hit."""
    calls = []
    real = groupring.minkowski_sum

    def spy(x, y):
        assert "cap" not in calls, "minkowski_sum called after a cap hit"
        try:
            out = real(x, y)
        except SetSizeLimitError:
            calls.append("cap")
            raise
        calls.append(len(out))
        return out

    monkeypatch.setattr(groupring, "minkowski_sum", spy)
    return calls


def test_no_enumeration_after_cap_hit_under_product_structure(low_cap, monkeypatch):
    calls = _spy_on_minkowski(monkeypatch)
    # integer coefficients: the table is enumerated, not counted by mwl.sofic
    m = ShiftModule(Z, FinAbGroup.free(1))
    a = FiniteSubset.of(m, [m.zero(), m.delta([1])])
    est = ratio_sequence(m, a, LOG_CARD, FolnerBoxes(Z, 16))
    assert est.limit.kind == "product-structure" and est.truncated_at is None
    assert calls[-1] == "cap"
    # 2^8 <= CAP < 2^9
    assert [r.method for r in est.rows] == ["enumerated"] * 8 + ["certified"] * 8
    assert [r.value.count for r in est.rows] == [2 ** n for n in range(1, 17)]


def test_no_enumeration_after_certified_count_passes_cap(low_cap, monkeypatch):
    calls = _spy_on_minkowski(monkeypatch)
    m = ShiftModule(Z, FinAbGroup.of(2))
    a = FiniteSubset.of(m, [m.zero(), m.delta([1]), m.delta([1], at=(1,))])
    est = ratio_sequence(m, a, LOG_CARD, FolnerBoxes(Z, 10))
    # sofic counts pass CAP at n = 8 (2^9 - 1) and nothing is enumerated
    assert calls == []
    assert [r.method for r in est.rows] == ["sofic"] * 10
    assert [r.value.count for r in est.rows] == [2 ** (n + 1) - 1 for n in range(1, 11)]
    assert est.truncated_at is None


@pytest.mark.parametrize("spec", [LOG_CARD, tors_log(2)], ids=["log_card", "tors_log"])
def test_no_orbit_sum_for_a_row_the_rule_counts_past_cap(monkeypatch, spec):
    # under product structure translates are independent, so |A^[F_n]| =
    # |A|^|F_n| and the first row whose set passes the cap is certified
    # without an orbit sum
    def table(m, a, n_max):
        with monkeypatch.context() as mp:
            calls = _spy_on_minkowski(mp)
            return ratio_sequence(m, a, spec, FolnerBoxes(m.group, n_max)), calls

    z = ShiftModule(Z, FinAbGroup.free(1))
    z2 = ShiftModule(FinAbGroup.free(2), FinAbGroup.of(2))
    cases = [  # (module, witness, n_max, enumerated rows): 2^8 <= CAP < 2^9, 2^4 <= CAP < 2^9
        (z, FiniteSubset.of(z, [z.zero(), z.delta([1])]), 16, 8),
        (z2, FiniteSubset.of(z2, [z2.zero(), z2.delta([1])]), 6, 2),
    ]
    monkeypatch.setattr(subsets, "SET_CAP", CAP)
    for m, a, n_max, enumerated in cases:
        est_old, calls_old = table(m, a, n_max)  # meanlen's cap unpatched: the orbit sum overflows
        assert calls_old[-1] == "cap"
        with monkeypatch.context() as mp:
            mp.setattr(meanlen, "SET_CAP", CAP)
            est, calls = table(m, a, n_max)
        assert "cap" not in calls and max(calls) <= CAP
        assert [r.method for r in est.rows] == (
            ["enumerated"] * enumerated + ["certified"] * (n_max - enumerated))
        assert est.to_json() == est_old.to_json()
