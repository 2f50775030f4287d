"""Shell-by-shell ratio tables against orbit sums rebuilt from whole boxes.

`ratio_sequence` and `addition_report` grow A^[F_n] from A^[F_(n-1)] and
stop enumerating once a row passes the set cap.  The reference here is
the from-scratch orbit sum `orbit_sum(a, seq.box(n))`, under a lowered
cap so that cap hits happen on small inputs.
"""

import pytest

from mwl import groupring, subsets
from mwl.errors import SetSizeLimitError
from mwl.finabelian import FinAbGroup
from mwl.groupring import (
    ShiftModule,
    coeff_quotient,
    gr_translate,
    orbit_sum,
    principal_quotient,
)
from mwl.meanlen import (
    FolnerBoxes,
    addition_report,
    eval_module_subset,
    ratio_sequence,
)
from mwl.sampling import XorShift64Star
from mwl.subsets import FiniteSubset, minkowski_sum
from mwl.values import value_add, value_cmp
from mwl.weaklength import LOG_CARD, NU, RANK, tors_log

CAP = 400
Z = FinAbGroup.free(1)
ACTING = {
    "Z": Z,
    "Z^2": FinAbGroup.free(2),
    "ZxC2": FinAbGroup((2,), 1),
    "C3": FinAbGroup.of(3),  # finite: every shell after the first is empty
}
COEFFS = (FinAbGroup.of(2), FinAbGroup.of(3), FinAbGroup.of(4), FinAbGroup.free(1))


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


def _check_table(module, a, spec, seq):
    est = ratio_sequence(module, a, spec, seq)
    use_span = spec.length_induced and a.contains_zero()
    for row in est.rows:
        ref = _rebuilt(spec, a, seq, row.n)
        if use_span:
            # the span path never materializes the orbit sum, so it also
            # has rows past the cap; those compare with the union of the
            # translates over the whole box
            translates = frozenset().union(*(gr_translate(-s, a).items
                                             for s in seq.box(row.n)))
            span_ref = eval_module_subset(spec, FiniteSubset(module, translates))
            assert row.method == "enumerated"
            assert value_cmp(row.value, span_ref) == 0
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
        assert not use_span and len(est.rows) == est.truncated_at - 1
        assert _rebuilt(spec, a, seq, est.truncated_at) is None
    return est


@pytest.mark.parametrize("name", sorted(ACTING))
def test_shells_partition_the_box(name):
    seq = FolnerBoxes(ACTING[name], 5)
    seen = []
    for n in range(1, 6):
        seen += [s.coords for s in seq.shell(n)]
        assert sorted(seen) == sorted(s.coords for s in seq.box(n))
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
            specs = [LOG_CARD, RANK, NU]
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


def test_principal_quotient_table_matches_rebuilt_orbit_sums(low_cap):
    m2 = ShiftModule(Z, FinAbGroup.of(2))
    f = m2.element([((0,), (1,)), ((1,), (1,)), ((3,), (1,))])
    quot = ShiftModule(Z, FinAbGroup.of(2), quotient=(f.items,))
    for elements in ([quot.delta([1])], [quot.zero(), quot.delta([1])],
                     [quot.delta([1]), quot.delta([1], at=(2,))]):
        a = FiniteSubset.of(quot, elements)
        for spec in (LOG_CARD, RANK, NU, tors_log(2)):
            if spec.kind == "tors_log" and not a.contains_zero():
                continue
            _check_table(quot, a, spec, FolnerBoxes(Z, 8))


def _easy_rows_rebuilt(spec, combined, sub, pushed, seq):
    rows = []
    for n in range(1, seq.n_max + 1):
        values = [_rebuilt(spec, w, seq, n) for w in (combined, sub, pushed)]
        if None in values:
            break
        rows.append((n, values[0], value_add(values[1], values[2])))
    return rows


@pytest.mark.parametrize("case", ["coeff-z4", "principal-z2"])
def test_easy_rows_match_rebuilt_orbit_sums(low_cap, case):
    if case == "coeff-z4":
        m2 = ShiftModule(Z, FinAbGroup.of(4))
        n1 = coeff_quotient(m2, [[2]])
        total = FiniteSubset.of(m2, [m2.delta([c]) for c in range(4)])
        sub = FiniteSubset.of(m2, [m2.zero(), m2.delta([2])])
    else:
        m2 = ShiftModule(Z, FinAbGroup.of(2))
        f = m2.element([((0,), (1,)), ((1,), (1,)), ((3,), (1,))])
        n1 = principal_quotient(m2, [f])
        total = FiniteSubset.of(m2, [m2.zero(), m2.delta([1])])
        sub = FiniteSubset.of(m2, [m2.zero(), f])
    lift = FiniteSubset.of(m2, [m2.zero(), m2.delta([1]), m2.delta([1], at=(1,))])
    seq = FolnerBoxes(Z, 10)
    report = addition_report(m2, n1, sub, total, lift, LOG_CARD, seq)
    quot, project = n1
    pushed = FiniteSubset.of(quot, [project(x) for x in lift])
    expected = _easy_rows_rebuilt(LOG_CARD, minkowski_sum(sub, lift), sub, pushed, seq)
    assert len(expected) < seq.n_max  # the lowered cap stops the easy rows
    assert len(report.easy_rows) == len(expected)
    for (n, a_val, parts), (n_ref, a_ref, parts_ref) in zip(report.easy_rows, expected):
        assert n == n_ref
        assert value_cmp(a_val, a_ref) == 0 and value_cmp(parts, parts_ref) == 0


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
