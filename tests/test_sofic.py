"""Sofic row counts and the sofic limit certificate.

The log_card and tors_log counts of mwl.sofic are compared with orbit
sums rebuilt from whole boxes, `orbit_sum(a, seq.box(n))`, on every row
below a lowered set cap.
"""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwl import sofic, subsets
from mwl.errors import DomainError, SetSizeLimitError
from mwl.finabelian import FinAbGroup
from mwl.groupring import ShiftModule, orbit_sum
from mwl.meanlen import N_MAX_LIMIT, FolnerBoxes, eval_module_subset, ratio_sequence
from mwl.subsets import FiniteSubset
from mwl.weaklength import LOG_CARD, tors_log

Z = FinAbGroup.free(1)
CAP = 2000
COEFFS = (FinAbGroup.of(2), FinAbGroup.of(3), FinAbGroup.of(4), FinAbGroup.of(2, 2))
TORSION_COEFFS = COEFFS + (FinAbGroup.of(2, 4), FinAbGroup.of(8))


def _witness(module, windows, offset=0):
    """Elements from coefficient windows [c_0, ..., c_(w-1)] at offset, offset + 1, ..."""
    return FiniteSubset.of(module, [
        module.element([((offset + i,), c) for i, c in enumerate(window) if any(c)])
        for window in windows])


def _three_points(d):
    """{0, delta_0, delta_1} over C_d."""
    m = ShiftModule(Z, FinAbGroup.of(d))
    return m, _witness(m, [[(0,), (0,)], [(1,), (0,)], [(0,), (1,)]])


@st.composite
def witnesses(draw, coeffs=COEFFS):
    coeff = draw(st.sampled_from(coeffs))
    width = draw(st.integers(1, 3))
    coefficient = st.tuples(*(st.integers(0, t - 1) for t in coeff.torsion))
    windows = draw(st.lists(st.lists(coefficient, min_size=width, max_size=width),
                            min_size=1, max_size=4))
    if draw(st.booleans()):
        windows.append([(0,) * len(coeff.torsion)] * width)
    module = ShiftModule(Z, coeff)
    return module, _witness(module, windows, draw(st.integers(-3, 3)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(witnesses())
def test_sofic_rows_match_rebuilt_orbit_sums(case):
    module, a = case
    seq = FolnerBoxes(Z, 8)
    est = ratio_sequence(module, a, LOG_CARD, seq)
    automaton = sofic.subset_automaton(a, LOG_CARD)
    assert [r.method for r in est.rows] == ["sofic" if automaton else "enumerated"] * len(est.rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subsets, "SET_CAP", CAP)
        for row in est.rows:
            try:
                rebuilt = orbit_sum(a, seq.box(row.n))
            except SetSizeLimitError:
                break
            assert row.value.count == len(rebuilt)
    if est.limit.kind == "sofic":
        # the proved base agrees with the growth of the counts themselves
        k = est.limit.ratio.value.count
        count = automaton.counts(400)[-1]
        assert abs(math.log(count) / 400 - math.log(k)) < 0.05


def test_full_shape_certified_with_a_thousand_rows():
    m, a = _three_points(2)
    start = time.perf_counter()
    est = ratio_sequence(m, a, LOG_CARD, FolnerBoxes(Z, 1000))
    assert time.perf_counter() - start < 1.0
    assert [r.value.count for r in est.rows[:4]] == [3, 7, 15, 31]
    assert est.rows[-1].value.count == 2 ** 1001 - 1
    assert all(r.method == "sofic" for r in est.rows) and est.truncated_at is None
    assert est.limit.kind == "sofic" and est.limit.exact
    assert str(est.limit.ratio) == "log 2"


def test_n_max_is_bounded():
    # sofic rows are never truncated, so the row count itself is bounded
    FolnerBoxes(Z, N_MAX_LIMIT)
    with pytest.raises(DomainError, match="n_max must lie in"):
        FolnerBoxes(Z, N_MAX_LIMIT + 1)


def test_golden_ratio_growth_gets_exact_rows_and_no_certificate():
    m, a = _three_points(3)
    est = ratio_sequence(m, a, LOG_CARD, FolnerBoxes(Z, 10))
    # every other Fibonacci number; lambda = (3 + sqrt 5) / 2
    assert [r.value.count for r in est.rows] == [3, 8, 21, 55, 144, 377, 987, 2584, 6765, 17711]
    assert est.limit.kind is None and not est.limit.exact


@pytest.mark.parametrize("windows", [
    [[(0,), (2,)], [(2,), (1,)], [(2,), (3,)]],
    [[(0,), (0,), (3,)], [(0,), (3,), (1,)], [(1,), (2,), (2,)]],
])
def test_integer_radius_with_uneven_out_degrees_is_solved_exactly(windows):
    # the component attaining 3 has out-degrees 2, 3 and 4, so its
    # Perron vector is not constant and comes from the exact solve
    m = ShiftModule(Z, FinAbGroup.of(4))
    est = ratio_sequence(m, _witness(m, windows), LOG_CARD, FolnerBoxes(Z, 6))
    assert [r.value.count for r in est.rows] == [3 ** n for n in range(1, 7)]
    assert est.limit.kind == "sofic" and str(est.limit.ratio) == "log 3"


@pytest.mark.parametrize("edges, base", [
    (((0, 1), (1, 1)), 2),        # radii 1 and 2
    (((0, 0, 1), (1, 1)), 2),     # two components attain 2
    (((1, 1), (0, 2), (2, 2, 2)), 3),  # a 2-cycle of radius sqrt 2 below 3
    (((0, 1), (1, 2), (1,)), None),  # radius (1 + sqrt 5) / 2
    (((0, 0, 1), (0,)), None),    # radius 1 + sqrt 2, above its rounding 2
])
def test_limit_base_on_small_automata(edges, base):
    assert sofic.SubsetAutomaton((1,) * len(edges), edges).limit_base() == base


def test_state_cap_falls_back_to_enumeration(monkeypatch):
    m, a = _three_points(2)
    seq = FolnerBoxes(Z, 8)
    counted = ratio_sequence(m, a, LOG_CARD, seq)
    monkeypatch.setattr(sofic, "STATE_CAP", 1)
    assert sofic.subset_automaton(a, LOG_CARD) is None
    est = ratio_sequence(m, a, LOG_CARD, seq)
    assert [r.method for r in est.rows] == ["enumerated"] * 8
    assert [r.value for r in est.rows] == [r.value for r in counted.rows]
    assert est.limit.kind is None


@pytest.mark.parametrize("module, spec", [
    (ShiftModule(FinAbGroup.free(2), FinAbGroup.of(2)), tors_log(2)),
    (ShiftModule(Z, FinAbGroup.free(1)), LOG_CARD),
    (ShiftModule(FinAbGroup.free(2), FinAbGroup.of(2)), LOG_CARD),
    (ShiftModule(FinAbGroup((2,), 1), FinAbGroup.of(2)), LOG_CARD),
])
def test_other_tables_are_enumerated(module, spec):
    a = FiniteSubset.of(module, [module.zero(), module.delta([1])])
    est = ratio_sequence(module, a, spec, FolnerBoxes(module.group, 3))
    assert not sofic.applies(module, spec)
    assert {r.method for r in est.rows} == {"enumerated"}


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(witnesses(TORSION_COEFFS), st.sampled_from((2, 3, 4)))
def test_torsion_rows_match_rebuilt_orbit_sums(case, k):
    module, a = case
    spec, seq = tors_log(k), FolnerBoxes(Z, 8)
    automaton = sofic.subset_automaton(a, spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subsets, "SET_CAP", CAP)
        try:
            est = ratio_sequence(module, a, spec, seq)
        except DomainError as counted:
            # a set that meets no k-torsion: the same error on both paths
            assert automaton is None or automaton.counts(1) == [0]
            with pytest.raises(DomainError) as rebuilt:
                eval_module_subset(spec, orbit_sum(a, seq.box(1)))
            assert str(counted) == str(rebuilt.value) == (
                f"set meets no {k}-torsion; the torsion length is undefined here")
            return
        assert [r.method for r in est.rows] == (
            ["sofic" if automaton else "enumerated"] * len(est.rows))
        for row in est.rows:
            try:
                rebuilt = orbit_sum(a, seq.box(row.n))
            except SetSizeLimitError:
                break
            assert row.value == eval_module_subset(spec, rebuilt)
    if est.limit.kind == "sofic":
        # the proved base agrees with the growth of the counts themselves
        counts = automaton.counts(400)
        base = est.limit.ratio.value.count
        assert abs(math.log(counts[399] / counts[199]) / 200 - math.log(base)) < 0.03


def test_torsion_state_cap_falls_back_to_enumeration(monkeypatch):
    m, a = _three_points(4)
    seq = FolnerBoxes(Z, 8)
    counted = ratio_sequence(m, a, tors_log(2), seq)
    monkeypatch.setattr(sofic, "STATE_CAP", 1)
    assert sofic.subset_automaton(a, tors_log(2)) is None
    est = ratio_sequence(m, a, tors_log(2), seq)
    assert [r.method for r in est.rows] == ["enumerated"] * 8
    assert [r.value for r in est.rows] == [r.value for r in counted.rows]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(witnesses((FinAbGroup.of(2), FinAbGroup.of(2, 2))))
def test_torsion_of_exponent_two_coefficients_is_log_card(case):
    # every element is 2-torsion: the same automaton, rows and certificate
    module, a = case
    seq = FolnerBoxes(Z, 8)
    torsion = sofic.subset_automaton(a, tors_log(2))
    full = sofic.subset_automaton(a, LOG_CARD)
    assert (torsion.sizes, torsion.edges) == (full.sizes, full.edges)
    est_torsion = ratio_sequence(module, a, tors_log(2), seq)
    est_full = ratio_sequence(module, a, LOG_CARD, seq)
    assert [r.value for r in est_torsion.rows] == [r.value for r in est_full.rows]
    assert est_torsion.limit == est_full.limit


def test_torsion_fibonacci_rows_with_a_thousand_rows():
    # {0, delta_0, delta_1} over C4: a word is 2-torsion when each choice
    # delta_1 is followed by delta_0 and each delta_0 follows delta_1, so
    # the choices tile by 0 and (delta_1, delta_0) and row n is the
    # Fibonacci number F_(n+1); lambda is the golden ratio, not an integer
    m, a = _three_points(4)
    start = time.perf_counter()
    est = ratio_sequence(m, a, tors_log(2), FolnerBoxes(Z, 1000))
    assert time.perf_counter() - start < 1.0
    fib = [1, 1]
    while len(fib) < 1001:
        fib.append(fib[-1] + fib[-2])
    assert [r.value.count for r in est.rows] == fib[1:1001]
    assert all(r.method == "sofic" for r in est.rows) and est.truncated_at is None
    assert est.limit.kind is None and not est.limit.exact


@pytest.mark.parametrize("windows, untrimmed_base", [
    # {0, delta_1, delta_0 + delta_1}
    ([[(0,), (0,)], [(0,), (1,)], [(1,), (1,)]], 1),
    # and 3 delta_0 + 3 delta_1: odd carries then loop with radius 2 but
    # never emit a 2-torsion tail, so only the live states bound the growth
    ([[(0,), (0,)], [(0,), (1,)], [(1,), (1,)], [(3,), (3,)]], 2),
])
def test_torsion_certificate_counts_only_live_states(windows, untrimmed_base):
    m = ShiftModule(Z, FinAbGroup.of(4))
    a = _witness(m, windows)
    automaton = sofic.subset_automaton(a, tors_log(2))
    assert 0 in automaton.sizes  # a state without a 2-torsion carry
    # the base the same edges give when every state counts as live
    every_state = sofic.SubsetAutomaton((1,) * len(automaton.sizes), automaton.edges)
    assert every_state.limit_base() == untrimmed_base
    est = ratio_sequence(m, a, tors_log(2), FolnerBoxes(Z, 8))
    assert [r.value.count for r in est.rows] == [1] * 8
    assert est.limit.kind == "sofic" and est.limit.exact
    assert str(est.limit.ratio) == "log 1"
