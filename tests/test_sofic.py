"""Sofic row counts and the sofic limit certificate.

The counts of mwl.sofic are compared with orbit sums rebuilt from whole
boxes, `orbit_sum(a, seq.box(n))`, on every row below a lowered set cap.
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
from mwl.meanlen import N_MAX_LIMIT, FolnerBoxes, ratio_sequence
from mwl.subsets import FiniteSubset
from mwl.weaklength import LOG_CARD, tors_log

Z = FinAbGroup.free(1)
CAP = 2000
COEFFS = (FinAbGroup.of(2), FinAbGroup.of(3), FinAbGroup.of(4), FinAbGroup.of(2, 2))


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
def witnesses(draw):
    coeff = draw(st.sampled_from(COEFFS))
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
    automaton = sofic.subset_automaton(a)
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
    assert sofic.subset_automaton(a) is None
    est = ratio_sequence(m, a, LOG_CARD, seq)
    assert [r.method for r in est.rows] == ["enumerated"] * 8
    assert [r.value for r in est.rows] == [r.value for r in counted.rows]
    assert est.limit.kind is None


@pytest.mark.parametrize("module, spec", [
    (ShiftModule(Z, FinAbGroup.of(2)), tors_log(2)),
    (ShiftModule(Z, FinAbGroup.free(1)), LOG_CARD),
    (ShiftModule(FinAbGroup.free(2), FinAbGroup.of(2)), LOG_CARD),
    (ShiftModule(FinAbGroup((2,), 1), FinAbGroup.of(2)), LOG_CARD),
])
def test_other_tables_are_enumerated(module, spec):
    a = FiniteSubset.of(module, [module.zero(), module.delta([1])])
    est = ratio_sequence(module, a, spec, FolnerBoxes(module.group, 3))
    assert not sofic.applies(module, spec)
    assert {r.method for r in est.rows} == {"enumerated"}
