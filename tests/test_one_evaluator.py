"""One weak-length evaluator for group and module subsets.

`eval_weak_length` reads module items through the same coordinate view
(`_moduli`, `_terms`) as group items.  The reference here is the
embedded path: `embed_subset` maps the module subset into one abelian
group, where the same weak length is evaluated on group elements.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwl.cli import run
from mwl.errors import ConfigurationError, DomainError
from mwl.finabelian import AbHom, FinAbGroup
from mwl.groupring import ShiftModule, coeff_quotient, embed_subset, principal_quotient
from mwl.meanlen import (
    FolnerBoxes,
    _scalar_multiples_witness,
    eval_module_subset,
    product_structure_value,
    ratio_sequence,
)
from mwl.subsets import FiniteSubset
from mwl.values import LengthValue
from mwl.weaklength import GEN, LOG_CARD, NU, RANK, eval_weak_length, tors_log

Z = FinAbGroup.free(1)
Z2 = FinAbGroup.free(2)
# factors of FinAbGroup.of; 0 is a copy of Z
COEFFS = {"C2": (2,), "C4": (4,), "C2xC4": (2, 4), "C6": (6,), "Z": (0,), "ZxC2": (0, 2)}
SPECS = [LOG_CARD, RANK, NU] + [tors_log(k) for k in (1, 2, 3, 4)]


def _outcome(spec, ambient, subset):
    try:
        return eval_weak_length(spec, ambient, subset)
    except DomainError as exc:
        return str(exc)


def _coords(draw, group, free_values):
    return [draw(st.integers(0, t - 1)) for t in group.torsion] + [
        draw(free_values) for _ in range(group.free_rank)]


@st.composite
def _element(draw, module):
    """A module element with one to three (point, coefficient) pairs."""
    return module.element(
        [(_coords(draw, module.support_group, st.integers(0, 3)),
          _coords(draw, module.coeff, st.integers(-3, 3)))
         for _ in range(draw(st.integers(1, 3)))])


@st.composite
def module_subsets(draw):
    """A subset of a plain, action, coeff_quotient or finite
    principal-quotient module."""
    kind = draw(st.sampled_from(["plain", "action", "coeff_quotient", "principal"]))
    if kind == "principal":
        # prime-field coefficients; one nonzero generator leaves a finite quotient
        plain = ShiftModule(Z, FinAbGroup.of(draw(st.sampled_from([2, 3]))))
        f = draw(_element(plain).filter(lambda x: not x.is_zero()))
        _, project = principal_quotient(plain, [f])
    else:
        coeff = FinAbGroup.of(*COEFFS[draw(st.sampled_from(sorted(COEFFS)))])
        if kind == "plain":
            plain = ShiftModule(FinAbGroup((2,), 1), coeff)
        elif kind == "action":
            plain = ShiftModule(Z2, coeff, action=AbHom.from_rows(Z2, Z, [[1], [0]]))
        else:
            plain = ShiftModule(Z, coeff)
        if kind == "coeff_quotient":
            generator = _coords(draw, coeff, st.integers(-3, 3))
            _, project = coeff_quotient(plain, [generator])
        else:
            def project(x):
                return x
    elements = draw(st.lists(_element(plain), min_size=1, max_size=5))
    if draw(st.booleans()):
        elements.append(plain.zero())
    images = [project(x) for x in elements]
    return FiniteSubset.of(images[0].ambient, images)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(module_subsets(), st.sampled_from(SPECS))
def test_module_subsets_match_the_embedded_reference(subset, spec):
    value = _outcome(spec, subset.ambient, subset)
    assert value == _outcome(spec, *embed_subset(subset))
    if not isinstance(value, str):
        assert eval_module_subset(spec, subset) == value
    if spec.kind == "tors_log":
        # element arithmetic, without the coordinate view
        count = sum((spec.k * x).is_zero() for x in subset)
        assert value == (LengthValue.log_count(count) if count else
                         f"set meets no {spec.k}-torsion; the torsion length is undefined here")


def _minors_vanish(module, a):
    """The former test: every 2x2 minor of the coefficient vectors
    vanishes (mod p over F_p), i.e. their span has rank at most 1."""
    modulus = module.coeff.torsion[0] if module.coeff.torsion else 0
    points = sorted({g for item in a.items for g, _ in item})
    index = {g: i for i, g in enumerate(points)}
    vectors = []
    for item in a.items:
        vec = [0] * len(points)
        for g, c in item:
            vec[index[g]] = c[0]
        vectors.append(vec)
    for x in vectors:
        for y in vectors:
            for i in range(len(points)):
                for j in range(i + 1, len(points)):
                    minor = x[i] * y[j] - x[j] * y[i]
                    if (minor % modulus) if modulus else minor:
                        return False
    return True


@st.composite
def width_one_witnesses(draw):
    """Scalar multiples of one element over Z, F2 or F5, sometimes with
    one more element that may leave the line."""
    module = ShiftModule(Z, FinAbGroup.of(draw(st.sampled_from([0, 2, 5]))))
    base = draw(_element(module))
    elements = [draw(st.integers(-4, 4)) * base for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        elements.append(draw(_element(module)))
    return module, FiniteSubset.of(module, elements)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(width_one_witnesses())
def test_scalar_multiples_witness_matches_the_minor_test(case):
    module, a = case
    assert _scalar_multiples_witness(module, a) == _minors_vanish(module, a)


def test_rank_two_witness_gets_no_product_structure_certificate():
    for factor in (0, 5):
        m = ShiftModule(Z, FinAbGroup.of(factor))
        a = FiniteSubset.of(m, [m.zero(), m.delta([1]), m.delta([1], at=(1,))])
        assert not _scalar_multiples_witness(m, a) and not _minors_vanish(m, a)
        assert product_structure_value(m, a, LOG_CARD) is None
        est = ratio_sequence(m, a, LOG_CARD, FolnerBoxes(Z, 4))
        assert est.limit.kind != "product-structure"


def _infinite_principal_quotient():
    # F2[t, 1/t]^2 / (e0 + t e1) is F2[t, 1/t]: infinite, and e0 = t e1 there
    m = ShiftModule(Z, FinAbGroup.of(2, 2))
    f = m.element([((0,), (1, 0)), ((1,), (0, 1))])
    quot, _ = principal_quotient(m, [f])
    assert quot.cardinality() == float("inf")
    return quot


def test_span_of_a_set_in_an_infinite_principal_quotient():
    quot = _infinite_principal_quotient()
    # e1, t e1 and e0 = t e1 span an F2-space of dimension 2
    a = FiniteSubset.of(quot, [quot.zero(), quot.delta([0, 1]),
                               quot.delta([0, 1], at=(1,)), quot.delta([1, 0])])
    assert eval_module_subset(RANK, a).q == 0
    assert eval_module_subset(NU, a).q == 2
    # gen reads the span off the same lattice: F2^2 needs two generators
    assert eval_module_subset(GEN, a).q == 2


def test_ratio_table_in_an_infinite_principal_quotient_is_one_configuration_error(
        capsys, tmp_path):
    quot = _infinite_principal_quotient()
    a = FiniteSubset.of(quot, [quot.zero(), quot.delta([0, 1])])
    for spec in (LOG_CARD, RANK, NU):
        with pytest.raises(ConfigurationError,
                           match="canonical forms with negative support need a finite quotient"):
            ratio_sequence(quot, a, spec, FolnerBoxes(Z, 3))
    scenario = {
        "module": {
            "group": {"free_rank": 1, "torsion": []},
            "coeff": {"free_rank": 0, "torsion": [2, 2]},
            "quotient": {"closure": "principal_z", "p": 2,
                         "generators": [[[[0], [1, 0]], [[1], [0, 1]]]]},
        },
        "weak_length": {"kind": "nu"},
        "witness": [[], [[[0], [0, 1]]]],
        "folner": {"kind": "boxes", "n_max": 3},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code = run(["mean", "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(
        "error: canonical forms with negative support need a finite quotient")


def test_module_torsion_length_names_k_when_undefined():
    m = ShiftModule(Z, FinAbGroup.of(4))
    a = FiniteSubset.of(m, [m.delta([1]), m.delta([3], at=(2,))])
    with pytest.raises(DomainError) as err:
        eval_module_subset(tors_log(2), a)
    assert str(err.value) == "set meets no 2-torsion; the torsion length is undefined here"
