"""Elements of groups and shift modules across ambients, and the set cap.

An element belongs to exactly one ambient object.  Arithmetic, subset
construction, homomorphisms and translations given an element of another
ambient raise DomainError; only the error type is pinned, not the message.
"""

import pytest

from mwl import subsets
from mwl.errors import DomainError, SetSizeLimitError
from mwl.finabelian import AbHom, FinAbGroup
from mwl.groupring import ShiftModule, gr_translate
from mwl.subsets import FiniteSubset, minkowski_sum, union

C4 = FinAbGroup.of(4)
Z = FinAbGroup.free(1)
Z2 = FinAbGroup.free(2)
M2 = ShiftModule(Z, FinAbGroup.of(2))
M3 = ShiftModule(Z, FinAbGroup.of(3))


@pytest.mark.parametrize("x, y", [
    (C4.element([1]), Z.element([1])),
    (Z.element([1]), C4.element([1])),
    (M2.delta([1]), M3.delta([1])),
    (M3.delta([1], at=(2,)), M2.delta([1])),
], ids=["C4+Z", "Z+C4", "M2+M3", "M3+M2"])
def test_arithmetic_across_two_ambients_of_one_kind_raises(x, y):
    with pytest.raises(DomainError):
        x + y
    with pytest.raises(DomainError):
        x - y


@pytest.mark.parametrize("ambient, stranger", [
    (C4, Z.element([1])),
    (Z, C4.element([1])),
    (M2, M3.delta([1])),
    (M2, Z.element([0])),
    (C4, (1,)),
    (M2, ()),
], ids=["C4<-Z", "Z<-C4", "M2<-M3", "M2<-Z", "C4<-tuple", "M2<-tuple"])
def test_subset_of_rejects_an_element_of_another_ambient(ambient, stranger):
    with pytest.raises(DomainError):
        FiniteSubset.of(ambient, [ambient.zero(), stranger])


def test_hom_rejects_an_element_of_another_group():
    with pytest.raises(DomainError):
        AbHom.identity(C4)(Z.element([1]))
    with pytest.raises(DomainError):
        AbHom.scalar(Z, 2)(Z2.element([1, 0]))


def test_action_shift_rejects_an_element_outside_the_acting_group():
    with pytest.raises(DomainError):
        M2.action_shift(Z2.element([1, 0]))
    with pytest.raises(DomainError):
        M2.action_shift(C4.element([1]))
    with pytest.raises(DomainError):
        gr_translate(Z2.element([0, 1]), FiniteSubset.of(M2, [M2.delta([1])]))


@pytest.mark.parametrize("x, y", [
    (C4.element([1]), M2.delta([1])),
    (M2.delta([1]), C4.element([1])),
    (Z.element([0]), M2.zero()),
], ids=["C4+M2", "M2+C4", "Z+M2"])
def test_group_element_with_module_element_raises(x, y):
    with pytest.raises(DomainError):
        x + y
    with pytest.raises(DomainError):
        x - y


def test_every_growing_constructor_enforces_the_cap(monkeypatch):
    monkeypatch.setattr(subsets, "SET_CAP", 5)
    low = FiniteSubset.from_items(Z, [(i,) for i in range(4)])
    high = FiniteSubset.from_items(Z, [(i,) for i in range(4, 8)])
    with pytest.raises(SetSizeLimitError):
        minkowski_sum(low, high)
    with pytest.raises(SetSizeLimitError):
        union(low, high)
    with pytest.raises(SetSizeLimitError):
        FiniteSubset.of(Z, [Z.element([i]) for i in range(9)])
    assert len(union(low, low)) == 4
    assert len(FiniteSubset.of(Z, [Z.element([i % 5]) for i in range(9)])) == 5
