from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dyntwist import (
    AdtElement,
    CdybElement,
    FormalTwist,
    HSeries,
    NotInvertible,
    PbwElement,
)

N = 4

fracs = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
series = st.lists(fracs, min_size=0, max_size=N + 1).map(
    lambda cs: HSeries(cs, N)
)


def test_constructors():
    assert HSeries.zero(N).is_zero()
    assert HSeries.one(N).coeff(0) == 1
    assert HSeries.constant(Fraction(3, 2), N).coeff(0) == Fraction(3, 2)
    h2 = HSeries.hbar(N, 2, 5)
    assert h2.coeff(2) == 5 and h2.coeff(0) == 0
    assert HSeries.hbar(N, N + 1).is_zero()


def test_valuation():
    assert HSeries.zero(N).valuation() is None
    assert HSeries.hbar(N, 3).valuation() == 3
    assert HSeries.one(N).valuation() == 0


@given(series, series, series)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + HSeries.zero(N) == a
    assert a * HSeries.one(N) == a
    assert (a - a).is_zero()


@given(series)
def test_truncation_is_multiplicative(a):
    h = HSeries.hbar(N, 1)
    assert (a * h).coeff(0) == 0
    for n in range(N):
        assert (a * h).coeff(n + 1) == a.coeff(n)
    assert a.shift(1) == a * h


@given(series)
def test_inverse(a):
    if a.is_unit():
        assert a * a.inverse() == HSeries.one(N)
    else:
        with pytest.raises(NotInvertible):
            a.inverse()


def test_mixed_orders_truncate_down():
    a = HSeries.one(6)
    b = HSeries.hbar(2, 1)
    assert (a + b).order == 2
    assert (a * b).order == 2


def test_shift_and_truncate():
    a = HSeries([1, 2, 3], N)
    assert a.shift(2).coeff(2) == 1 and a.shift(2).coeff(3) == 2
    t = a.truncate(1)
    assert t.order == 1 and t.coeff(1) == 2


# -- the sparse element base, on each of its four element types -------------


def _pbw(uea, a, b, order):
    return PbwElement(uea, {(0, 2): a, (1,): b}, order)


def _adt(uea, a, b, order):
    return AdtElement(uea, 1, {((0,), ()): a, ((), (1,)): b}, order)


def _formal(uea, a, b, order):
    return FormalTwist(uea, 2, {((0,), (2,), (1,)): a, ((), (), ()): b},
                       order)


def _cdyb(uea, a, b, order):
    return CdybElement({((0, 2), (1,)): a, ((1,), ()): b}, order)


@pytest.mark.parametrize("build", [_pbw, _adt, _formal, _cdyb])
def test_sparse_element_arithmetic(sl2_uea, build):
    F = Fraction
    a = build(sl2_uea, HSeries([1, 2, 0, -1], N), F(3), N)
    zero = build(sl2_uea, 0, 0, N)
    assert zero.is_zero()
    assert (a + (-a)).is_zero()
    assert a - a == zero
    assert a.scale(F(1, 2)) == build(
        sl2_uea, HSeries([F(1, 2), 1, 0, F(-1, 2)], N), F(3, 2), N
    )
    assert a.scale(HSeries.hbar(N, 2)) == build(
        sl2_uea, HSeries([0, 0, 1, 2], N), HSeries.hbar(N, 2, 3), N
    )
    # the hbar layers sum back to the element
    assert a.hbar_valuation() == 0
    assert sorted(a.layer(1).values()) == [2]
    total = zero
    for n in range(N + 1):
        total = total + a.hbar_component(n).scale(HSeries.hbar(N, n))
    assert total == a
    # a sum of mixed orders truncates every coefficient to the smaller
    low = build(sl2_uea, HSeries([0, 1], 1), 0, 1)
    for s in (a + low, low + a):
        assert s.order == 1
        assert all(c.order == 1 for c in s.terms.values())
        assert s == build(sl2_uea, HSeries([1, 3], 1), F(3), 1)
    with pytest.raises(TypeError):
        hash(a)
