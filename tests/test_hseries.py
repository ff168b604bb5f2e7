from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import random

from dyntwist import (
    AdtElement,
    CdybElement,
    FormalTwist,
    GradingMismatch,
    HSeries,
    UEnvelope,
    schema,
)
from dyntwist.adt_dgla import adt_monomials
from dyntwist.hseries import SparseSeries
from dyntwist.tensor_spaces import cdyb_monomials

import reference_kernels
from conftest import CORPUS, is_canonical, nonab_data, sl2_data, sl2half_data

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


# -- the sparse element base, on each of its three element types -------------


def _adt(uea, a, b, order):
    return AdtElement(uea, 1, {((0,), ()): a, ((), (1,)): b}, order)


def _formal(uea, a, b, order):
    return FormalTwist(uea, 2, {((0,), (2,), (1,)): a, ((), (), ()): b},
                       order)


def _cdyb(uea, a, b, order):
    return CdybElement({((0, 2), (1,)): a, ((1,), ()): b}, order)


@pytest.mark.parametrize("build", [_adt, _formal, _cdyb])
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


@pytest.mark.parametrize("build", [_adt, _formal, _cdyb])
def test_a_coefficient_below_the_element_order_is_refused(sl2_uea, build):
    # every stored coefficient has exactly its element's order
    for low in (HSeries([1, 2], 1), HSeries.zero(N - 1)):
        with pytest.raises(GradingMismatch):
            build(sl2_uea, low, 3, N)
    # a longer series is truncated to the element's order
    E = build(sl2_uea, HSeries([1, 2, 0, -1, 5, 7], N + 1), 3, N)
    assert E.terms and all(c.order == N for c in E.terms.values())


@pytest.mark.parametrize("build", [_adt, _formal, _cdyb])
def test_scaling_by_a_shorter_series_truncates_to_its_order(sl2_uea, build):
    a = build(sl2_uea, HSeries([1, 2, 0, -1], N), Fraction(3), N)
    for m in range(N + 1):
        s = a.scale(HSeries.one(m))
        assert s.order == m
        assert all(c.order == m for c in s.terms.values())
        assert _snapshot(s) == _snapshot(a.truncate(m))
    s = a.scale(HSeries.hbar(2, 1))
    assert s.order == 2
    assert _snapshot(s) == _snapshot(
        build(sl2_uea, HSeries([0, 1, 2], 2), HSeries.hbar(2, 1, 3), 2))
    # a longer series keeps the element's order
    assert _snapshot(a.scale(HSeries.one(N + 2))) == _snapshot(a)


# -- closed arithmetic against the constructor ------------------------------
#
# Sums of one type and order, negation, nonzero rational scaling and
# `from_layers` store their terms without the constructor.  Each must
# store exactly what the constructor stores (`reference_kernels`): the
# same keys in the same order, the same element order and the same
# coefficient series, each of the element's order.


def _algebra(name):
    if name == "affxc2":
        return schema.parse_algebra(schema.load_file(CORPUS / "affxc2.alg"))
    return {"sl2": sl2_data, "nonab": nonab_data,
            "sl2half": sl2half_data}[name]()


def _snapshot(E):
    # equal values in canonical form have equal types
    assert all(is_canonical(a) for c in E.terms.values() for a in c.coeffs)
    return (type(E), getattr(E, "arity", None), E.order, [
        (k, c.order, c.coeffs) for k, c in E.terms.items()
    ])


def _space(kind, uea):
    """(cls, space values, key pool) of one element type."""
    lie = uea.lie
    if kind == "cdyb":
        return CdybElement, (), [
            key for d in range(3) for sh in range(3)
            for key in cdyb_monomials(lie, d, sh)
        ]
    cls = AdtElement if kind == "adt" else FormalTwist
    return cls, (uea, 2), [
        key for L in range(3) for key in adt_monomials(uea, 2, L)
    ]


def _random_series(rng, order):
    return HSeries([Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
                    for _ in range(order + 1)], order)


@pytest.mark.parametrize("name", ["sl2", "nonab", "affxc2", "sl2half"])
@pytest.mark.parametrize("kind", ["adt", "formal", "cdyb"])
def test_closed_arithmetic_stores_what_the_constructor_stores(kind, name):
    uea = UEnvelope(_algebra(name))
    cls, space, pool = _space(kind, uea)
    rng = random.Random(f"{kind}-{name}")

    def build(keys, order):
        return cls(*space, {k: _random_series(rng, order) for k in keys},
                   order)

    keys = rng.sample(pool, 8)
    A = build(keys[:6], N)
    B = build(keys[5:], N)
    # B cancels A's hbar^0 coefficient at one key and A's whole
    # coefficient at another
    a3, a4 = (A.terms.get(k, HSeries.zero(N)) for k in keys[3:5])
    B = B + cls(*space, {keys[3]: HSeries([-a3.coeff(0), 1], N),
                         keys[4]: -a4}, N)
    low = build(keys[2:5], 1)
    short = A.truncate(1)
    other_cls = {CdybElement: SparseSeries,
                 AdtElement: FormalTwist, FormalTwist: AdtElement}[cls]
    # for a formal twist, terms off its triangle
    other = other_cls(*space[:len(other_cls._space)],
                      {k: _random_series(rng, N) for k in keys[2:7]}, N)
    if kind == "formal":
        assert any(len(k[-1]) for k in A.terms)
    for P, Q in [(A, B), (B, A), (A, A), (A, low), (low, A), (short, B),
                 (B, short), (short, low), (A, other), (other, A)]:
        assert _snapshot(P + Q) == _snapshot(
            reference_kernels.sparse_sum(P, Q))
        assert _snapshot(P - Q) == _snapshot(
            reference_kernels.sparse_sum(P, Q, negate=True))
    assert (A - A).is_zero() and (A + (-A)).is_zero()
    for P in (A, B, low, short):
        assert _snapshot(-P) == _snapshot(reference_kernels.sparse_neg(P))
        for c in (Fraction(-3, 2), 2, 0, Fraction(0), HSeries.hbar(N, 1, 3),
                  HSeries.hbar(N, N), HSeries([0, 0], 1),
                  _random_series(rng, 2)):
            assert _snapshot(P.scale(c)) == _snapshot(
                reference_kernels.sparse_scale(P, c))
    for order, den in [(N, None), (1, None), (2, 6), (0, 4)]:
        layers = []
        for _ in range(order + 1):
            layers.append({
                k: rng.choice([-3, -1, 1, 2]) if den
                else Fraction(rng.choice([-3, -1, 1, 2]),
                              rng.choice([1, 2]))
                for k in rng.sample(pool, 4)
            })
        # a row that is zero in every layer is dropped
        zero = next(k for k in pool if all(k not in l for l in layers))
        layers[0][zero] = Fraction(0)
        got = cls.from_layers(*space, layers, den=den)
        ref = reference_kernels.from_layers(cls, *space, layers, den=den)
        assert got.order == order
        assert _snapshot(got) == _snapshot(ref)
    if kind in ("adt", "formal"):
        with pytest.raises(GradingMismatch):
            cls.from_layers(uea, 2, [{((), ()): Fraction(1)}])


# -- equality reads the stored terms ----------------------------------------
#
# `a == b` must say what the difference says: whether
# `reference_kernels.sparse_sum(a, b, negate=True)`, built through the
# constructor, is zero.  Each pair is compared both ways round, so an
# equality that reads only one element's keys fails.


@given(st.integers(0, N), st.integers(0, N), st.data())
def test_series_difference_is_the_sum_with_the_negation(m, n, data):
    a = data.draw(st.lists(fracs, max_size=m + 1).map(
        lambda cs: HSeries(cs, m)))
    b = data.draw(st.lists(fracs, max_size=n + 1).map(
        lambda cs: HSeries(cs, n)))
    d, s = a - b, a + (-b)
    assert (d.order, d.coeffs) == (s.order, s.coeffs)
    assert all(map(is_canonical, d.coeffs))


@pytest.mark.parametrize("name", ["sl2", "nonab", "affxc2", "sl2half"])
@pytest.mark.parametrize("kind", ["adt", "formal", "cdyb"])
def test_equality_is_a_zero_difference(kind, name):
    uea = UEnvelope(_algebra(name))
    cls, space, pool = _space(kind, uea)
    rng = random.Random(f"eq-{kind}-{name}")
    keys = rng.sample(pool, 7)
    coeffs = {k: _random_series(rng, N) for k in keys}
    # a formal twist keeps only its triangle, so compare what it stored
    A = cls(*space, {k: coeffs[k] for k in keys[:6]}, N)
    terms = dict(A.terms)
    same = cls(*space, dict(terms), N)
    extra = cls(*space, {**terms, keys[6]: HSeries.one(N)}, N)
    fewer = cls(*space, dict(list(terms.items())[1:]), N)
    moved = cls(*space, {**terms, next(iter(terms)): HSeries.hbar(N, 0, 7)},
                N)
    low = A.truncate(1)
    # A on the keys whose coefficient survives the truncation
    full = cls(*space, {k: terms[k] for k in low.terms}, N)
    low_moved = moved.truncate(1)
    zero = cls(*space, {}, N)
    pairs = [(A, A), (A, same), (A, extra), (A, fewer), (A, moved),
             (full, low), (full, low_moved), (A, low_moved), (A, low),
             (moved, low), (low, extra), (A, zero), (zero, cls(*space, {}, 1))]
    if kind in ("adt", "formal"):
        other_arity = cls(uea, 1, {}, N)
        pairs += [(zero, other_arity), (A, other_arity)]
    for P, Q in pairs:
        for X, Y in ((P, Q), (Q, P)):
            expected = reference_kernels.sparse_sum(X, Y, negate=True)
            assert (X == Y) is expected.is_zero()
            assert (X != Y) is not expected.is_zero()
    # the cases that must compare equal, and those that must not
    assert A == same and full == low and A == low
    assert zero == cls(*space, {}, 1)
    assert A != extra and A != fewer and A != moved
    assert full != low_moved
    for x in (A, low, zero):
        for one in (1, Fraction(1)):
            assert x.scale(one) is x
        for minus in (-1, Fraction(-1)):
            assert _snapshot(x.scale(minus)) == _snapshot(-x)
            assert _snapshot(x.scale(minus)) == _snapshot(
                reference_kernels.sparse_scale(x, minus))
