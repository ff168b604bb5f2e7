import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import random

from dyntwist import (
    AdtElement,
    CdybElement,
    FormalTwist,
    GradingMismatch,
    UEnvelope,
    schema,
)
from dyntwist.adt_dgla import adt_monomials
from dyntwist.hseries import SparseSeries
from dyntwist.tensor_spaces import cdyb_monomials

from ring import HSeries, ring_terms
import reference_kernels
from reference_kernels import series_coeff, series_truncate
from conftest import (
    CORPUS, formal_twist, hbar_terms, is_canonical, nonab_data, sl2_data,
    sl2half_data,
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
    assert series_coeff(HSeries.constant(1, N), 0) == 1
    assert series_coeff(HSeries.constant(Fraction(3, 2), N), 0) \
        == Fraction(3, 2)
    h2 = HSeries.hbar(N, 2, 5)
    assert series_coeff(h2, 2) == 5 and series_coeff(h2, 0) == 0
    assert HSeries.hbar(N, N + 1).is_zero()


def test_valuation():
    assert HSeries.zero(N).valuation() is None
    assert HSeries.hbar(N, 3).valuation() == 3
    assert HSeries.constant(1, N).valuation() == 0


@given(series, series, series)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + HSeries.zero(N) == a
    assert a * HSeries.constant(1, N) == a
    assert (a - a).is_zero()


@given(series)
def test_truncation_is_multiplicative(a):
    h = HSeries.hbar(N, 1)
    assert series_coeff(a * h, 0) == 0
    for n in range(N):
        assert series_coeff(a * h, n + 1) == series_coeff(a, n)


def test_mixed_orders_truncate_down():
    a = HSeries.constant(1, 6)
    b = HSeries.hbar(2, 1)
    assert (a + b).order == 2
    assert (a * b).order == 2


def test_shift_and_truncate():
    a = HSeries([1, 2, 3], N)
    s = HSeries.hbar(N, 2) * a
    assert s.order == N
    assert series_coeff(s, 2) == 1 and series_coeff(s, 3) == 2
    t = series_truncate(a, 1)
    assert t.order == 1 and series_coeff(t, 1) == 2


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


def test_a_zero_of_another_arity_keeps_the_smaller_order(sl2_uea):
    # a zero of any arity is a neutral summand, but like every sum, the
    # result truncates to the smaller order
    X = _adt(sl2_uea, HSeries([1, 2, 0, -1, 5, 7], 5), 3, 5)
    for arity in (1, 2):
        low = AdtElement.zero(sl2_uea, arity, 3)
        for s in (X + low, low + X):
            assert _snapshot(s) == _snapshot(X.truncate(3))
        assert _snapshot(low - X) == _snapshot(-X.truncate(3))
        assert _snapshot(X - low) == _snapshot(X.truncate(3))
        assert _snapshot(X + AdtElement.zero(sl2_uea, arity, 7)) == \
            _snapshot(X)


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
        s = a.scale(HSeries.constant(1, m))
        assert s.order == m
        assert all(c.order == m for c in s.terms.values())
        assert _snapshot(s) == _snapshot(a.truncate(m))
    s = a.scale(HSeries.hbar(2, 1))
    assert s.order == 2
    assert _snapshot(s) == _snapshot(
        build(sl2_uea, HSeries([0, 1, 2], 2), HSeries.hbar(2, 1, 3), 2))
    # a longer series keeps the element's order
    assert _snapshot(a.scale(HSeries.constant(1, N + 2))) == _snapshot(a)


# -- closed arithmetic against the constructor ------------------------------
#
# Sums, negation, scaling and `from_layers` build their layers without
# the constructor.  Each must store what the constructor stores
# (`reference_kernels`): the same element order, order + 1 layers and, in
# each layer, the same keys with the same values of the same types.  The
# key order of each layer is pinned as well (`_layer_order`): a sum keeps
# the first operand's keys in their order and appends the second's new
# ones, negation and rational scaling keep the operand's order, scaling
# by an HSeries collects self.layers[n - i] for ascending powers i, and
# `from_layers` keeps its input's order.


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


def _stored(E):
    """Element order and, per layer, {key: (value, value type)}."""
    assert len(E.layers) == E.order + 1
    assert all(a and is_canonical(a) for layer in E.layers
               for a in layer.values())
    return (type(E), getattr(E, "arity", None), E.order,
            [{k: (a, type(a)) for k, a in layer.items()}
             for layer in E.layers])


def _layer_order(E, sources):
    """Whether each layer n of E lists its keys in order of first
    appearance over the dicts sources(n)."""
    for n, layer in enumerate(E.layers):
        seen = dict.fromkeys(k for d in sources(n) for k in d)
        if list(layer) != [k for k in seen if k in layer]:
            return False
    return True


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
    a3, a4 = (ring_terms(A).get(k, HSeries.zero(N)) for k in keys[3:5])
    B = B + cls(*space, {keys[3]: HSeries([-series_coeff(a3, 0), 1], N),
                         keys[4]: -a4}, N)
    low = build(keys[2:5], 1)
    short = A.truncate(1)
    other_cls = {CdybElement: SparseSeries,
                 AdtElement: FormalTwist, FormalTwist: AdtElement}[cls]
    # an element of the other class: sums read the layers alone
    other = other_cls(*(space if other_cls is not SparseSeries else ()),
                      {k: _random_series(rng, N) for k in keys[2:7]}, N)
    if kind == "formal":
        assert any(len(k[-1]) for k in A.terms)
    for P, Q in [(A, B), (B, A), (A, A), (A, low), (low, A), (short, B),
                 (B, short), (short, low), (A, other), (other, A)]:
        for negate in (False, True):
            got = P - Q if negate else P + Q
            assert _stored(got) == _stored(
                reference_kernels.sparse_sum(P, Q, negate=negate))
            assert _layer_order(got, lambda n: (P.layers[n], Q.layers[n]))
    assert (A - A).is_zero() and (A + (-A)).is_zero()
    for P in (A, B, low, short):
        assert _stored(-P) == _stored(reference_kernels.sparse_neg(P))
        assert _layer_order(-P, lambda n: (P.layers[n],))
        for c in (Fraction(-3, 2), 2, 0, Fraction(0), HSeries.hbar(N, 1, 3),
                  HSeries.hbar(N, N), HSeries([0, 0], 1),
                  _random_series(rng, 2)):
            got = P.scale(c)
            assert _stored(got) == _stored(
                reference_kernels.sparse_scale(P, c))
            powers = c.coeffs if isinstance(c, HSeries) else (c,)
            assert _layer_order(got, lambda n: [
                P.layers[n - i] for i in range(min(n + 1, len(powers)))
                if powers[i]])
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
        assert _stored(got) == _stored(ref)
        assert _layer_order(got, lambda n: (layers[n],))
        # its layer terms are its layers one after the other, with the
        # values the constructor's element stores
        entries = [(k, a, n) for n, layer in enumerate(got.layers)
                   for k, a in layer.items()]
        assert [(t, type(t[1])) for t in got.layer_terms()] == [
            (t, type(t[1])) for t in entries]
        assert sorted(map(repr, got.layer_terms())) == sorted(
            map(repr, ref.layer_terms()))
    if kind in ("adt", "formal"):
        for layers in ([{((), ()): Fraction(1)}], [{}, {((), ()): 1}]):
            with pytest.raises(GradingMismatch):
                cls.from_layers(uea, 2, layers)


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
    extra = cls(*space, {**terms, keys[6]: HSeries.constant(1, N)}, N)
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


# -- every closed operation against the references, through `terms` --------
#
# Random elements of each type at orders 0-4 on a small key pool (so that
# keys collide), with Fraction values and zeros, a second operand that
# cancels some of the first one's coefficients, and, for a formal twist,
# legs that reach off the triangle, drawn in hbar (`formal_twist`).  Each
# operation on the layers must give the element the HSeries reference
# builds through the constructor, read through the `terms` view.


@functools.cache
def _sl2_uea():
    return UEnvelope(sl2_data())


def _sl2_space(kind):
    cls, space, pool = _space(kind, _sl2_uea())
    return cls, space, pool[:12]


small = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3),
                         Fraction(3, 2)])


def _view(E):
    """Element order and {key: (series order, coefficients)}, checking
    the layer invariants on the way.  A formal twist stores layer w =
    hbar order + leg degree, so `_stored`'s order + 1 layers are its
    triangle."""
    _stored(E)
    return (type(E), getattr(E, "arity", None), E.order,
            {k: (c.order, c.coeffs) for k, c in E.terms.items()})


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["adt", "formal", "cdyb"]), st.integers(0, N),
       st.integers(0, N), st.data())
def test_closed_operations_match_the_references(kind, m, n, data):
    cls, space, pool = _sl2_space(kind)

    def element(order, cancel=None):
        keys = data.draw(st.lists(st.sampled_from(pool), max_size=5,
                                  unique=True))
        terms = {k: HSeries(data.draw(st.lists(small, min_size=order + 1,
                                               max_size=order + 1)), order)
                 for k in keys}
        # cancel some of another element's coefficients, whole or in part
        for k, c in (read(cancel) if cancel else {}).items():
            if data.draw(st.booleans()):
                neg = [-a for a in c.coeffs]
                if data.draw(st.booleans()):
                    neg[0] += 1
                terms[k] = HSeries(neg, order)
        if cls is FormalTwist:
            return formal_twist(*space, terms, order)
        return cls(*space, terms, order)

    def read(E):
        return hbar_terms(E) if cls is FormalTwist else E.terms

    def build(terms, order):
        return cls(*space, terms, order)

    P = element(m)
    Q = element(n, cancel=P)
    for X, Y in ((P, Q), (Q, P), (P, P)):
        assert _view(X + Y) == _view(reference_kernels.sparse_sum(X, Y))
        diff = reference_kernels.sparse_sum(X, Y, negate=True)
        assert _view(X - Y) == _view(diff)
        assert (X == Y) is (not diff.terms)
        assert (X.value_key() == Y.value_key()) is (_view(X) == _view(Y))
    assert _view(-P) == _view(reference_kernels.sparse_neg(P))
    for c in (0, 1, -1, Fraction(1), Fraction(-1), data.draw(small),
              HSeries(data.draw(st.lists(small, max_size=N + 2)),
                      data.draw(st.integers(0, N + 1)))):
        got = P.scale(c)
        assert _view(got) == _view(reference_kernels.sparse_scale(P, c))
        if c == 1 and not isinstance(c, HSeries):
            assert got is P
    for k in range(N + 2):
        assert _view(P.truncate(k)) == _view(build(
            {key: series_truncate(c, k) for key, c in P.terms.items()},
            min(k, P.order)))
        assert _view(P.shift(k)) == _view(
            reference_kernels.sparse_scale(P, HSeries.hbar(P.order, k)))
        layer = {key: series_coeff(c, k) for key, c in P.terms.items()
                 if series_coeff(c, k)}
        assert P.layer(k) == layer
        assert _view(P.hbar_component(k)) == _view(build(layer, P.order))
    assert P.hbar_valuation() == min(
        (c.valuation() for c in P.terms.values()), default=None)
    assert P.is_zero() is (not P.terms)
    assert sorted(P.keys()) == sorted(P.terms)
    for key, c in ring_terms(P).items():
        assert P.series_repr(key) == repr(c)
    # from_layers, with zeros, Fraction values and a common denominator
    den = data.draw(st.sampled_from([None, 1, 6]))
    layers = [{k: data.draw(st.integers(-3, 3)) if den
               else data.draw(small)
               for k in data.draw(st.lists(st.sampled_from(pool),
                                           max_size=4, unique=True))}
              for _ in range(m + 1)]
    assert _view(cls.from_layers(*space, layers, den=den)) == _view(
        reference_kernels.from_layers(cls, *space, layers, den=den))


# -- the caches of every construction path ----------------------------------
#
# An element's `layer_terms()` and `int_layer_terms()` are built on their
# first read and kept.  Every path that builds an element must start them
# afresh: each is compared with a recomputation from the stored layers,
# after the operands' own caches have been read, so a path that carried
# an operand's cache over would show.


def _fresh_layer_terms(E):
    """(layer_terms, (D, int entries)) recomputed from E.layers."""
    entries = [(k, a, n)
               for n, layer in enumerate(E.layers) for k, a in layer.items()]
    den = 1
    for _, a, _ in entries:
        d = Fraction(a).denominator
        den = den * d // math.gcd(den, d)
    ints = [(k, int(a * den), n) for k, a, n in entries]
    return entries, (den, ints)


def _typed(entries):
    return [(t, type(t[1])) for t in entries]


@pytest.mark.parametrize("name", ["sl2", "affxc2"])
@pytest.mark.parametrize("kind", ["adt", "formal", "cdyb"])
def test_every_construction_path_starts_fresh_layer_terms(kind, name):
    uea = UEnvelope(_algebra(name))
    cls, space, pool = _space(kind, uea)
    rng = random.Random(f"caches-{kind}-{name}")
    keys = rng.sample(pool, 8)
    A = cls(*space, {k: _random_series(rng, N) for k in keys[:5]}, N)
    B = cls(*space, {k: _random_series(rng, N) for k in keys[3:]}, N)
    # the int path of the constructor, a zero coefficient included
    C = cls(*space, {k: rng.choice([-2, -1, 0, 1, 3]) for k in keys}, N)
    for E in (A, B, C):
        E.layer_terms()
        E.int_layer_terms()
    int_layers = [{k: rng.choice([-3, -1, 1, 2]) for k in rng.sample(pool, 4)}
                  for _ in range(N + 1)]
    frac_layers = [{k: Fraction(rng.choice([-3, -1, 1, 2]),
                                rng.choice([1, 2, 3]))
                    for k in rng.sample(pool, 4)} for _ in range(N + 1)]
    built = {
        "constructor": A, "int constructor": C,
        "from_layers": cls.from_layers(*space, int_layers),
        "from_layers rational": cls.from_layers(*space, frac_layers),
        "from_layers den": cls.from_layers(*space, int_layers, den=6),
        "sum": A + B, "difference": A - B, "mixed sum": A + B.truncate(2),
        "negation": -A,
        "scale 0": A.scale(0), "scale 1": A.scale(1),
        "scale -1": A.scale(-1), "scale rational": A.scale(Fraction(-3, 2)),
        "scale series": A.scale(_random_series(rng, 3)),
        "truncate": A.truncate(2), "shift": A.shift(1),
        "hbar_component": A.hbar_component(1),
        "map_keys": A.map_keys(
            lambda k: ((k, 1, Fraction(1, 2)), (keys[0], 0, 3)),
            cls, *space),
    }
    for path, E in built.items():
        entries, (den, ints) = _fresh_layer_terms(E)
        assert _typed(E.layer_terms()) == _typed(entries), path
        got_den, got = E.int_layer_terms()
        assert got_den == den, path
        assert _typed(got) == _typed(ints), path
        assert all(type(t[1]) is int for t in got), path
    assert built["from_layers den"].int_layer_terms()[0] > 1
    assert built["int constructor"].int_layer_terms()[0] == 1


@pytest.mark.parametrize("kind", ["adt", "formal"])
def test_from_layers_refuses_a_key_of_the_wrong_width(kind):
    # in any layer, alone or among keys of the right width, with and
    # without a common denominator
    uea = _sl2_uea()
    cls, space, pool = _space(kind, uea)
    good = {k: 1 for k in pool[:3]}
    for bad in (((), ()), ((), (), (), ())):
        for n in range(3):
            for layer in ({bad: 1}, {**dict(list(good.items())[:1]), bad: 2,
                                     **good}):
                layers = [dict(good) for _ in range(3)]
                layers[n] = layer
                for den in (None, 2):
                    with pytest.raises(GradingMismatch):
                        cls.from_layers(*space, layers, den=den)


@pytest.mark.parametrize("kind", ["adt", "formal"])
def test_constructor_checks_every_key(kind):
    # a zero coefficient is dropped, but its key is still checked, on the
    # int path as on the others
    cls, space, pool = _space(kind, _sl2_uea())
    for bad in (((), ()), ((), (), (), ())):
        for c in (0, 3, Fraction(0), Fraction(1, 2), HSeries.zero(N)):
            with pytest.raises(GradingMismatch):
                cls(*space, {pool[0]: 1, bad: c}, N)
