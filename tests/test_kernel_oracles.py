"""b, cup, brace and both twist residuals against their oracles, drawn.

The kernels read a PBW join off the boundary letters of its words, keep
integer sums as they are over an integral envelope, lay out brace
placements once per arity signature and form the Maurer-Cartan residual
in one pass.  Each must still give what the oracles in
reference_kernels.py give: the same values, the same value types (int or
Fraction) and the same key order in every layer.  The draws cover the
four corpus algebras and sl2half, whose structure constant 1/2 keeps the
checked path of `from_layers`; elements mix hbar powers, integral and
rational values, and twists whose layer 0 has the unit key with any
coefficient, or none.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dyntwist import schema
from dyntwist.adt_dgla import (
    AdtElement,
    adt_monomials,
    adte_residual,
    brace,
    cup,
    differential_b,
    mc_residual,
)
from dyntwist.hseries import add_into
from dyntwist.uea import UEnvelope

import reference_kernels
from conftest import CORPUS, same_layers, sl2half_data

ALGEBRAS = ["sl2", "abelian2", "affxc2", "nonab", "sl2half"]
INTEGRAL = {"sl2": True, "abelian2": True, "affxc2": True, "nonab": True,
            "sl2half": False}
_envelopes: dict = {}
_pools: dict = {}


def _uea(name):
    uea = _envelopes.get(name)
    if uea is None:
        lie = (sl2half_data() if name == "sl2half" else schema.parse_algebra(
            schema.load_file(CORPUS / f"{name}.alg")))
        _envelopes[name] = uea = UEnvelope(lie)
    return uea


def _pool(name, arity):
    pool = _pools.get((name, arity))
    if pool is None:
        _pools[name, arity] = pool = [
            key for L in range(4)
            for key in adt_monomials(_uea(name), arity, L)
        ]
    return pool


INTS = st.sampled_from([-2, -1, 1, 2, 3])
RATIONALS = st.one_of(INTS, st.sampled_from(
    [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]))


@st.composite
def elements(draw, name, arity, order, rational=False, size=5):
    """A sum of drawn terms at hbar powers 0..order, as from_layers
    stores it."""
    pool = _pool(name, arity)
    layers = [{} for _ in range(order + 1)]
    for _ in range(draw(st.integers(0, size))):
        key = pool[draw(st.integers(0, len(pool) - 1))]
        n = draw(st.integers(0, order))
        add_into(layers[n], key, draw(RATIONALS if rational else INTS))
    return AdtElement.from_layers(_uea(name), arity, layers)


@st.composite
def setups(draw):
    """(algebra, order, rational values?)"""
    return (draw(st.sampled_from(ALGEBRAS)), draw(st.integers(0, 2)),
            draw(st.booleans()))


def test_integral_envelopes_are_the_int_ones():
    assert {name: _uea(name).integral for name in ALGEBRAS} == INTEGRAL


@settings(max_examples=100, deadline=None)
@given(setups(), st.integers(0, 3), st.data())
def test_b_matches_the_expanded_b(setup, arity, data):
    name, order, rational = setup
    P = data.draw(elements(name, arity, order, rational))
    same_layers(differential_b(P), reference_kernels.expanded_b(P))


@settings(max_examples=150, deadline=None)
@given(setups(), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
       st.data())
def test_cup_matches_the_expanded_cup(setup, k, l, order_q, data):
    name, order, rational = setup
    P = data.draw(elements(name, k, order, rational))
    Q = data.draw(elements(name, l, order_q, rational))
    same_layers(cup(P, Q), reference_kernels.expanded_cup(P, Q))


@settings(max_examples=150, deadline=None)
@given(setups(), st.integers(0, 3),
       st.lists(st.integers(0, 2), min_size=1, max_size=2), st.data())
def test_brace_matches_the_expanded_brace(setup, k, ks, data):
    name, order, rational = setup
    P = data.draw(elements(name, k, order, rational, size=4))
    Qs = [data.draw(elements(name, j, data.draw(st.integers(0, 2)),
                             rational, size=3))
          for j in ks]
    same_layers(brace(P, Qs), reference_kernels.expanded_brace(P, Qs))


@st.composite
def twists(draw):
    """An arity-2 element whose layer 0 holds the unit key with a drawn
    coefficient (1 as a twist has it, 0 for none, or another), besides
    drawn terms at every power."""
    name, order, rational = draw(setups())
    E = draw(elements(name, 2, order, rational, size=5))
    c = draw(st.sampled_from([1, 1, 0, -1, 2, Fraction(1, 2)]))
    return E + AdtElement.unit(E.uea, 2, order).scale(c)


@settings(max_examples=100, deadline=None)
@given(twists())
def test_direct_residual_matches_its_oracles(K):
    got = adte_residual(K)
    same_layers(got, reference_kernels.listed_adte_residual(K))
    assert got == reference_kernels.adte_residual(K)


@settings(max_examples=100, deadline=None)
@given(twists())
def test_mc_residual_matches_the_element_sum(K):
    """-b(K - 1) + {K - 1 | K - 1} as elements: the unit subtracted, b
    negated and the two terms added, b's keys first."""
    Kt = K - AdtElement.unit(K.uea, 2, K.order)
    want = (-reference_kernels.expanded_b(Kt)
            + reference_kernels.expanded_brace(Kt, [Kt]))
    same_layers(mc_residual(K), want)
