"""The linear maps through `SparseSeries.map_keys` against HSeries references.

The references in reference_kernels.py shift whole HSeries coefficients
by powers of hbar.  The layered maps must agree with them exactly,
coefficient orders included, on order-0 elements, on elements with
several hbar layers per key, and on elements whose coefficients are
known to a lower order than the element's (`map_coeffs(c.truncate(n))`).
Formal twists are drawn on their triangle, where the constructor cuts
every term of hbar power plus leg degree above the order.
"""

import random

import pytest

from dyntwist import AdtElement, CdybElement, HSeries
from dyntwist.adt_dgla import coproduct_at
from dyntwist.gauge import rescale_generator
from dyntwist.quantizer import FormalTwist, j_to_k, shift_argument
from dyntwist.tensor_spaces import cdyb_monomials

import reference_kernels
from conftest import mixed_element

N = 3
ALGEBRAS = ["sl2_uea", "nonab_uea", "aff_uea"]


def _inputs(uea, rng, arity, cls):
    """[order 0, layered at order N, layered with coefficients cut at N-1]."""
    def draw(order):
        return (mixed_element(uea, rng, arity, order, 8, cls=cls)
                + mixed_element(uea, rng, arity, order, 8, cls=cls))

    layered = draw(N)
    return [draw(0), layered, layered.map_coeffs(lambda c: c.truncate(N - 1))]


def _cdyb_inputs(lie, rng):
    """The same three kinds of classical element, exterior degree 1."""
    pool = [key for sh in range(N + 1) for key in cdyb_monomials(lie, 1, sh)]

    def draw(order):
        terms: dict = {}
        for v in range(order + 1):
            for key in rng.sample(pool, min(4, len(pool))):
                terms[key] = (terms.get(key, HSeries.zero(order))
                              + HSeries.hbar(order, v, rng.choice([-2, 1, 3])))
        return CdybElement(terms, order)

    layered = draw(N)
    return [draw(0), layered, layered.map_coeffs(lambda c: c.truncate(N - 1))]


def _agree(new, ref):
    assert new.value_key() == ref.value_key()


def _reaches_top(elements):
    """Not vacuous: some result has a nonzero coefficient at its precision."""
    assert any(E.layer(E.precision()) for E in elements if E.precision())


@pytest.mark.parametrize("uea_name", ALGEBRAS)
def test_coproduct_at_matches_hseries_reference(request, uea_name):
    uea = request.getfixturevalue(uea_name)
    rng = random.Random(41)
    outs = []
    for arity in (1, 2):
        for E in _inputs(uea, rng, arity, AdtElement):
            for i in range(arity + 1):
                outs.append(coproduct_at(E, i))
                _agree(outs[-1], reference_kernels.coproduct_at(E, i))
        # no formal path applies the leg coaction
        for J in _inputs(uea, rng, arity, FormalTwist):
            for i in range(arity):
                outs.append(coproduct_at(J, i))
                _agree(outs[-1], reference_kernels.coproduct_at(J, i))
    _reaches_top(outs)


@pytest.mark.parametrize("uea_name", ALGEBRAS)
def test_j_to_k_matches_hseries_reference(request, uea_name):
    uea = request.getfixturevalue(uea_name)
    rng = random.Random(42)
    outs = []
    for arity in (1, 2):
        for J in _inputs(uea, rng, arity, FormalTwist):
            outs.append(j_to_k(J))
            _agree(outs[-1], reference_kernels.j_to_k(J))
    _reaches_top(outs)


@pytest.mark.parametrize("uea_name", ALGEBRAS)
def test_argument_shifts_match_hseries_references(request, uea_name):
    uea = request.getfixturevalue(uea_name)
    rng = random.Random(43)
    outs = []
    for arity in (1, 2):
        for J in _inputs(uea, rng, arity, FormalTwist):
            outs.append(shift_argument(J))
            _agree(outs[-1], reference_kernels.shift_coproduct(J))
            _agree(outs[-1], reference_kernels.shift_taylor(J))
    _reaches_top(outs)


@pytest.mark.parametrize("uea_name", ALGEBRAS)
def test_rescale_generator_matches_hseries_reference(request, uea_name):
    lie = request.getfixturevalue(uea_name).lie
    rng = random.Random(44)
    outs = []
    for q in _cdyb_inputs(lie, rng):
        for order in range(q.order + 1):
            outs.append(rescale_generator(q, order))
            _agree(outs[-1], reference_kernels.rescale_generator(q, order))
    _reaches_top(outs)


def test_shift_places_every_layer(sl2_uea):
    rng = random.Random(45)
    for E in _inputs(sl2_uea, rng, 2, AdtElement):
        for k in range(N + 1):
            ref = E.scale(HSeries.hbar(E.precision(), k))
            _agree(E.shift(k), ref)
