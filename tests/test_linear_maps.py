"""The linear maps through `SparseSeries.map_keys` against HSeries references.

The references in reference_kernels.py shift whole HSeries coefficients
by powers of hbar.  The layered maps must agree with them exactly,
coefficient orders included, on order-0 elements, on elements with
several hbar layers per key, and on their truncations to a lower order.
Formal twists are drawn in hbar on their triangle, where
`conftest.formal_twist` drops every term of hbar power plus leg degree
above the order, and the references read them back in hbar.
"""

import random

import pytest

from dyntwist import AdtElement, HSeries, schema
from dyntwist.adt_dgla import coproduct_at
from dyntwist.quantizer import FormalTwist, RMatrix, j_to_k, shift_argument

import reference_kernels
from conftest import CORPUS, mixed_element

N = 3
ALGEBRAS = ["sl2_uea", "nonab_uea", "aff_uea"]
# the corpus r-matrix of each algebra, and the order that the rescaled
# top leg degree (4 on sl2 and affxc2) reaches
RMATRICES = {"sl2_uea": "sl2", "nonab_uea": "nonab", "aff_uea": "affxc2"}
BODY_ORDER = 5


def _inputs(uea, rng, arity, cls):
    """[order 0, layered at order N, the layered one truncated to N-1]."""
    def draw(order):
        return (mixed_element(uea, rng, arity, order, 8, cls=cls)
                + mixed_element(uea, rng, arity, order, 8, cls=cls))

    layered = draw(N)
    return [draw(0), layered, layered.truncate(N - 1)]


def _agree(new, ref):
    assert new.value_key() == ref.value_key()


def _reaches_top(elements):
    """Not vacuous: some result has a nonzero coefficient at its order."""
    assert any(E.layer(E.order) for E in elements if E.order)


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
    # RMatrix.rescaled is the same leg-degree hbar shift with one more
    # hbar: leg degree d of the body gains hbar^(d + 1)
    lie = request.getfixturevalue(uea_name).lie
    path = CORPUS / f"{RMATRICES[uea_name]}.rmat"
    body = schema.parse_rmatrix(schema.load_file(path), lie, BODY_ORDER)
    rho = RMatrix(lie, body)
    outs = []
    for n in range(body.order + 1):
        outs.append(rho.rescaled(n))
        _agree(outs[-1], reference_kernels.rescale_generator(body, n).shift(1))
    _reaches_top(outs)


def test_shift_places_every_layer(sl2_uea):
    rng = random.Random(45)
    for E in _inputs(sl2_uea, rng, 2, AdtElement):
        for k in range(N + 1):
            ref = E.scale(HSeries.hbar(E.order, k))
            _agree(E.shift(k), ref)
