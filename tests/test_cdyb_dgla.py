from fractions import Fraction

import pytest

from dyntwist import (
    CdybElement,
    HSeries,
    TruncationTooSmall,
    cdyb_dgla,
    taylor_rescale,
    tensor_spaces,
)
from dyntwist.gauge import reduce_classical
from dyntwist.lie_core import invariant_basis
from dyntwist.props import (
    check_d_leibniz,
    check_d_squared,
    check_delta_homotopy,
)

import reference_kernels
from conftest import ORDER

N = 3
F = Fraction


def series_body(coeffs, order):
    """sum_d coeffs[d] lambda^d e^f on sl2 with the Cartan leg."""
    body = CdybElement.zero(order)
    for d, c in enumerate(coeffs):
        body = body + CdybElement.monomial((0, 2), (1,) * d, F(c), order)
    return body


def test_d_squared_all_corpus(sl2, ab2, aff, nonab):
    for lie in (sl2, ab2, aff, nonab):
        ok, detail = check_d_squared(lie)
        assert ok, detail


def test_d_leibniz_all_corpus(sl2, ab2, aff, nonab):
    for lie in (sl2, ab2, aff, nonab):
        ok, detail = check_d_leibniz(lie)
        assert ok, detail


def test_differential_oracle(sl2):
    # d(e^f (x) l) wedges h on the left against the leg slot:
    # the single leg letter h contributes -h^e^f with multiplicity 1
    x = CdybElement.monomial((0, 2), (1,), F(1), N)
    d = cdyb_dgla.differential(x)
    assert d == CdybElement.monomial((1, 0, 2), (), F(-1), N)
    # no leg, no differential
    y = CdybElement.monomial((0, 2), (), F(1), N)
    assert cdyb_dgla.differential(y).is_zero()


def test_geometric_series_is_solution(sl2):
    # coefficients c_d = 1 satisfy (d+1) c_{d+1} = sum_{a+b=d} c_a c_b
    body = series_body([1, 1, 1, 1], N)
    res = cdyb_dgla.cdybe_residual(sl2, body)
    for d in res.sh_degrees():
        if d <= 2:
            assert res.component(sh=d).is_zero()


def test_recursion_violated_is_detected(sl2):
    body = series_body([1, 2, 1, 1], N)
    res = cdyb_dgla.cdybe_residual(sl2, body)
    assert not res.component(sh=0).is_zero()


def test_residual_modes_agree_on_zero_sets(sl2):
    good = series_body([1, 1, 1, 1], N)
    bad = series_body([1, 0, 0, 0], N)
    for body in (good, bad):
        dgla = cdyb_dgla.cdybe_residual(sl2, body)
        lit = reference_kernels.cdybe_literal(sl2, body)
        for d in range(3):
            lit_zero = not any(
                len(s) == d and not c.is_zero() for (_, s), c in lit.items()
            )
            assert dgla.component(sh=d).is_zero() == lit_zero


def test_homotopy_identities(sl2, aff):
    for lie in (sl2, aff):
        ok, detail = check_delta_homotopy(lie)
        assert ok, detail


def test_p1_projects_onto_invariant_complement(sl2):
    x = CdybElement.monomial((0, 2), (1,), F(1), N)
    p = cdyb_dgla.p1_project(sl2, x)
    # p1 kills the leg and keeps complement factors only
    assert p.sh_degrees() in ([], [0])
    assert cdyb_dgla.p1_project(sl2, p) == p
    ef = CdybElement.monomial((0, 2), (), F(1), N)
    assert cdyb_dgla.p1_project(sl2, ef) == ef


def test_cohomology_dims(sl2):
    # (wedge m)^h for m = span(e, f) under ad h: only even products survive
    assert cdyb_dgla.cohomology_dims(sl2, 3, 4) == [1, 0, 1, 0]


def test_cohomology_truncation_guard(sl2):
    with pytest.raises(TruncationTooSmall):
        cdyb_dgla.cohomology_dims(sl2, 3, 2)


@pytest.mark.parametrize("name", ["sl2", "aff"])
def test_classical_bases_are_built_once_and_left_unchanged(request, name):
    # every caller gets the same basis and d-column lists; after the
    # cohomology ranks and a reduction with its gauge certificate have
    # read them, each still equals a fresh computation
    lie = request.getfixturevalue(name)
    rho = request.getfixturevalue(f"{name}_rho")
    cdyb_dgla.cohomology_dims(lie, 3, 4)
    assert reduce_classical(lie, taylor_rescale(rho, ORDER)).gauge
    bases = tensor_spaces._basis_caches[lie]
    columns = cdyb_dgla._column_caches[lie]
    assert (1, 1) in columns
    for (k, sh), basis in bases.items():
        assert tensor_spaces.invariant_cdyb_basis(lie, k, sh) is basis
        assert basis == invariant_basis(
            lie, tensor_spaces.cdyb_monomials(lie, k, sh),
            lambda x, key: tensor_spaces.ad_cdyb_key(lie, x, key),
        )
    for (k, sh), cols in columns.items():
        assert cdyb_dgla.d_columns(lie, k, sh) is cols
        assert cols == [
            cdyb_dgla.differential(CdybElement(dict(v), 0)).layer(0)
            for v in bases[(k, sh)]
        ]
