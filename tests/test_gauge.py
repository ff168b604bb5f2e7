import random
from fractions import Fraction

import pytest

from dyntwist import (
    AdtElement,
    CdybElement,
    HSeries,
    NotInvertible,
    NotMaurerCartan,
    ValuationViolated,
    adte_residual,
    cdyb_dgla,
    classical_find_gauge,
    classical_gauge_act,
    classical_gauge_infinitesimal,
    find_gauge,
    gauge_act_algebraic,
    reduce_classical,
    solve_adte,
    taylor_rescale,
)
from dyntwist.adt_dgla import invariant_adt_basis
from dyntwist.errors import GradingMismatch, NotInvariant
from dyntwist.gauge import adt_inverse, adt_mul, rescale_generator

from conftest import ORDER

F = Fraction


def sparse_gauge(uea, seed, order=ORDER, picks=2):
    """Random invariant group element 1 + O(hbar) with small support."""
    rng = random.Random(seed)
    pool = []
    for L in range(1, 3):
        pool.extend(invariant_adt_basis(uea, 1, L))
    Q = AdtElement.unit(uea, 1, order)
    for n in range(1, order + 1):
        for _ in range(picks):
            vec = pool[rng.randrange(len(pool))]
            Q = Q + AdtElement(uea, 1, dict(vec), order).scale(
                HSeries.hbar(order, n, F(rng.choice([-1, 1])))
            )
    return Q


# -- algebraic action -------------------------------------------------------


def test_identity_gauge(sl2_uea, sl2_pair):
    unit = AdtElement.unit(sl2_uea, 1, ORDER)
    assert gauge_act_algebraic(unit, sl2_pair.K) == sl2_pair.K


def test_inverse(sl2_uea):
    Q = sparse_gauge(sl2_uea, 7)
    unit = AdtElement.unit(sl2_uea, 1, ORDER)
    assert adt_mul(Q, adt_inverse(Q)) == unit
    assert adt_mul(adt_inverse(Q), Q) == unit


def test_inverse_requires_unit_head(sl2_uea):
    Q = AdtElement(
        sl2_uea, 1, {((0,), ()): HSeries.one(ORDER)}, ORDER
    )
    with pytest.raises(NotInvertible):
        adt_inverse(Q)


def test_action_preserves_equation(sl2_uea, sl2_pair):
    Q = sparse_gauge(sl2_uea, 7)
    K2 = gauge_act_algebraic(Q, sl2_pair.K)
    assert not (K2 == sl2_pair.K)
    assert adte_residual(K2).is_zero()


def test_action_group_law(sl2_uea, sl2_pair):
    K = sl2_pair.K
    Q1 = sparse_gauge(sl2_uea, 7)
    Q2 = sparse_gauge(sl2_uea, 11)
    lhs = gauge_act_algebraic(Q2, gauge_act_algebraic(Q1, K))
    rhs = gauge_act_algebraic(adt_mul(Q2, Q1), K)
    assert lhs == rhs


def test_find_gauge_identity(sl2_uea, sl2_pair):
    r = find_gauge(sl2_pair.K, sl2_pair.K)
    assert r.equivalent and bool(r)
    assert r.gauge == AdtElement.unit(sl2_uea, 1, ORDER)


def test_find_gauge_recovers_constructed_equivalence(sl2_uea, sl2_pair):
    K = sl2_pair.K
    K2 = gauge_act_algebraic(sparse_gauge(sl2_uea, 13), K)
    r = find_gauge(K, K2)
    assert r.equivalent
    assert gauge_act_algebraic(r.gauge, K) == K2


def test_find_gauge_requires_unit_heads(sl2_uea):
    unit = AdtElement.unit(sl2_uea, 2, 2)
    K = AdtElement(
        sl2_uea, 2, {((0,), (2,), ()): HSeries.hbar(2, 1, F(1))}, 2)
    zero = AdtElement.zero(sl2_uea, 2, 2)
    for pair in ((K, unit), (unit, K), (zero, zero), (unit + K, K)):
        with pytest.raises(NotInvertible):
            find_gauge(*pair)


# -- classical action -------------------------------------------------------


def _inv_q(lie, order):
    # an invariant exterior-degree-1 flow generator: hbar h (x) lambda
    return CdybElement.monomial(
        (1,), (1,), HSeries.hbar(order, 1), order
    )


def test_classical_identity(sl2, sl2_rho):
    alpha = taylor_rescale(sl2_rho, ORDER)
    q = CdybElement.zero(ORDER)
    assert classical_gauge_act(sl2, q, alpha) == alpha


def test_classical_infinitesimal_at_zero_is_differential(sl2):
    q = _inv_q(sl2, ORDER)
    zero = CdybElement.zero(ORDER)
    inf = classical_gauge_infinitesimal(sl2, q, zero, form="mc")
    assert inf == cdyb_dgla.differential(q)


def test_classical_flow_preserves_mc(sl2, sl2_rho):
    alpha = taylor_rescale(sl2_rho, ORDER)
    q = _inv_q(sl2, ORDER)
    beta = classical_gauge_act(sl2, q, alpha)
    res = cdyb_dgla.cdybe_residual(sl2, beta)
    assert res.is_zero()


def test_classical_valuation_guard(sl2, sl2_rho):
    alpha = taylor_rescale(sl2_rho, ORDER)
    q = CdybElement.monomial((1,), (1,), F(1), ORDER)
    with pytest.raises(ValuationViolated):
        classical_gauge_act(sl2, q, alpha)


def test_form_intertwining(sl2, sl2_rho):
    # the two presentations of the action correspond under the rescaling
    # leg degree d -> extra factor hbar^d on the generator and
    # hbar^{d+1} on the target
    rho_body = sl2_rho.body
    q_r = CdybElement.monomial((1,), (1,), F(1), ORDER)
    inf_r = classical_gauge_infinitesimal(sl2, q_r, rho_body, form="r")
    alpha = taylor_rescale(sl2_rho, ORDER)
    q_mc = rescale_generator(q_r, ORDER).scale(HSeries.hbar(ORDER, 1))
    inf_mc = classical_gauge_infinitesimal(sl2, q_mc, alpha, form="mc")
    assert rescale_generator(inf_r, ORDER).shift(1) == inf_mc


@pytest.mark.parametrize("form", ["mc", "r"])
def test_infinitesimal_validates_generator(sl2, form):
    zero = CdybElement.zero(ORDER)
    # e^f | h is invariant but has exterior degree 2, which the r form's
    # affine shift cannot act on
    q2 = CdybElement.monomial((0, 2), (1,), F(1), ORDER)
    with pytest.raises(GradingMismatch):
        classical_gauge_infinitesimal(sl2, q2, zero, form=form)
    # e | 1 has exterior degree 1 but is not invariant
    q1 = CdybElement.monomial((0,), (), F(1), ORDER)
    with pytest.raises(NotInvariant):
        classical_gauge_infinitesimal(sl2, q1, zero, form=form)


def test_classical_find_gauge(sl2, sl2_rho):
    alpha = taylor_rescale(sl2_rho, ORDER)
    beta = classical_gauge_act(sl2, _inv_q(sl2, ORDER), alpha)
    r = classical_find_gauge(sl2, alpha, beta)
    assert r.equivalent
    cur = alpha
    for q in r.gauge:
        cur = classical_gauge_act(sl2, q, cur)
    assert cur == beta


# -- classical reduction ----------------------------------------------------


def test_reduce_sl2(sl2, sl2_rho):
    alpha = taylor_rescale(sl2_rho, ORDER)
    red = reduce_classical(sl2, alpha)
    expected = CdybElement.monomial(
        (0, 2), (), HSeries.hbar(ORDER, 1), ORDER
    )
    assert red.pi == expected
    assert red.gauge.equivalent


def test_reduce_trivial_base(ab2, ab2_rho):
    alpha = taylor_rescale(ab2_rho, ORDER)
    red = reduce_classical(ab2, alpha)
    assert red.pi == alpha
    assert red.embedded == alpha


def test_reduce_abelian_base(aff, aff_rho):
    alpha = taylor_rescale(aff_rho, ORDER)
    red = reduce_classical(aff, alpha)
    expected = CdybElement.monomial(
        (0, 1), (), HSeries.hbar(ORDER, 1), ORDER
    )
    assert red.pi == expected
    assert red.gauge.equivalent


def test_reduce_rejects_non_mc(sl2):
    bad = CdybElement.monomial((0, 2), (), HSeries.hbar(ORDER, 1), ORDER)
    with pytest.raises(NotMaurerCartan):
        reduce_classical(sl2, bad)
