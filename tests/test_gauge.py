import random
from fractions import Fraction

import pytest

from dyntwist import (
    AdtElement,
    CdybElement,
    NotInvertible,
    NotMaurerCartan,
    ValuationViolated,
    adte_residual,
    cdyb_dgla,
    classical_find_gauge,
    classical_gauge_act,
    find_gauge,
    gauge_act_algebraic,
    quantizer,
    reduce_classical,
    solve_adte,
    taylor_rescale,
)
from dyntwist.adt_dgla import invariant_adt_basis
from dyntwist.errors import GradingMismatch, NotInvariant
from dyntwist.gauge import adt_inverse, adt_mul

from ring import HSeries
import reference_kernels
from conftest import ORDER, mixed_element
from oracles import classical_gauge_infinitesimal
from reference_kernels import rescale_generator

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
        sl2_uea, 1, {((0,), ()): HSeries.constant(1, ORDER)}, ORDER
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


@pytest.mark.parametrize("name", ["sl2_uea", "aff_uea", "nonab_uea"])
def test_action_inverts_q_once(request, name):
    # unit insertion and the coproduct are algebra maps, so one inverse
    # of Q serves both inverted factors; Q and K need not be invariant,
    # and may have different orders
    uea = request.getfixturevalue(name)
    rng = random.Random(29)
    for q_order in (ORDER, ORDER - 1):
        Q = AdtElement.unit(uea, 1, q_order) + mixed_element(
            uea, rng, 1, q_order).shift(1)
        K = AdtElement.unit(uea, 2, ORDER) + mixed_element(
            uea, rng, 2, ORDER).shift(1)
        got = gauge_act_algebraic(Q, K)
        assert got.order == q_order
        assert got.layers == reference_kernels.gauge_act_algebraic(
            Q, K).layers


def test_find_gauge_identity(sl2_uea, sl2_pair):
    r = find_gauge(sl2_pair.K, sl2_pair.K)
    assert r.equivalent and bool(r)
    assert r.gauge == AdtElement.unit(sl2_uea, 1, ORDER)
    assert r.compared == ORDER
    # a pair of two orders is compared through the smaller one
    assert find_gauge(sl2_pair.K.truncate(1), sl2_pair.K).compared == 1
    assert find_gauge(sl2_pair.K, sl2_pair.K.truncate(1)).compared == 1


def test_find_gauge_recovers_constructed_equivalence(sl2_uea, sl2_pair):
    K = sl2_pair.K
    K2 = gauge_act_algebraic(sparse_gauge(sl2_uea, 13), K)
    r = find_gauge(K, K2)
    assert r.equivalent
    assert gauge_act_algebraic(r.gauge, K) == K2


# ROADMAP item 2: find_gauge fixes each q_n at the minimal kappa_solve
# solution and never adds an invariant arity-1 cocycle at an earlier
# order, so on affxc2 it says FAIL at order 3 to K0 and its image under
# the first gauge Q2 = 1 + hbar^2 u2 that seed 1 draws
@pytest.mark.parametrize("name", [
    pytest.param("aff", marks=pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="find_gauge false negative (ROADMAP item 2)")),
    "sl2",
])
def test_find_gauge_recovers_a_drawn_gauge(request, name):
    uea = request.getfixturevalue(f"{name}_uea")
    K0 = request.getfixturevalue(f"{name}_pair").K
    Q2 = quantizer._random_gauge(uea, random.Random(1), 2, ORDER)
    K2 = gauge_act_algebraic(Q2, K0)
    assert not K2 == K0
    result = find_gauge(K0, K2)
    assert result.equivalent
    assert gauge_act_algebraic(result.gauge, K0) == K2


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
    assert r.compared == ORDER
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
