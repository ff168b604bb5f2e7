import math
import random
from fractions import Fraction

import pytest

from dyntwist import (
    AdtElement,
    CdybElement,
    HSeries,
    NoSolution,
    NotInvariant,
    NotMaurerCartan,
    ObstructionNotRepaired,
    RMatrix,
    ValuationViolated,
    adte_residual,
    cdyb_dgla,
    dte_residual,
    j_to_k,
    k_to_j,
    pbw_star,
    semiclassical_check,
    shift_argument,
    solve_adte,
    taylor_rescale,
)
from dyntwist.quantizer import FormalTwist

from conftest import ORDER, geometric_body, mixed_element

F = Fraction


# -- input validation -------------------------------------------------------


def test_rmatrix_rejects_noninvariant(sl2):
    with pytest.raises(NotInvariant):
        RMatrix(sl2, CdybElement.monomial((0, 1), (), F(1), ORDER))


def test_rmatrix_rejects_nonsolution(sl2):
    body = CdybElement.monomial((0, 2), (), F(1), ORDER)
    with pytest.raises(NotMaurerCartan):
        RMatrix(sl2, body, truncation=1)


def test_rmatrix_residual_split(sl2_rho):
    assert sl2_rho.residual_head.is_zero()
    # the tail involves truncated-away leg degrees and is reported, not hidden
    assert not sl2_rho.residual_tail.is_zero()


def test_taylor_rescale_is_mc(sl2, sl2_rho):
    alpha = taylor_rescale(sl2_rho, ORDER)
    res = cdyb_dgla.cdybe_residual(sl2, alpha, mode="dgla")
    assert res.is_zero()
    # hbar-valuation 1: leg degree d sits at order d + 1
    assert alpha.hbar_component(0).is_zero()


# -- the solver pipelines ---------------------------------------------------


def _check_pipeline(lie, rho, pair):
    K, J = pair.K, pair.J
    assert adte_residual(K, mode="direct").is_zero()
    assert adte_residual(K, mode="mc").is_zero()
    for n, f in enumerate(pair.valuation_certificate):
        if n >= 1:
            assert f <= n - 1
    ok, residual = semiclassical_check(J, rho)
    assert ok, residual
    assert dte_residual(J).total_truncate(K.order).is_zero()
    assert j_to_k(J) == K
    assert j_to_k(k_to_j(K.uea, K)) == K


def test_sl2_pipeline(sl2, sl2_rho, sl2_pair):
    _check_pipeline(sl2, sl2_rho, sl2_pair)


def test_ab2_pipeline(ab2, ab2_rho, ab2_pair):
    _check_pipeline(ab2, ab2_rho, ab2_pair)


def test_aff_pipeline(aff, aff_rho, aff_pair):
    _check_pipeline(aff, aff_rho, aff_pair)


def test_prefix_stability(sl2_pair):
    # order-n truncations of a solved twist remain exact solutions
    K = sl2_pair.K
    for n in range(1, ORDER):
        Kn = K.map_coeffs(lambda c: c.truncate(n))
        assert adte_residual(Kn).is_zero()


def test_first_order_is_antisymmetrized_rmatrix(sl2_uea, sl2_pair):
    K1 = sl2_pair.K.hbar_component(1)
    expected = AdtElement(
        sl2_uea, 2,
        {((0,), (2,), ()): F(1, 2), ((2,), (0,), ()): F(-1, 2)},
        ORDER,
    )
    assert K1 == expected


def test_exponential_twist_solves_adte(ab2_uea):
    # with no base subalgebra, exp(hbar a (x) b) is a closed-form solution
    terms = {}
    for n in range(ORDER + 1):
        terms[((0,) * n, (1,) * n, ())] = HSeries.hbar(
            ORDER, n, F(1, math.factorial(n))
        )
    K = AdtElement(ab2_uea, 2, terms, ORDER)
    assert adte_residual(K).is_zero()


def test_unsolvable_order_is_reported_as_obstruction(sl2):
    # e^f + 3 e^f (x) h is no solution, and the order-2 correction
    # equation has no invariant solution of leg length 0
    body = CdybElement.monomial((0, 2), (), F(1), 2) + CdybElement.monomial(
        (0, 2), (1,), F(3), 2
    )
    with pytest.raises(ObstructionNotRepaired) as info:
        solve_adte(RMatrix(sl2, body, check=False), 2)
    assert info.value.order == 2
    assert isinstance(info.value.__cause__, NoSolution)


def test_obstruction_carries_its_slice(sl2):
    # the same unsolvable order 2: the failing coboundary solve is an
    # arity-3 target slice, and its length reaches ObstructionNotRepaired
    body = CdybElement.monomial((0, 2), (), F(1), 2) + CdybElement.monomial(
        (0, 2), (1,), F(3), 2
    )
    with pytest.raises(ObstructionNotRepaired) as info:
        solve_adte(RMatrix(sl2, body, check=False), 2)
    exc, cause = info.value, info.value.__cause__
    assert cause.arity == 3
    assert isinstance(cause.length, int)
    assert exc.length == cause.length
    assert (cause.residual.total_lengths()) == [cause.length]
    assert f"length-{exc.length} slice" in str(exc)


# -- conversion and valuation ----------------------------------------------


def test_k_to_j_strict_rejects_gauge_valuation(sl2_uea):
    # leg degree 1 at order 1 is legal for gauges, not for twists
    K = AdtElement.unit(sl2_uea, 1, ORDER) + AdtElement(
        sl2_uea, 1, {((), (1,)): HSeries.hbar(ORDER, 1)}, ORDER
    )
    with pytest.raises(ValuationViolated):
        k_to_j(sl2_uea, K)
    T = k_to_j(sl2_uea, K, strict=False)
    assert j_to_k(T) == K


def test_semiclassical_check_detects_wrong_limit(sl2_uea, sl2_rho):
    J = FormalTwist.unit(sl2_uea, 2, ORDER)
    ok, residual = semiclassical_check(J, sl2_rho)
    assert not ok and not residual.is_zero()


# -- the base star product --------------------------------------------------


def test_star_commutator_is_scaled_bracket(nonab_uea):
    one = HSeries.one(ORDER)
    a = {(2,): one}
    b = {(3,): one}
    ab = pbw_star(nonab_uea, a, b, ORDER)
    ba = pbw_star(nonab_uea, b, a, ORDER)
    comm = dict(ab)
    for k, c in ba.items():
        comm[k] = comm.get(k, HSeries.zero(ORDER)) - c
    comm = {k: c for k, c in comm.items() if not c.is_zero()}
    # a * b - b * a = hbar [a, b] = hbar b
    assert comm == {(3,): HSeries.hbar(ORDER, 1)}


def test_star_associativity(nonab_uea):
    one = HSeries.one(ORDER)
    samples = [
        ({(2,): one}, {(3,): one}, {(2, 3): one}),
        ({(3,): one}, {(3, 3): one}, {(2,): one}),
        ({(2, 2): one}, {(3,): one}, {(3,): one}),
    ]
    for f, g, h in samples:
        lhs = pbw_star(
            nonab_uea, pbw_star(nonab_uea, f, g, ORDER), h, ORDER
        )
        rhs = pbw_star(
            nonab_uea, f, pbw_star(nonab_uea, g, h, ORDER), ORDER
        )
        diff = dict(lhs)
        for k, c in rhs.items():
            diff[k] = diff.get(k, HSeries.zero(ORDER)) - c
        assert all(c.is_zero() for c in diff.values())


def test_star_abelian_base_is_commutative(sl2_uea):
    one = HSeries.one(ORDER)
    f = {(1,): one}
    g = {(1, 1): one}
    assert pbw_star(sl2_uea, f, g, ORDER) == pbw_star(sl2_uea, g, f, ORDER)


# -- the argument shift -----------------------------------------------------


def test_shift_forms_agree(nonab_uea):
    J = FormalTwist(
        nonab_uea, 2,
        {
            ((), (), ()): HSeries.one(ORDER),
            ((0,), (1,), (2, 3)): HSeries.hbar(ORDER, 1),
            ((1,), (0,), (3, 3)): HSeries.hbar(ORDER, 1),
        },
        ORDER,
    )
    a = shift_argument(J, form="coproduct")
    b = shift_argument(J, form="taylor")
    assert a == b
    assert shift_argument(J, form="both") == a


def test_shift_of_legless_twist_pads_a_unit_slot(ab2_uea, ab2_pair):
    J = ab2_pair.J
    shifted = shift_argument(J, form="both")
    expected = FormalTwist(
        ab2_uea, 3,
        {key[:2] + ((), ()): c for key, c in J.terms.items()},
        ORDER,
    )
    assert shifted == expected


# -- truncation oracles ------------------------------------------------------


def test_formal_product_truncation_oracle(nonab_uea):
    # the star product on the nonabelian base raises valuations as well
    rng = random.Random(21)
    for arity in (1, 2):
        A = mixed_element(nonab_uea, rng, arity, ORDER + 2, cls=FormalTwist)
        B = mixed_element(nonab_uea, rng, arity, ORDER + 2, cls=FormalTwist)
        low = A.truncate(ORDER) * B.truncate(ORDER)
        assert low.order == ORDER
        assert low == (A * B).truncate(ORDER)
        assert low.layer(ORDER)


@pytest.mark.parametrize("base", ["unit", "sl2_twist"])
def test_layer_residual_from_truncated_twist(request, sl2_uea, base):
    # the order-n layer of the residual needs K only mod hbar^(n+1)
    rng = random.Random(22)
    if base == "unit":
        K = AdtElement.unit(sl2_uea, 2, ORDER) + mixed_element(
            sl2_uea, rng, 2, ORDER, terms=6)
    else:
        K = request.getfixturevalue("sl2_pair").K + mixed_element(
            sl2_uea, rng, 2, ORDER, terms=5).scale(HSeries.hbar(ORDER, 1))
    full = adte_residual(K)
    assert full.layer(ORDER)
    for n in range(ORDER + 1):
        assert adte_residual(K.truncate(n)).layer(n) == full.layer(n)


def test_twist_pair_carries_its_residual(sl2_pair):
    assert sl2_pair.residual.is_zero()
    assert sl2_pair.residual == adte_residual(sl2_pair.K)
