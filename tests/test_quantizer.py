import itertools
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
    semiclassical_check,
    shift_argument,
    solve_adte,
    taylor_rescale,
)
from dyntwist.adt_dgla import adte_residual_layer
from dyntwist.hseries import add_into
from dyntwist.quantizer import FormalTwist, _star_mono

import reference_kernels
from conftest import ORDER, geometric_body, mixed_element
from reference_kernels import _poly_to_series, pbw_star

F = Fraction


# -- input validation -------------------------------------------------------


def test_rmatrix_rejects_noninvariant(sl2):
    with pytest.raises(NotInvariant):
        RMatrix(sl2, CdybElement.monomial((0, 1), (), F(1), ORDER))


def test_rmatrix_rejects_nonsolution(sl2):
    body = CdybElement.monomial((0, 2), (), F(1), ORDER)
    with pytest.raises(NotMaurerCartan):
        RMatrix(sl2, body, truncation=1)


def test_rmatrix_residual_is_attached_and_named(sl2):
    # e^f (1 + h^2) fails the classical equation at leg degrees 0, 1, 2
    # and 4; the empty leg and the leg h must not print alike
    body = (CdybElement.monomial((0, 2), (), F(1), ORDER)
            + CdybElement.monomial((0, 2), (1, 1), F(1), ORDER))
    with pytest.raises(NotMaurerCartan) as exc:
        RMatrix(sl2, body, truncation=3)
    head = exc.value.residual
    assert sorted(head.sh_degrees()) == [0, 1, 2]
    full = cdyb_dgla.cdybe_residual(sl2, body)
    assert head == full - full.component(sh=4)
    message = str(exc.value)
    assert message.endswith(
        "e^h^f | 1 + (HSeries(2; N=3)) e^h^f | h"
        " + (HSeries(-2; N=3)) e^h^f | h*h")


def test_rmatrix_residual_split(sl2_rho):
    assert sl2_rho.residual_head.is_zero()
    # the tail involves truncated-away leg degrees and is reported, not hidden
    assert not sl2_rho.residual_tail.is_zero()


def test_taylor_rescale_is_mc(sl2, sl2_rho):
    alpha = taylor_rescale(sl2_rho, ORDER)
    res = cdyb_dgla.cdybe_residual(sl2, alpha)
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
    assert dte_residual(J).truncate(K.order).is_zero()
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
        assert adte_residual(K.truncate(n)).is_zero()


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


def _formal_unit(uea, arity, order):
    return FormalTwist(uea, arity, {((),) * (arity + 1): 1}, order)


def test_semiclassical_check_detects_wrong_limit(sl2_uea, sl2_rho):
    J = _formal_unit(sl2_uea, 2, ORDER)
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


def test_star_product_is_homogeneous(nonab_uea):
    # hbar power plus leg degree is |s| + |t| in every term, so the total
    # degree adds up under the star product and the triangle is closed
    h = nonab_uea.lie.h_indices
    legs = [leg for d in range(4)
            for leg in itertools.combinations_with_replacement(h, d)]
    lowered = 0
    for s in legs:
        for t in legs:
            for m, p in _star_mono(nonab_uea, s, t).items():
                assert p
                for power in p:
                    assert power + len(m) == len(s) + len(t)
                    lowered += len(m) < len(s) + len(t)
    assert lowered


def test_star_product_symmetrizes_to_the_product(nonab_uea):
    # the defining identity sym(s * t) = sym(s) sym(t) at hbar = 1, on a
    # nonabelian base, with each term at hbar^(|s| + |t| - |m|)
    uea = nonab_uea
    h = uea.lie.h_indices
    legs = [leg for d in range(6)
            for leg in itertools.combinations_with_replacement(h, d)]
    pairs = 0
    for s in legs:
        for t in legs:
            if len(s) + len(t) > 5:
                continue
            lhs: dict = {}
            for m, p in _star_mono(uea, s, t).items():
                [(power, c)] = p.items()
                assert power == len(s) + len(t) - len(m)
                for mm, d in uea.sym_mono(m).items():
                    add_into(lhs, mm, c * d)
            rhs: dict = {}
            for ma, ca in uea.sym_mono(s).items():
                for mb, cb in uea.sym_mono(t).items():
                    for m, c in uea.straighten(ma + mb).items():
                        add_into(rhs, m, ca * cb * c)
            assert lhs == rhs
            pairs += 1
    assert pairs == 126


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
    a = shift_argument(J)
    assert a.value_key() == reference_kernels.shift_taylor(J).value_key()
    assert a.value_key() == reference_kernels.shift_coproduct(J).value_key()


def test_shift_of_legless_twist_pads_a_unit_slot(ab2_uea, ab2_pair):
    J = ab2_pair.J
    shifted = shift_argument(J)
    expected = FormalTwist(
        ab2_uea, 3,
        {key[:2] + ((), ()): c for key, c in J.terms.items()},
        ORDER,
    )
    assert shifted == expected


# -- truncation oracles ------------------------------------------------------


def _reference_formal_product(uea, arity, order, terms_a, terms_b):
    """The formal product expanded in full, then cut to the triangle.

    The slotwise product loop over every term pair (the break reads the
    hbar valuation alone) followed by the triangle truncation, both
    applied to raw term dicts that may reach off the triangle.
    """
    def graded(terms):
        return sorted(((k, c, c.valuation()) for k, c in terms.items()),
                      key=lambda t: t[2])

    def leg_mul(s, t):
        return {
            m: _poly_to_series(p, order)
            for m, p in _star_mono(uea, s, t).items()
        }

    out: dict = {}
    terms_b = graded(terms_b)
    for k1, c1, v1 in graded(terms_a):
        for k2, c2, v2 in terms_b:
            if v1 + v2 > order:
                break
            c = c1 * c2
            exps = [
                uea.mul_mono(k1[i], k2[i]).items() for i in range(arity)
            ]
            exps.append(leg_mul(k1[-1], k2[-1]).items())
            for combo in itertools.product(*exps):
                coeff = c
                for _, d in combo:
                    coeff = coeff * d
                add_into(out, tuple(m for m, _ in combo), coeff)
    # the triangle truncation: keep hbar order + leg degree <= order
    terms = {}
    for key, c in out.items():
        cap = order - len(key[-1])
        if cap < 0:
            continue
        kept = HSeries(
            [c.coeff(m) for m in range(min(cap, order) + 1)], order
        )
        if not kept.is_zero():
            terms[key] = kept
    return terms


def _off_triangle_terms(uea, rng, arity, order):
    """mixed_element's raw terms plus legs whose series leave the triangle."""
    terms = dict(mixed_element(uea, rng, arity, order, terms=8).terms)
    h = uea.lie.h_indices
    for d in (1, 2):
        leg = tuple(sorted(rng.choice(h) for _ in range(d)))
        key = tuple((rng.randrange(uea.lie.dim),) for _ in range(arity))
        add_into(terms, key + (leg,), HSeries.hbar(order, order - d)
                 + HSeries.hbar(order, order - d + 1, rng.choice([-1, 1])))
    return terms


@pytest.mark.parametrize("uea_name", ["sl2_uea", "nonab_uea"])
def test_formal_product_on_the_triangle(request, uea_name):
    # raw terms reach off the triangle (valuation up to the order, legs up
    # to length 2); the constructor drops them, the reference keeps them
    uea = request.getfixturevalue(uea_name)
    rng = random.Random(23)
    for arity in (1, 2, 3):
        for order in (ORDER, ORDER + 1):
            raws = [_off_triangle_terms(uea, rng, arity, order)
                    for _ in range(2)]
            A, B = (FormalTwist(uea, arity, t, order) for t in raws)
            assert any(
                c.coeff(m) and m + len(k[-1]) > order
                for t in raws for k, c in t.items()
                for m in range(order + 1)
            )
            expected = _reference_formal_product(uea, arity, order, *raws)
            assert (A * B).terms == expected


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


@pytest.mark.parametrize("uea_name", ["sl2_uea", "nonab_uea", "aff_uea"])
def test_layered_formal_product_matches_hseries_reference(request, uea_name):
    # the product reads the star polynomials by hbar power; the reference
    # multiplies whole HSeries and lets the constructor cut the triangle.
    # Inputs: order 0, several hbar layers per key, and their
    # truncations to a lower order; coefficient orders must agree as well
    uea = request.getfixturevalue(uea_name)
    rng = random.Random(36)
    for arity in (1, 2):
        def draw(order):
            return (_formal_unit(uea, arity, order)
                    + mixed_element(uea, rng, arity, order, cls=FormalTwist)
                    + mixed_element(uea, rng, arity, order, cls=FormalTwist))

        layered = [draw(ORDER + 1) for _ in range(2)]
        cut = [E.truncate(ORDER) for E in layered]
        pairs = [(draw(0), draw(0)), tuple(layered), tuple(cut),
                 (layered[0], cut[1])]
        for A, B in pairs:
            got = A * B
            assert got.value_key() == \
                reference_kernels.formal_mul(A, B).value_key()
        assert (layered[0] * layered[1]).layer(ORDER + 1)


@pytest.mark.parametrize("base", ["unit", "aff_unit", "nonab_unit",
                                  "sl2_twist"])
def test_layer_residual_from_truncated_twist(request, base):
    # the order-n layer of the residual needs K only mod hbar^(n+1), and
    # only the pairs of layers K_a, K_b with a + b = n
    rng = random.Random(22)
    if base == "sl2_twist":
        uea = request.getfixturevalue("sl2_uea")
        K = request.getfixturevalue("sl2_pair").K + mixed_element(
            uea, rng, 2, ORDER, terms=5).scale(HSeries.hbar(ORDER, 1))
    else:
        uea = request.getfixturevalue(
            {"unit": "sl2_uea", "aff_unit": "aff_uea",
             "nonab_unit": "nonab_uea"}[base])
        K = AdtElement.unit(uea, 2, ORDER) + mixed_element(
            uea, rng, 2, ORDER, terms=6)
    full = adte_residual(K)
    assert full.layer(ORDER)
    for n in range(ORDER + 1):
        assert adte_residual(K.truncate(n)).layer(n) == full.layer(n)
        assert adte_residual_layer(K, n) == full.layer(n)


def test_twist_pair_carries_its_residual(sl2_pair):
    assert sl2_pair.residual.is_zero()
    assert sl2_pair.residual == adte_residual(sl2_pair.K)
