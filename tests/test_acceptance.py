"""End-to-end acceptance battery.

Every comparison below is exact rational arithmetic with zero tolerance;
residuals are recomputed from their definitions, never read back from
solver bookkeeping.
"""

import math
import random
from fractions import Fraction

from dyntwist import (
    AdtElement,
    CdybElement,
    HSeries,
    adte_residual,
    cdyb_dgla,
    classical_contraction,
    classical_gauge_act,
    dte_residual,
    find_gauge,
    gauge_act_algebraic,
    invert_contraction,
    j_to_k,
    k_to_j,
    mc_transport,
    quantum_contraction,
    semiclassical_check,
    solve_adte,
    taylor_rescale,
)
from dyntwist.cdyb_dgla import delta_homotopy
from dyntwist.gauge import classical_find_gauge
from dyntwist.props import (
    check_adte_modes,
    check_b_squared,
    check_brace_relations,
    check_cohomology,
    check_cup_leibniz,
    check_d_leibniz,
    check_d_squared,
    check_delta_homotopy,
    check_kappa,
)

from conftest import ORDER
from oracles import (
    check_morphism,
    filtration,
    reduction_tower,
    sample_elements,
    straightening_tower,
    twist_by_homotopy,
)

F = Fraction


def _all(lie_ueas):
    return list(lie_ueas)


# 1. Structural identities, exhaustive on bounded slices plus seeded
#    random sampling, on every corpus algebra.


def test_criterion_1_differential_and_leibniz(sl2, ab2, aff, nonab):
    for lie in (sl2, ab2, aff, nonab):
        ok, detail = check_d_squared(lie, max_k=3, max_sh=2)
        assert ok, detail
        ok, detail = check_d_leibniz(lie, max_k=3, max_l=2, max_sh=2)
        assert ok, detail


def test_criterion_1_coboundary_and_cup(sl2_uea, ab2_uea, aff_uea,
                                        nonab_uea):
    for uea in (sl2_uea, ab2_uea, aff_uea, nonab_uea):
        ok, detail = check_b_squared(uea, max_arity=2, max_len=2)
        assert ok, detail
        ok, detail = check_cup_leibniz(uea, seed=0, samples=200)
        assert ok, detail


def test_criterion_1_brace_identities(sl2_uea, ab2_uea, aff_uea,
                                      nonab_uea):
    # the brace against the two-slot unit reproduces the cup product up
    # to the Koszul sign (-1)^((arity Q - 1) arity P) and the coboundary
    # up to (-1)^(arity P - 1); the unsigned versions are incompatible
    # with cup associativity, so the signed identities are asserted
    for uea in (sl2_uea, ab2_uea, aff_uea, nonab_uea):
        ok, detail = check_brace_relations(uea, seed=0, samples=100)
        assert ok, detail


# 2. Homotopy identities on both sides of the correspondence.


def test_criterion_2_homotopies(sl2, ab2, aff, nonab, sl2_uea, ab2_uea,
                                aff_uea, nonab_uea):
    for lie in (sl2, ab2, aff, nonab):
        ok, detail = check_delta_homotopy(lie, max_k=3, max_sh=2)
        assert ok, detail
    for uea in (sl2_uea, ab2_uea, aff_uea, nonab_uea):
        ok, detail = check_kappa(uea, seed=0, samples=20)
        assert ok, detail


# 3. Cohomology of both complexes against the invariant complement.


def test_criterion_3_cohomology(sl2, ab2, aff, nonab, sl2_uea, ab2_uea,
                                aff_uea, nonab_uea):
    pairs = [(sl2, sl2_uea), (ab2, ab2_uea), (nonab, nonab_uea),
             (aff, aff_uea)]
    for lie, uea in pairs:
        ok, detail = check_cohomology(lie, uea, max_k=3, shdeg=4,
                                      max_length=4)
        assert ok, detail


# 4. The homotopy-transfer towers are exact morphisms to arity 3, and
#    homotopy twisting preserves that together with the filtration bound.


def test_criterion_4_towers(sl2, sl2_uea):
    CC = classical_contraction(sl2, ORDER)
    CQ = quantum_contraction(sl2_uea, ORDER)
    for C in (CC, CQ):
        Q = invert_contraction(C, 3)
        Ftow, R = straightening_tower(C, 3), reduction_tower(C, 3)
        for tower in (Q, Ftow, R):
            report = check_morphism(tower, 3, 6, seed=0)
            assert report["ok"], report["failures"][:1]
            assert report["checked"] >= 9


def test_criterion_4_twisting(sl2):
    C = classical_contraction(sl2, ORDER)
    Q = invert_contraction(C, 3)
    psi = twist_by_homotopy(Q, lambda x: delta_homotopy(sl2, x))
    report = check_morphism(psi, 3, 6, seed=1)
    assert report["ok"], report["failures"][:1]
    rng = random.Random(2)
    for n in range(1, 4):
        for _ in range(6):
            args = tuple(sample_elements(Q.source, rng, n))
            if len(args) < n:
                continue
            k = max(filtration(a) for a in args)
            out = psi.apply(n, args)
            if not out.is_zero():
                assert filtration(out) <= n + k - 1


# 5. / 6. Constructive quantization witnesses at order 3: the reductive
#    geometric-series entry and the split-abelian-base entry.


def _witness(lie, rho, pair):
    K, J = pair.K, pair.J
    assert K.order == ORDER
    assert adte_residual(K).is_zero()
    for n in range(1, ORDER + 1):
        assert K.hbar_component(n).filtration_degree() <= n - 1
    ok, residual = semiclassical_check(J, rho)
    assert ok, residual
    # a twist determined mod hbar^4 fixes its formal form exactly on the
    # triangle (hbar order) + (leg degree) <= 3; the residual there is
    # the full content of the formal equation at this truncation
    assert dte_residual(J).truncate(ORDER).is_zero()
    assert j_to_k(J) == K


def test_criterion_5_reductive_witness(sl2, sl2_rho, sl2_pair):
    _witness(sl2, sl2_rho, sl2_pair)


def test_criterion_6_abelian_base_witness(aff, aff_rho, aff_pair):
    _witness(aff, aff_rho, aff_pair)


# 7. The direct residual and the Maurer-Cartan residual agree as an
#    exact identity on seeded 1 + O(hbar) elements.


def test_criterion_7_residual_modes(sl2_uea, nonab_uea):
    for uea in (sl2_uea, nonab_uea):
        ok, detail = check_adte_modes(uea, seed=0, samples=100, order=2)
        assert ok, detail


# 8. Classification: perturbed solver runs are certified equivalent,
#    the classical reduction round trip stays in one gauge class, and
#    the gauge actions preserve the residual-zero sets exactly.


def test_criterion_8_perturbed_runs(sl2_uea, sl2_rho):
    a = solve_adte(sl2_rho, ORDER, uea=sl2_uea, perturb_seed=1)
    b = solve_adte(sl2_rho, ORDER, uea=sl2_uea, perturb_seed=2)
    assert not (a.K == b.K)
    assert adte_residual(a.K).is_zero()
    assert adte_residual(b.K).is_zero()
    result = find_gauge(a.K, b.K)
    assert result.equivalent
    assert gauge_act_algebraic(result.gauge, a.K) == b.K


def test_criterion_8_classical_round_trip(sl2, sl2_rho):
    alpha = taylor_rescale(sl2_rho, ORDER)
    C = classical_contraction(sl2, ORDER)
    pi = mc_transport(reduction_tower(C, 3), alpha)
    assert C.proj(pi) == pi
    # restricted square of the reduced bivector vanishes
    sq = cdyb_dgla.p1_project(
        sl2, cdyb_dgla.bracket(sl2, pi, pi)
    )
    assert sq.is_zero()
    embedded = mc_transport(invert_contraction(C, 3), pi)
    cert = classical_find_gauge(sl2, alpha, embedded)
    assert cert.equivalent


def test_criterion_8_actions_preserve_zero_sets(sl2, sl2_uea, sl2_rho,
                                                sl2_pair):
    from test_gauge import sparse_gauge

    K = sl2_pair.K
    Qg = sparse_gauge(sl2_uea, 23)
    assert adte_residual(gauge_act_algebraic(Qg, K)).is_zero()
    # a non-solution stays a non-solution (the action is invertible)
    bad = K + AdtElement(
        sl2_uea, 2, {((0,), (2,), ()): HSeries.hbar(ORDER, 2)}, ORDER
    )
    assert not adte_residual(bad).is_zero()
    assert not adte_residual(gauge_act_algebraic(Qg, bad)).is_zero()
    # same on the classical side
    alpha = taylor_rescale(sl2_rho, ORDER)
    q = CdybElement.monomial((1,), (1,), HSeries.hbar(ORDER, 1), ORDER)
    beta = classical_gauge_act(sl2, q, alpha)
    assert cdyb_dgla.cdybe_residual(sl2, beta).is_zero()


# 9. With trivial base subalgebra the solver output is gauge-equivalent
#    to the closed-form exponential twist through order 3.


def test_criterion_9_exponential_oracle(ab2_uea, ab2_pair):
    terms = {}
    for n in range(ORDER + 1):
        terms[((0,) * n, (1,) * n, ())] = HSeries.hbar(
            ORDER, n, F(1, math.factorial(n))
        )
    K_exp = AdtElement(ab2_uea, 2, terms, ORDER)
    assert adte_residual(K_exp).is_zero()
    result = find_gauge(ab2_pair.K, K_exp)
    assert result.equivalent
    assert gauge_act_algebraic(result.gauge, ab2_pair.K) == K_exp
