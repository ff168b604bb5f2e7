import itertools
import random
from fractions import Fraction

import pytest

from dyntwist import (
    AdtElement,
    CdybElement,
    HSeries,
    LieData,
    RMatrix,
    UEnvelope,
    classical_contraction,
    invert_contraction,
    mc_transport,
    quantum_contraction,
    schema,
    taylor_rescale,
)
from dyntwist.cdyb_dgla import delta_homotopy
from dyntwist.gauge import reduce_classical
from dyntwist.linfinity import MorphismTower, _bracket_defect

import reference_kernels
from oracles import (
    check_morphism,
    filtration,
    morphism_residual,
    reduction_tower,
    sample_elements,
    straightening_tower,
    twist_by_homotopy,
)
from conftest import CORPUS, ORDER, geometric_body

SAMPLES = 6


def test_classical_contraction_identity(sl2, aff):
    for lie in (sl2, aff):
        C = classical_contraction(lie, ORDER)
        rng = random.Random(1)
        for x in sample_elements(C.dgla, rng, 12):
            assert C.check_identity(x)


def test_quantum_contraction_identity(sl2_uea, aff_uea, sl2half_uea):
    # on nonab the projection fixes every invariant element, so h = 0
    # there and the identity would hold for any h; each algebra here
    # must see h(x) != 0 on some sample
    for uea in (sl2_uea, aff_uea, sl2half_uea):
        C = quantum_contraction(uea, ORDER)
        rng = random.Random(2)
        moved = 0
        for x in sample_elements(C.dgla, rng, 8):
            assert C.check_identity(x)
            moved += not C.h(x).is_zero()
        assert moved


def test_classical_towers_are_morphisms(sl2):
    C = classical_contraction(sl2, ORDER)
    Q = invert_contraction(C, 3)
    F, R = straightening_tower(C, 3), reduction_tower(C, 3)
    for tower in (Q, F, R):
        report = check_morphism(tower, 3, SAMPLES, seed=3)
        assert report["ok"], report["failures"][:1]
        assert report["checked"] > 0


def test_quantum_towers_are_morphisms(ab2_uea):
    C = quantum_contraction(ab2_uea, ORDER)
    Q = invert_contraction(C, 3)
    F, R = straightening_tower(C, 3), reduction_tower(C, 3)
    for tower in (Q, F, R):
        report = check_morphism(tower, 3, SAMPLES, seed=4)
        assert report["ok"], report["failures"][:1]


@pytest.mark.parametrize("make,name", [
    (classical_contraction, "sl2"),
    (classical_contraction, "aff"),
    (quantum_contraction, "sl2_uea"),
    (quantum_contraction, "aff_uea"),
    (quantum_contraction, "sl2half_uea"),
])
def test_contraction_side_conditions(request, make, name):
    # h h = 0, p h = 0 and h p = 0 make the inclusion tower the only one
    # with higher maps in the image of h
    C = make(request.getfixturevalue(name), ORDER)
    moved = 0
    for x in sample_elements(C.dgla, random.Random(13), 12):
        hx = C.h(x)
        if hx.is_zero():
            continue
        moved += 1
        assert C.h(hx).is_zero()
        assert C.proj(hx).is_zero()
        assert C.h(C.proj(x)).is_zero()
    assert moved


def test_towers_match_inversion_and_composition(sl2, aff, sl2_uea, ab2_uea):
    # the recursion for Q gives the inverse of F composed with the
    # inclusion, and the strict R is p composed with F; the
    # higher maps vanish on most samples, so nonzero ones are counted
    # over all four contractions
    arity = 4
    higher = {"Q": 0, "F": 0}
    for C in (classical_contraction(sl2, ORDER),
              classical_contraction(aff, ORDER),
              quantum_contraction(sl2_uea, ORDER),
              quantum_contraction(ab2_uea, ORDER)):
        towers = (invert_contraction(C, arity),
                  straightening_tower(C, arity), reduction_tower(C, arity))
        refs = reference_kernels.contraction_towers(C, arity)
        rng = random.Random(14)
        for n in range(1, arity + 1):
            for _ in range(SAMPLES):
                for name, T, ref in zip("QFR", towers, refs):
                    args = tuple(sample_elements(T.source, rng, n))
                    if len(args) < n:
                        continue
                    got, want = T.apply(n, args), ref.apply(n, args)
                    assert got == want and got.order == want.order
                    if n > 1 and name in higher:
                        higher[name] += not got.is_zero()
    assert all(higher.values()), higher


# -- the bracket defect by argument class -----------------------------------


def _mc_case(request, kind):
    """(contraction, alpha, p(alpha)) for a Maurer-Cartan alpha.

    The classical alpha is the sl2 geometric r-matrix at order 8, whose
    reduced bivector has nonzero inclusion defects at every arity up to
    8; the twist-side alpha is the solver's order-3 sl2 twist minus the
    unit.
    """
    if kind == "classical":
        sl2, order = request.getfixturevalue("sl2"), 8
        C = classical_contraction(sl2, order)
        alpha = taylor_rescale(
            RMatrix(sl2, geometric_body((0, 2), 1, order)), order
        )
    else:
        uea = request.getfixturevalue("sl2_uea")
        C = quantum_contraction(uea, ORDER)
        alpha = (request.getfixturevalue("sl2_pair").K
                 - AdtElement.unit(uea, 2, ORDER))
    return C, alpha, C.proj(alpha)


def _assert_defects_agree(T, args):
    degs = [T.source.s_degree(a) for a in args]
    got = _bracket_defect(T, args, degs)
    want = reference_kernels.bracket_defect(T, args, degs)
    assert got == want and got.order == want.order
    return not got.is_zero()


@pytest.mark.parametrize("kind", ["classical", "quantum"])
def test_defect_by_class_on_equal_mc_arguments(request, kind):
    # F's alpha^n and Q's p(alpha)^n are the transports' own arguments
    C, alpha, pi = _mc_case(request, kind)
    Q = invert_contraction(C, 8)
    F = straightening_tower(C, 8)
    nonzero = 0
    for T, x in ((F, alpha), (Q, pi)):
        assert T.source.mc_residual(x).is_zero()
        for n in range(2, 9):
            nonzero += _assert_defects_agree(T, (x,) * n)
    assert nonzero >= 3


def _heisenberg_contraction(kind):
    """A contraction of the Heisenberg algebra [p, q] = z, base z.

    Brackets of the complement leave it, so the inclusion tower has
    nonzero higher maps on arguments of odd shifted degree (p and q on
    the classical side), which the corpus algebras do not give.
    """
    heis = LieData(["p", "q", "z"], {(0, 1): {2: 1}}, [2])
    if kind == "classical":
        return classical_contraction(heis, ORDER)
    return quantum_contraction(UEnvelope(heis), ORDER)


# x has even shifted degree, y and z odd; an odd letter repeated is two
# arguments of one value, which keep their positions
PATTERNS = ["xy", "yy", "yz", "xxy", "yxx", "xyx", "yzx", "yyx", "zxy",
            "xzz", "zxz", "yxyx", "xyzx", "xxyz", "zyxx", "xyxzx", "yxxzx",
            "xxxyz"]


@pytest.mark.parametrize("kind", ["classical", "quantum"])
def test_defect_by_class_on_mixed_repeats(kind):
    C = _heisenberg_contraction(kind)
    Q = invert_contraction(C, 6)
    F = straightening_tower(C, 6)
    nonzero = 0
    for T in (F, Q):
        pool = sample_elements(T.source, random.Random(16), 80)
        even = [x for x in pool if T.source.s_degree(x) % 2 == 0]
        odd = list({x.value_key(): x
                    for x in pool if T.source.s_degree(x) % 2}.values())
        letters = {"x": even[0], "y": odd[0], "z": odd[1]}
        for pattern in PATTERNS:
            args = tuple(letters[c] for c in pattern)
            nonzero += _assert_defects_agree(T, args)
    assert nonzero >= 6


@pytest.mark.parametrize("kind", ["classical", "quantum"])
def test_defect_by_class_on_distinct_arguments(kind):
    C = _heisenberg_contraction(kind)
    Q = invert_contraction(C, 4)
    F = straightening_tower(C, 4)
    checked = nonzero = 0
    for T in (F, Q):
        pool = sample_elements(T.source, random.Random(17), 40)
        pool = list({x.value_key(): x for x in pool}.values())[:6]
        for n in range(2, 5):
            for args in itertools.combinations(pool, n):
                checked += 1
                nonzero += _assert_defects_agree(T, args)
    assert checked >= 40 and nonzero


@pytest.mark.parametrize("kind", ["classical", "quantum"])
def test_reduction_tower_is_strict(request, kind):
    # p h = 0, so R^n = p(F^n) vanishes for n >= 2 although F^n does not,
    # and transport along R is the projection
    C, alpha, pi = _mc_case(request, kind)
    arity = 4
    R = reduction_tower(C, arity)
    ref_F, ref_R = reference_kernels.contraction_towers(C, arity)[1:]
    rng = random.Random(18)
    moved = 0
    for n in range(2, arity + 1):
        cases = [(alpha,) * n] + [
            tuple(sample_elements(R.source, rng, n)) for _ in range(SAMPLES)
        ]
        for args in cases:
            if len(args) < n:
                continue
            assert R.apply(n, args).is_zero()
            assert ref_R.apply(n, args).is_zero()
            moved += not ref_F.apply(n, args).is_zero()
    assert moved
    assert mc_transport(R, alpha) == pi


@pytest.mark.parametrize("name", ["sl2", "affxc2", "nonab", "abelian2"])
def test_reduced_bivector_is_the_transport_along_r(name):
    order = 5
    lie = schema.parse_algebra((CORPUS / f"{name}.alg").read_text())
    body = schema.parse_rmatrix((CORPUS / f"{name}.rmat").read_text(), lie,
                                order)
    alpha = taylor_rescale(RMatrix(lie, body), order)
    C = classical_contraction(lie, order)
    want = mc_transport(reduction_tower(C, order), alpha)
    assert reduce_classical(lie, alpha).pi == want


def test_twist_by_homotopy_identity_tower(sl2):
    C = classical_contraction(sl2, ORDER)
    g = C.dgla
    T = MorphismTower(g, g, [lambda x: x], 3)
    psi = twist_by_homotopy(T, lambda x: delta_homotopy(sl2, x))
    report = check_morphism(psi, 3, SAMPLES, seed=5)
    assert report["ok"], report["failures"][:1]


def test_twist_by_zero_is_identity(sl2):
    C = classical_contraction(sl2, ORDER)
    g = C.dgla
    T = MorphismTower(g, g, [lambda x: x], 3)
    psi = twist_by_homotopy(T, lambda x: g.zero())
    rng = random.Random(6)
    for x in sample_elements(g, rng, 10):
        assert psi.apply(1, (x,)) == x


def test_twisted_tower_filtration_bound(sl2):
    # when the arity-n maps land in filtration <= n - 1 and the twisting
    # map raises filtration by at most one, the twisted maps land in
    # filtration <= n + k - 1 for inputs of filtration <= k
    C = classical_contraction(sl2, ORDER)
    Q = invert_contraction(C, 3)
    psi = twist_by_homotopy(Q, lambda x: delta_homotopy(sl2, x))
    report = check_morphism(psi, 3, SAMPLES, seed=11)
    assert report["ok"], report["failures"][:1]
    rng = random.Random(7)
    for n in range(1, 4):
        for _ in range(SAMPLES):
            args = tuple(sample_elements(Q.source, rng, n))
            if len(args) < n:
                continue
            k = max(filtration(a) for a in args)
            for tower in (Q, psi):
                out = tower.apply(n, args)
                if not out.is_zero():
                    assert filtration(out) <= n + k - 1


def test_mc_transport_classical_reduction(sl2, sl2_rho):
    alpha = taylor_rescale(sl2_rho, ORDER)
    C = classical_contraction(sl2, ORDER)
    # reduction transports alpha onto the image of the projection
    pi = mc_transport(reduction_tower(C, 3), alpha)
    assert C.proj(pi) == pi
    # the inclusion tower transports it back to a Maurer-Cartan element
    back = mc_transport(invert_contraction(C, 3), pi)
    assert not back.is_zero()


def test_morphism_residual_detects_fake_tower(sl2):
    # dropping the correction maps of the straightening tower must break
    # the relation at arity 2
    C = classical_contraction(sl2, ORDER)
    F = straightening_tower(C, 3)
    broken = type(F)(F.source, F.target, [F.maps[0]] + [
        lambda *a: F.target.zero() for _ in range(2)
    ], 3)
    rng = random.Random(8)
    bad = 0
    for _ in range(20):
        args = tuple(sample_elements(F.source, rng, 2))
        if len(args) < 2:
            continue
        if not morphism_residual(broken, args).is_zero():
            bad += 1
    assert bad > 0


# -- closed-form reductions -------------------------------------------------


def _reduce(lie, body, order):
    red = reduce_classical(lie, taylor_rescale(RMatrix(lie, body), order))
    assert red.gauge.equivalent  # the round-trip equivalence certificate
    return red.pi


@pytest.mark.parametrize("a", [Fraction(1), Fraction(1, 2), Fraction(-3, 2)])
def test_sl2_family_reduces_to_constant_bivector(sl2, a):
    # e^f / (a - lambda) = sum_d a^-(d+1) e^f | h^d reduces to
    # (1/a) hbar e^f | 1, whatever the higher leg terms are
    order = 5
    body = CdybElement.zero(order)
    for d in range(5):
        body = body + CdybElement.monomial(
            (0, 2), (1,) * d, a ** -(d + 1), order
        )
    pi = _reduce(sl2, body, order)
    assert pi == CdybElement.monomial(
        (0, 2), (), HSeries.hbar(order, 1, 1 / a), order
    )


@pytest.mark.parametrize("order", [3, 7])
def test_affxc2_family_reduces_to_constant_bivector(aff, order):
    # c x^y + p(h1, h2) h1^h2 reduces to c hbar x^y | 1: the base part
    # is a coboundary of the reduction
    c = Fraction(-3, 2)
    body = CdybElement.monomial((0, 1), (), c, order)
    for coeff, leg in ((1, ()), (Fraction(1, 2), (2,)), (-2, (2, 3)),
                       (Fraction(3, 2), (2, 2, 3))):
        body = body + CdybElement.monomial((2, 3), leg, coeff, order)
    pi = _reduce(aff, body, order)
    assert pi == CdybElement.monomial(
        (0, 1), (), HSeries.hbar(order, 1, c), order
    )


# -- the tower memo ---------------------------------------------------------


def _counting_tower(g, arity):
    calls = []

    def f(*args):
        calls.append(args)
        out = g.zero()
        for x in args:
            out = out + x
        return out

    T = MorphismTower(g, g, [f] * arity, arity)
    return T, calls


def test_apply_evaluates_once_per_argument_value(sl2):
    g = classical_contraction(sl2, ORDER).dgla
    x, y = sample_elements(g, random.Random(9), 2)
    T, calls = _counting_tower(g, 2)
    first = T.apply(2, (x, y))
    # equal values in distinct objects, terms inserted in reverse order
    x2 = CdybElement(dict(reversed(list(x.terms.items()))), x.order)
    y2 = CdybElement(dict(y.terms), y.order)
    assert x2 is not x and x2 == x
    assert T.apply(2, (x2, y2)) == first
    assert len(calls) == 1
    # a different value or arity is a new evaluation
    T.apply(2, (y, x))
    T.apply(1, (x,))
    assert len(calls) == 3


def test_apply_on_zero_argument_skips_the_map(sl2):
    g = classical_contraction(sl2, ORDER).dgla
    (x,) = sample_elements(g, random.Random(10), 1)
    T, calls = _counting_tower(g, 2)
    assert T.apply(2, (x, g.zero())).is_zero()
    assert T.apply(1, (g.zero(),)).is_zero()
    assert calls == []
