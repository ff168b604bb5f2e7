"""Gauge actions on twists and the classical reduction to bivectors.

Three incarnations of a gauge transformation are handled: the algebraic
form Q (a group factor with a universal-enveloping leg, Q = 1 + O(hbar)),
the formal form T (a group factor with a polynomial leg, invertible by
total degree), and the classical generator q (a vector-valued formal
function flowing Maurer-Cartan elements by affine transformations).
"""

from __future__ import annotations

from fractions import Fraction

from . import cdyb_dgla, linalg
from .adt_dgla import (
    AdtElement,
    coproduct_at,
    kappa_solve,
    slotwise_product,
    unit_at,
)
from .errors import (
    GradingMismatch,
    NoSolution,
    NotInvariant,
    NotInvertible,
    NotMaurerCartan,
    StraighteningStalled,
    ValuationViolated,
)
from .hseries import add_into
from .lie_core import LieData
from .linfinity import classical_contraction, invert_contraction, mc_transport
from .quantizer import FormalTwist, j_to_k, k_to_j, shift_argument
from .tensor_spaces import (
    CdybElement,
    invariant_cdyb_basis,
    sym_sort,
    wedge_sort,
)
from .uea import UEnvelope


def _as_algebraic(g) -> AdtElement:
    if not isinstance(g, AdtElement):
        raise GradingMismatch("expected an algebraic gauge element")
    return g


def _as_formal(g) -> FormalTwist:
    if not isinstance(g, FormalTwist):
        raise GradingMismatch("expected a formal gauge element")
    return g


def _as_generator(lie: LieData, g) -> CdybElement:
    """g as a classical flow generator: invariant, of exterior degree 1."""
    if not isinstance(g, CdybElement):
        raise GradingMismatch("expected a classical gauge generator")
    if g.is_zero():
        return g
    if g.exterior_degrees() != [1]:
        raise GradingMismatch("gauge generator must have exterior degree 1")
    if not g.is_invariant(lie):
        raise NotInvariant("gauge generator is not invariant")
    return g


# -- products and inverses ---------------------------------------------------


def adt_mul(A: AdtElement, B: AdtElement) -> AdtElement:
    """Slotwise product on tensor factors and the leg alike."""
    mul_mono = A.uea.mul_mono

    def leg_mul(s, t):
        for m, c in mul_mono(s, t).items():
            yield m, 0, c

    return slotwise_product(A, B, leg_mul)


def _geometric_inverse(A, mul):
    """Inverse of A by the truncated geometric series in R = unit - A.

    Every layer term of R must have weight at least one (the hbar power,
    plus the leg degree for a formal twist), so the series terminates;
    for an algebraic element that says A = 1 + O(hbar).
    """
    unit = type(A).unit(A.uea, A.arity, A.order)
    R = unit - A
    if R.terms and R.layer_terms()[0][3] < 1:
        raise NotInvertible("element is not the unit plus weight >= 1")
    acc = pw = unit
    for _ in range(A.order):
        pw = mul(pw, R)
        if pw.is_zero():
            break
        acc = acc + pw
    return acc


def adt_inverse(A: AdtElement) -> AdtElement:
    """Inverse of a 1 + O(hbar) element by the truncated geometric series."""
    return _geometric_inverse(A, adt_mul)


def formal_inverse(T: FormalTwist) -> FormalTwist:
    """Inverse by the geometric series in the total-degree filtration.

    A legitimate gauge element differs from the unit by terms of total
    degree (hbar order plus leg degree) at least one, so the series
    terminates on the triangle.
    """
    return _geometric_inverse(T, FormalTwist.__mul__)


# -- the algebraic gauge action ----------------------------------------------


def gauge_act_algebraic(Q, K: AdtElement) -> AdtElement:
    """K' = Q^{12,3} K (Q^{2,3})^{-1} (Q^{1,23})^{-1}."""
    Q = _as_algebraic(Q)
    if Q.arity != 1 or K.arity != 2:
        raise GradingMismatch("gauge has one factor, twist has two")
    unit1 = AdtElement.unit(Q.uea, 1, Q.order)
    if Q.hbar_component(0) != unit1:
        raise NotInvertible("algebraic gauge element must be 1 + O(hbar)")
    out = adt_mul(coproduct_at(Q, 0), K)
    out = adt_mul(out, adt_inverse(unit_at(Q, 0)))
    out = adt_mul(out, adt_inverse(coproduct_at(Q, 1)))
    return out


def gauge_compose(Q2, Q1) -> AdtElement:
    """Composite gauge: plain slotwise product.

    Acting by Q1 then Q2 equals acting by the composite whenever the
    invariant group factors commute with the base subalgebra, which is
    automatic when the base is abelian (invariance then means each
    factor commutes with it elementwise).
    """
    return adt_mul(_as_algebraic(Q2), _as_algebraic(Q1))


# -- the formal gauge action -------------------------------------------------


def gauge_act_formal(T, J: FormalTwist) -> FormalTwist:
    """J' = T^{12} * J * (T^2)^{-1} * (T^1 at the shifted argument)^{-1}.

    Computed on the triangle (hbar order plus leg degree bounded by the
    truncation), where all four factors and their inverses are finite.
    """
    T = _as_formal(T)
    if T.arity != 1 or J.arity != 2:
        raise GradingMismatch("gauge has one factor, twist has two")
    T = T.truncate(J.order)
    t2_inv = formal_inverse(unit_at(T, 0))
    t1s_inv = formal_inverse(shift_argument(T, form="coproduct"))
    return coproduct_at(T, 0) * J * t2_inv * t1s_inv


def gauge_to_formal(uea: UEnvelope, Q) -> FormalTwist:
    """Formal form of an algebraic gauge element (the inverse rescaling)."""
    return k_to_j(uea, _as_algebraic(Q), strict=False)


def gauge_to_algebraic(T) -> AdtElement:
    """Algebraic form of a formal gauge element (rescaled argument)."""
    return j_to_k(_as_formal(T))


# -- classical gauge flows ---------------------------------------------------


def _shift_affine(lie: LieData, q: CdybElement) -> CdybElement:
    """- sum_i h_i wedge (d q / d lambda^i)."""
    def image(key):
        w, s = key
        for i in set(s):
            ws = wedge_sort((i, w[0]))
            if ws is not None:
                pos = s.index(i)
                rest = sym_sort(s[:pos] + s[pos + 1 :])
                yield (ws[1], rest), 0, -ws[0] * s.count(i)

    return q.map_keys(image, CdybElement)


def classical_gauge_infinitesimal(lie: LieData, q, target,
                                  form: str = "mc") -> CdybElement:
    """q . alpha = dq + [q, alpha], or the affine-shift variant for the
    unrescaled r-matrix form: -sum_i h_i wedge dq/dlambda^i + [q, rho].

    q must be an invariant generator of exterior degree 1, as in
    `classical_gauge_act`.
    """
    q = _as_generator(lie, q)
    if form == "mc":
        affine = cdyb_dgla.differential(q)
    elif form == "r":
        affine = _shift_affine(lie, q)
    else:
        raise ValueError(f"unknown form {form!r}")
    return affine + cdyb_dgla.bracket(lie, q, target)


def classical_gauge_act(lie: LieData, q, target) -> CdybElement:
    """Exponentiated affine action by the truncated mc-form flow.

    The result is exp(ad_q) target plus the affine series
    sum_k ad_q^k(dq)/(k+1)!, which terminates by hbar valuation.
    """
    q = _as_generator(lie, q)
    if q.is_zero():
        return target
    if q.hbar_valuation() < 1:
        raise ValuationViolated(
            "mc-form generator must have hbar valuation >= 1"
        )

    def series(term, k):
        """sum_j ad_q^j(term) k!/(k+j)!."""
        out = term
        while not term.is_zero():
            k += 1
            term = cdyb_dgla.bracket(lie, q, term).scale(Fraction(1, k))
            out = out + term
        return out

    return series(target, 0) + series(cdyb_dgla.differential(q), 1)


def rescale_generator(q: CdybElement, order: int) -> CdybElement:
    """Substitute the rescaled argument: leg degree d gains hbar^d.

    Intertwines the two flow forms with the rescaling that turns an
    r-matrix into a Maurer-Cartan element.
    """
    return q.truncate(order).map_keys(
        lambda key: ((key, len(key[1]), 1),), CdybElement
    )


# -- equivalence testing -----------------------------------------------------


class GaugeResult:
    """Outcome of an equivalence solve.

    equivalent is the verdict; gauge holds the transformation (algebraic
    element, or the list of classical flow generators applied in order);
    when inequivalent, obstruction carries the first unreachable residual
    layer and order its hbar order.
    """

    __slots__ = ("equivalent", "gauge", "obstruction", "order")

    def __init__(self, equivalent, gauge=None, obstruction=None, order=None):
        self.equivalent = equivalent
        self.gauge = gauge
        self.obstruction = obstruction
        self.order = order

    def __bool__(self):
        return self.equivalent


def find_gauge(K: AdtElement, K2: AdtElement) -> GaugeResult:
    """Solve the algebraic gauge relation for Q order by order.

    At each hbar order the linearized problem is a coboundary equation
    over the invariant basis (deterministic minimal solution); the full
    nonlinear action is recomputed before every order, so the final
    equality is exact, and an unsolvable layer is returned as a
    certified obstruction rather than raised.  The linearization holds
    only for twists 1 + O(hbar); any other input raises NotInvertible.
    """
    if K.arity != 2 or K2.arity != 2:
        raise GradingMismatch("equivalence is between two-factor twists")
    head = AdtElement.unit(K.uea, 2, 0).layer(0)
    if K.layer(0) != head or K2.layer(0) != head:
        raise NotInvertible("a twist must be 1 + O(hbar)")
    uea = K.uea
    order = min(K.order, K2.order)
    Q = AdtElement.unit(uea, 1, order)
    for n in range(1, order + 1):
        cur = gauge_act_algebraic(Q, K)
        diff = (K2 - cur).hbar_component(n)
        if diff.is_zero():
            continue
        # the linearization of the action at order n is minus the
        # coboundary of the new gauge coefficient
        try:
            qn = kappa_solve(uea, -diff, max_filtration=n)
        except NoSolution:
            try:
                qn = kappa_solve(uea, -diff, max_filtration=None)
            except NoSolution as exc:
                return GaugeResult(
                    False, obstruction=exc.residual, order=n
                )
        Q = Q + qn.shift(n)
    final = gauge_act_algebraic(Q, K)
    if not (K2 - final).is_zero():
        return GaugeResult(False, obstruction=K2 - final, order=None)
    return GaugeResult(True, gauge=Q)


def classical_find_gauge(lie: LieData, alpha: CdybElement,
                         beta: CdybElement) -> GaugeResult:
    """Order-by-order classical equivalence via the affine flow.

    Returns the chain of flow generators (each already carrying its hbar
    power) whose successive mc-form flows carry alpha to beta exactly.
    """
    order = min(alpha.order, beta.order)
    cur = alpha
    chain = []
    for n in range(1, order + 1):
        diff = (beta - cur).hbar_component(n)
        if diff.is_zero():
            continue
        # at order n the flow moves cur by the differential of the new
        # generator (brackets with cur contribute at higher order)
        sh_max = max(diff.sh_degrees(), default=0) + 1
        basis = []
        for sh in range(sh_max + 1):
            basis.extend(invariant_cdyb_basis(lie, 1, sh))
        columns = [
            cdyb_dgla.differential(CdybElement(dict(v), order)).layer(0)
            for v in basis
        ]
        [sol] = linalg.solve(columns, [diff.layer(0)])
        if sol is None:
            return GaugeResult(False, obstruction=diff, order=n)
        q_terms: dict = {}
        for j, a in sol.items():
            for key, c in basis[j].items():
                add_into(q_terms, key, a * c)
        qn = CdybElement(q_terms, order).shift(n)
        if qn.is_zero():
            return GaugeResult(False, obstruction=diff, order=n)
        cur = classical_gauge_act(lie, qn, cur)
        chain.append(qn)
    if not (beta - cur).is_zero():
        return GaugeResult(False, obstruction=beta - cur, order=None)
    return GaugeResult(True, gauge=chain)


def classical_chain_act(lie: LieData, chain, alpha: CdybElement):
    """Replay a chain of mc-form flow generators."""
    cur = alpha
    for q in chain:
        cur = classical_gauge_act(lie, q, cur)
    return cur


# -- classical reduction -----------------------------------------------------


class ReducedClassical:
    """Result of reducing a Maurer-Cartan element to an invariant bivector.

    pi is the reduced bivector (empty legs, complement factors only) with
    vanishing restricted square; embedded is its transport back into the
    full space; gauge certifies that embedded is equivalent to the input.
    """

    __slots__ = ("pi", "embedded", "gauge")

    def __init__(self, pi, embedded, gauge):
        self.pi = pi
        self.embedded = embedded
        self.gauge = gauge


def reduce_classical(lie: LieData, alpha: CdybElement) -> ReducedClassical:
    """Reduce a Maurer-Cartan element to an invariant complement bivector.

    The reduction transports alpha along the homotopy tower onto the
    image of the projection, where the bracket restricted square must
    vanish; the inclusion tower carries the result back, and an
    order-by-order classical gauge solve certifies the round trip.
    """
    order = alpha.order
    res = cdyb_dgla.cdybe_residual(lie, alpha, mode="dgla")
    if not res.is_zero():
        raise NotMaurerCartan("input fails the Maurer-Cartan equation")
    val = alpha.hbar_valuation()
    if val is not None and val < 1:
        raise NotMaurerCartan("input must have hbar valuation >= 1")
    C = classical_contraction(lie, order)
    Q, F, R = invert_contraction(C, max(order, 1))
    pi = mc_transport(R, alpha, check=False)
    if not (C.proj(pi) - pi).is_zero():
        raise StraighteningStalled(
            "transported element left the projected subspace", residual=pi
        )
    square = cdyb_dgla.p1_project(lie, cdyb_dgla.bracket(lie, pi, pi))
    if not square.is_zero():
        raise StraighteningStalled(
            "restricted square of the reduced bivector is nonzero",
            residual=square,
        )
    embedded = mc_transport(Q, pi, check=True)
    cert = classical_find_gauge(lie, alpha, embedded)
    if not cert.equivalent:
        raise StraighteningStalled(
            "round-trip gauge certification failed",
            order=cert.order, residual=cert.obstruction,
        )
    return ReducedClassical(pi, embedded, cert)
