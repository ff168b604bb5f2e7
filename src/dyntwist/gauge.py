"""Gauge actions on twists and the classical reduction to bivectors.

Two incarnations of a gauge transformation are handled: the algebraic
form Q (a group factor with a universal-enveloping leg, Q = 1 + O(hbar)),
and the classical generator q (a vector-valued formal function flowing
Maurer-Cartan elements by affine transformations).
"""

from __future__ import annotations

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
from .hseries import add_into, quotient
from .lie_core import LieData
from .linfinity import classical_contraction, invert_contraction, mc_transport
from .tensor_spaces import CdybElement, invariant_cdyb_basis


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
    return slotwise_product(A, B, lambda s, t: mul_mono(s, t).items())


def adt_inverse(A: AdtElement) -> AdtElement:
    """Inverse of A by the truncated geometric series in R = unit - A.

    Every layer term of R must have hbar power at least one, so the
    series terminates; that says A = 1 + O(hbar).
    """
    unit = AdtElement.unit(A.uea, A.arity, A.order)
    R = unit - A
    if R.hbar_valuation() == 0:
        raise NotInvertible("element is not the unit plus weight >= 1")
    acc = pw = unit
    for _ in range(A.order):
        pw = adt_mul(pw, R)
        if pw.is_zero():
            break
        acc = acc + pw
    return acc


# -- the algebraic gauge action ----------------------------------------------


def gauge_act_algebraic(Q, K: AdtElement) -> AdtElement:
    """K' = Q^{12,3} K (Q^{2,3})^{-1} (Q^{1,23})^{-1}.

    Inserting a unit and the coproduct are algebra maps, so both
    inverses are images of one: K' = Q^{12,3} K (Q^{-1})^{2,3}
    (Q^{-1})^{1,23}.
    """
    if not isinstance(Q, AdtElement):
        raise GradingMismatch("expected an algebraic gauge element")
    if Q.arity != 1 or K.arity != 2:
        raise GradingMismatch("gauge has one factor, twist has two")
    unit1 = AdtElement.unit(Q.uea, 1, Q.order)
    if Q.hbar_component(0) != unit1:
        raise NotInvertible("algebraic gauge element must be 1 + O(hbar)")
    inverse = adt_inverse(Q)
    out = adt_mul(coproduct_at(Q, 0), K)
    out = adt_mul(out, unit_at(inverse, 0))
    out = adt_mul(out, coproduct_at(inverse, 1))
    return out


# -- classical gauge flows ---------------------------------------------------


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
            term = cdyb_dgla.bracket(lie, q, term).scale(quotient(1, k))
            out = out + term
        return out

    return series(target, 0) + series(cdyb_dgla.differential(q), 1)


# -- equivalence testing -----------------------------------------------------


class GaugeResult:
    """Outcome of an equivalence solve.

    equivalent is the verdict; gauge holds the transformation (algebraic
    element, or the list of classical flow generators applied in order);
    when inequivalent, obstruction carries the first unreachable residual
    layer and order its hbar order.  compared is the hbar order through
    which the two sides were compared: the smaller of their orders.
    """

    __slots__ = ("equivalent", "gauge", "obstruction", "order", "compared")

    def __init__(self, equivalent, compared, gauge=None, obstruction=None,
                 order=None):
        self.equivalent = equivalent
        self.compared = compared
        self.gauge = gauge
        self.obstruction = obstruction
        self.order = order

    def __bool__(self):
        return self.equivalent


def find_gauge(K: AdtElement, K2: AdtElement) -> GaugeResult:
    """Solve the algebraic gauge relation for Q order by order.

    At each hbar order the linearized problem is a coboundary equation
    over the invariant basis (deterministic minimal solution); the
    nonlinear action is recomputed before every order, from Q and K mod
    hbar^(n+1), which fix its order-n layer since truncation is a ring
    map.  The final equality is checked at full order, so it is exact,
    and an unsolvable layer is returned as a certified obstruction
    rather than raised.  The linearization holds
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
        cur = gauge_act_algebraic(Q.truncate(n), K.truncate(n))
        layer = (K2 - cur).layer(n)
        if not layer:
            continue
        # at the full order, which Q and the obstruction keep
        diff = AdtElement.from_layers(uea, 2, [layer] + [{}] * order)
        # the linearization of the action at order n is minus the
        # coboundary of the new gauge coefficient
        try:
            qn = kappa_solve(uea, -diff, max_filtration=n)
        except NoSolution:
            try:
                qn = kappa_solve(uea, -diff, max_filtration=None)
            except NoSolution as exc:
                return GaugeResult(
                    False, compared=order, obstruction=exc.residual, order=n
                )
        Q = Q + qn.shift(n)
    final = gauge_act_algebraic(Q, K)
    if K2 != final:
        return GaugeResult(False, compared=order, obstruction=K2 - final)
    return GaugeResult(True, compared=order, gauge=Q)


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
        basis, columns = [], []
        for sh in range(sh_max + 1):
            basis += invariant_cdyb_basis(lie, 1, sh)
            columns += cdyb_dgla.d_columns(lie, 1, sh)
        [sol] = linalg.solve(columns, [diff.layer(0)])
        if sol is None:
            return GaugeResult(False, compared=order, obstruction=diff,
                               order=n)
        q_terms: dict = {}
        for j, a in sol.items():
            for key, c in basis[j].items():
                add_into(q_terms, key, a * c)
        qn = CdybElement(q_terms, order).shift(n)
        cur = classical_gauge_act(lie, qn, cur)
        chain.append(qn)
    if beta != cur:
        return GaugeResult(False, compared=order, obstruction=beta - cur)
    return GaugeResult(True, compared=order, gauge=chain)


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

    The reduced bivector is p(alpha): the reduction tower of the
    contraction is strict (`linfinity.invert_contraction`), so transport
    along it is the projection.  Its restricted square vanishes:
    p1[x, y] = p1[p1 x, p1 y] and p1(d alpha) = d(p1 alpha) = 0, so
    p1[pi, pi] = p1[alpha, alpha] = -2 p1(d alpha) = 0
    (`reduce-classical` recomputes it).  The inclusion tower carries pi
    back as the sum of its diagonal values Q^n(pi, ..., pi) / n!
    (`linfinity.mc_transport`), and an order-by-order classical gauge
    solve certifies the round trip.
    """
    order = alpha.order
    res = cdyb_dgla.cdybe_residual(lie, alpha)
    if not res.is_zero():
        raise NotMaurerCartan("input fails the Maurer-Cartan equation")
    val = alpha.hbar_valuation()
    if val is not None and val < 1:
        raise NotMaurerCartan("input must have hbar valuation >= 1")
    C = classical_contraction(lie, order)
    pi = C.proj(alpha)
    embedded = mc_transport(invert_contraction(C, max(order, 1)), pi)
    cert = classical_find_gauge(lie, alpha, embedded)
    if not cert.equivalent:
        raise StraighteningStalled(
            "round-trip gauge certification failed",
            order=cert.order, residual=cert.obstruction,
        )
    return ReducedClassical(pi, embedded, cert)
