"""Order-by-order twist quantization of formal dynamical r-matrices.

The pipeline: validate an r-matrix, rescale it to a Maurer-Cartan element,
solve the algebraic twist equation order by order in hbar (an obstruction
at some order is reported, not repaired), convert the algebraic twist K to
the formal twist J, and verify the dynamical twist equation with the PBW
star product on the triangle (hbar order + leg degree <= N) K determines.
"""

from __future__ import annotations

import random

from . import cdyb_dgla
from .adt_dgla import (
    AdtElement,
    adte_residual,
    adte_residual_layer,
    alt_embed,
    coproduct_at,
    differential_b,
    invariant_adt_basis,
    kappa_solve,
    slotwise_product,
    unit_at,
)
from .errors import (
    GradingMismatch,
    NoSolution,
    NotInImage,
    NotInvariant,
    NotMaurerCartan,
    ObstructionNotRepaired,
    ValuationViolated,
)
from .hseries import SparseSeries, add_into
from .lie_core import LieData
from .tensor_spaces import CdybElement
from .uea import UEnvelope, coproduct_mono


# -- validated r-matrix input ----------------------------------------------


class RMatrix:
    """An invariant bivector-valued formal function on the base dual.

    The body may carry hbar-dependent coefficients (hbar-dependent
    families are allowed).  The classical equation residual is computed
    on construction: components of leg degree below the truncation must
    vanish; the unverifiable tail (which involves truncated-away layers)
    is stored, never hidden.
    """

    def __init__(self, lie: LieData, body: CdybElement, truncation=None,
                 check: bool = True):
        self.lie = lie
        self.body = body
        self.mode = lie.mode
        degs = body.exterior_degrees()
        if degs and degs != [2]:
            raise GradingMismatch(
                f"r-matrix body must have exterior degree 2, got {degs}"
            )
        if not body.is_invariant(lie):
            raise NotInvariant("r-matrix body is not invariant")
        if truncation is None:
            truncation = max(body.sh_degrees(), default=0)
        self.truncation = truncation
        self.residual_head = None
        self.residual_tail = None
        if check:
            res = cdyb_dgla.cdybe_residual(lie, body)
            head = CdybElement.zero(body.order)
            tail = CdybElement.zero(body.order)
            for d in res.sh_degrees():
                part = res.component(sh=d)
                if d <= truncation - 1:
                    head = head + part
                else:
                    tail = tail + part
            self.residual_head = head
            self.residual_tail = tail
            if not head.is_zero():
                raise NotMaurerCartan(
                    "classical dynamical equation residual nonzero below "
                    f"the truncation degree {truncation}: {head.pretty(lie)}",
                    residual=head,
                )

    def rescaled(self, order: int) -> CdybElement:
        """The rescaled family hbar rho(hbar l), truncated at `order`.

        The leg-degree-d part of the hbar^j layer of the body lands at
        order j + d + 1.  The result has the smaller of `order` and the
        body's order.
        """
        return self.body.truncate(order).map_keys(
            lambda key: ((key, len(key[1]) + 1, 1),), CdybElement
        )


def taylor_rescale(rho: RMatrix, order: int) -> CdybElement:
    """Rescale: the leg-degree-d part acquires a factor hbar^{d+1}.

    The result must be Maurer-Cartan within the truncation order; the
    residual is recomputed, not assumed.
    """
    alpha = rho.rescaled(order)
    res = cdyb_dgla.cdybe_residual(rho.lie, alpha)
    if not res.is_zero():
        raise NotMaurerCartan(
            "rescaled element fails Maurer-Cartan: residual "
            + res.pretty(rho.lie),
            residual=res,
        )
    return alpha


# -- formal twists (group factors with a polynomial leg) --------------------


class FormalTwist(SparseSeries):
    """Sparse element of (U g)^{(x) arity} (x) S h over HSeries.

    Keys are tuples of `arity` PBW monomials (the group factors) followed
    by one sorted leg monomial (a commutative word in the base indices).

    An element of order N lives on the triangle hbar order + leg degree
    <= N, where a twist through hbar order N determines J exactly.  This
    total degree adds up under the group products, the star product (its
    hbar-scaled symmetrization is homogeneous) and the argument shift
    x -> hbar x (x) 1 + 1 (x) x, so the terms above N form a two-sided
    ideal: the constructor drops them, `truncate(n)` cuts to a smaller
    triangle, and `layer_terms` weighs each hbar coefficient by its
    total degree, so a product expands exactly the pairs whose total
    degrees add up to at most N.  No formal path applies the leg
    coaction `coproduct_at(J, arity)`, which lowers the total degree.
    """

    __slots__ = ("uea", "arity")
    _space = ("uea", "arity")
    # AdtElement's key check and repr (which prints the class name)
    _key = AdtElement._key
    __repr__ = AdtElement.__repr__
    _leg_weighted = True

    def __init__(self, uea: UEnvelope, arity: int, terms: dict, order: int):
        self.uea = uea
        self.arity = arity
        super().__init__(terms, order)

    def op(self) -> "FormalTwist":
        """Swap the two group factors (arity 2 only)."""
        if self.arity != 2:
            raise GradingMismatch("op is defined for two factors")
        return self.map_keys(
            lambda k: (((k[1], k[0], k[2]), 0, 1),),
            FormalTwist, self.uea, 2,
        )

    def __mul__(self, other: "FormalTwist") -> "FormalTwist":
        """Slotwise group products, star product on the legs."""
        uea = self.uea

        def leg_mul(s, t):
            for m, p in _star_mono(uea, s, t).items():
                for power, c in p.items():
                    yield m, power, c

        return slotwise_product(self, other, leg_mul)


# -- PBW star product -------------------------------------------------------
#
# f * g := syminv(sym(f) sym(g)) in the enveloping algebra with the
# bracket scaled by hbar.  Word length plus hbar power grades that
# algebra, and sym and straightening keep the grade, so the product of
# two leg monomials s, t is computed at hbar = 1 and each monomial m of
# the result carries hbar^(|s| + |t| - |m|).  The result is returned as
# {m: {power: rational}}, which caches independently of the truncation.


def _star_mono(uea: UEnvelope, s, t) -> dict:
    """Star product of two leg monomials: {leg monomial: hbar polynomial}."""
    cache = uea._star_cache
    key = (tuple(s), tuple(t))
    hit = cache.get(key)
    if hit is not None:
        return hit
    h_set = set(uea.lie.h_indices)
    for i in key[0] + key[1]:
        if i not in h_set:
            raise NotInImage(f"leg index {i} is not in the base subalgebra")
    prod: dict = {}
    for ma, ca in uea.sym_mono(key[0]).items():
        for mb, cb in uea.sym_mono(key[1]).items():
            for m, c in uea.straighten(ma + mb).items():
                add_into(prod, m, ca * cb * c)
    n = len(key[0]) + len(key[1])
    out = {m: {n - len(m): c}
           for m, c in uea.sym_preimage(prod, allowed=h_set).items()}
    cache[key] = out
    return out


# -- argument shift ---------------------------------------------------------


def shift_argument(J: FormalTwist) -> FormalTwist:
    """Append a group factor recording the shifted leg argument.

    Leg coaction form: each leg letter maps to hbar x (x) 1 + 1 (x) x,
    and the letters sent to the new third group factor are symmetrized
    there.
    """
    uea = J.uea

    def image(key):
        for (chosen, rest), mult in coproduct_mono(key[-1], 2).items():
            for m, d in uea.sym_mono(chosen).items():
                yield key[:-1] + (m, rest), len(chosen), mult * d

    return J.map_keys(image, FormalTwist, uea, J.arity + 1)


# -- the twist equation on the formal side ----------------------------------


def dte_residual(J: FormalTwist) -> FormalTwist:
    """Residual of the dynamical twist equation (trivial associator).

    Zero iff J is a formal dynamical twist on its triangle.
    """
    if J.arity != 2:
        raise GradingMismatch("twist equation requires two group factors")
    lhs = coproduct_at(J, 0) * shift_argument(J)
    rhs = coproduct_at(J, 1) * unit_at(J, 0)
    return lhs - rhs


def semiclassical_check(J: FormalTwist, rho: RMatrix):
    """Compare (J - J^op)/hbar mod hbar against the embedded r-matrix.

    Returns (flag, residual).  For hbar-dependent families the comparison
    uses the constant layer of the body, matching the rescaling.
    """
    diff = (J - J.op()).hbar_component(1)
    expected: dict = {}
    for (w, s), a in rho.body.layer(0).items():
        if len(s) > J.order - 1:
            # leg degrees at the truncation order and beyond sit outside
            # the triangle the computed twist determines
            continue
        add_into(expected, ((w[0],), (w[1],), s), a)
        add_into(expected, ((w[1],), (w[0],), s), -a)
    residual = diff - FormalTwist(J.uea, 2, expected, J.order)
    return residual.is_zero(), residual


# -- conversion between the algebraic and formal pictures -------------------


def k_to_j(uea: UEnvelope, K: AdtElement) -> FormalTwist:
    """Recover the formal twist from an algebraic twist.

    The order-n coefficient of K is the symmetrized image of the
    leg-degree-d, order-(n-d) coefficients of J; inverting legwise is
    triangular in the leg degree.  A leg degree above n has no preimage,
    and a twist is 1 + O(hbar), so leg degree n at order n is allowed
    only on the unit key; either raises ValuationViolated.
    """
    h_allowed = set(uea.lie.h_indices)
    order = K.order
    arity = K.arity
    unit_key = ((),) * (arity + 1)
    outs = [{} for _ in range(order + 1)]
    for n in range(order + 1):
        by_front: dict = {}
        for key, a in K.layer(n).items():
            by_front.setdefault(key[:-1], {})[key[-1]] = a
        for front, legs in by_front.items():
            for smono, c in uea.sym_preimage(legs, allowed=h_allowed).items():
                d = len(smono)
                m = n - d
                if m < 0 or (m == 0 and front + (smono,) != unit_key):
                    raise ValuationViolated(
                        f"order-{n} coefficient has leg degree {d}; the "
                        "filtration certificate fails"
                    )
                add_into(outs[m], front + (smono,), c)
    return FormalTwist.from_layers(uea, arity, outs)


def j_to_k(J: FormalTwist) -> AdtElement:
    """Substitute the rescaled argument and symmetrize the leg."""
    uea = J.uea

    def image(key):
        s = key[-1]
        for m, d in uea.sym_mono(s).items():
            yield key[:-1] + (m,), len(s), d

    return J.map_keys(image, AdtElement, uea, J.arity)


# -- the order-by-order solver ----------------------------------------------


class TwistPair:
    """An algebraic twist, its formal counterpart, and its full residual.

    `residual` is adte_residual(K), recomputed from its definition once
    the solve is done (zero, or the solver would have raised).
    """

    __slots__ = ("K", "J", "valuation_certificate", "residual")

    def __init__(self, K: AdtElement, J: FormalTwist, valuation_certificate,
                 residual: AdtElement):
        self.K = K
        self.J = J
        self.valuation_certificate = valuation_certificate
        self.residual = residual


def _random_coboundary(uea: UEnvelope, rng, n: int, order: int) -> AdtElement:
    """Coboundary of a random invariant element, leg length <= n - 2.

    Added at order n it leaves the equation residual untouched through
    that order (the coboundary is closed, and its cross terms with the
    positive-order coefficients start at order n + 1) while moving the
    solver to a different solution.
    """
    terms: dict = {}
    for L in range(1, 4):
        for vec in invariant_adt_basis(uea, 1, L):
            if any(len(key[-1]) > n - 2 for key in vec):
                continue
            a = rng.randint(-1, 1)
            if a:
                for key, c in vec.items():
                    add_into(terms, key, a * c)
    return differential_b(AdtElement(uea, 1, terms, order))


def solve_adte(rho: RMatrix, N: int, uea: UEnvelope | None = None,
               perturb_seed=None) -> TwistPair:
    """Quantize an r-matrix to an algebraic dynamical twist mod hbar^{N+1}.

    At each order n the new coefficient is pinned to the antisymmetrized
    embedding of the order-n layer of the rescaled r-matrix plus an
    invariant correction of leg length at most n - 2, found by solving a
    coboundary equation against the order-n equation residual.  When that
    linear problem has no solution the order-n obstruction is reported as
    ObstructionNotRepaired; no lower order is re-opened.  The order-n
    residual and its check after the correction sum only the layer pairs
    K_a, K_b with a + b = n; the full residual is recomputed at the end.

    With perturb_seed set, a seeded random coboundary is mixed into each
    coefficient from order 2 on, so different seeds give different
    twists.  On sl2, `find_gauge` certifies seeded twists as equivalent
    to the unseeded one through order 4 and reports an obstruction at
    order 5; on affxc2, through order 2, with an obstruction at order 3.
    """
    if uea is None:
        uea = UEnvelope(rho.lie)
    rng = random.Random(perturb_seed) if perturb_seed is not None else None
    order = N
    K = AdtElement.unit(uea, 2, order)
    alpha = rho.rescaled(order)
    for n in range(1, N + 1):
        K = K + alt_embed(uea, alpha.hbar_component(n)).shift(n)
        if rng is not None and n >= 2:
            K = K + _random_coboundary(uea, rng, n, order).shift(n)
        target = AdtElement(uea, 3, adte_residual_layer(K, n), order)
        if target.is_zero():
            continue
        try:
            corr = kappa_solve(uea, target, max_filtration=n - 2)
        except NoSolution as exc:
            raise ObstructionNotRepaired(
                f"order-{n} obstruction: {exc}", order=n, obstruction=target,
                length=exc.length,
            ) from exc
        K = K + corr.shift(n)
        if adte_residual_layer(K, n):
            raise ObstructionNotRepaired(
                f"order-{n} correction did not close the equation",
                order=n, obstruction=target,
            )
    res = adte_residual(K)
    if not res.is_zero():
        raise ObstructionNotRepaired(
            "final residual nonzero after order-by-order solve",
            order=res.hbar_valuation(), obstruction=res,
        )
    certificate = [K.hbar_component(n).filtration_degree()
                   for n in range(N + 1)]
    for n, f in enumerate(certificate):
        if n >= 1 and f > n - 1:
            raise ValuationViolated(
                f"order-{n} coefficient has leg length {f} > {n - 1}"
            )
    J = k_to_j(uea, K)
    return TwistPair(K, J, certificate, res)
