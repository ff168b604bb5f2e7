"""Order-by-order twist quantization of formal dynamical r-matrices.

The pipeline: validate an r-matrix, rescale it to a Maurer-Cartan element,
solve the algebraic twist equation order by order in hbar (an obstruction
at some order is reported, not repaired), convert the algebraic twist K to
the formal twist J, and verify the dynamical twist equation with the PBW
star product on the triangle (hbar order + leg degree <= N) K determines.
J is stored at the rescaled argument, by that total degree (`FormalTwist`).
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
from .gauge import gauge_act_algebraic
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

    def __init__(self, lie: LieData, body: CdybElement, truncation=None):
        self.lie = lie
        self.body = body
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
        res = cdyb_dgla.cdybe_residual(lie, body)
        head = CdybElement.zero(body.order)
        tail = CdybElement.zero(body.order)
        for d in res.sh_degrees():
            part = res.component(sh=d)
            if d <= truncation - 1:
                head = head + part
            else:
                tail = tail + part
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
    """Sparse element of (U g)^{(x) arity} (x) S h over the hbar series.

    Keys are tuples of `arity` PBW monomials (the group factors) followed
    by one sorted leg monomial (a commutative word in the base indices).

    J(lambda) is stored at the rescaled argument lambda -> hbar lambda:
    layer w holds the terms whose hbar order plus leg degree is w, the
    hbar^w coefficients of J(hbar lambda).  `layer(w)`,
    `hbar_component(w)`, the `terms` view and the constructor's
    coefficients are all by this total degree.  An element of order N
    is then J on the triangle hbar order + leg degree <= N, which a
    twist through hbar order N determines exactly.  The total degree
    adds up under the group products, the star product (its hbar-scaled
    symmetrization is homogeneous), the argument shift
    x -> hbar x (x) 1 + 1 (x) x and `op`, so every formal operation is
    the plain hbar-graded one of `SparseSeries`: truncation is the
    triangle's, and products expand exactly the pairs whose total
    degrees add up to at most N.  No formal path applies the leg
    coaction `coproduct_at(J, arity)`, which lowers the total degree.
    """

    __slots__ = ("uea", "arity")
    # AdtElement's space, key check and repr (which prints the class name)
    _space_values = AdtElement._space_values
    _set_space = AdtElement._set_space
    _key = AdtElement._key
    __repr__ = AdtElement.__repr__

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
        """Slotwise group products, star product on the legs.

        Every leg monomial m of s * t comes with hbar^(|s| + |t| - |m|),
        so its total degree is |s| + |t|: the product of two layer terms
        lies in the sum of their layers, and `leg_mul` drops the power.
        """
        uea = self.uea

        def leg_mul(s, t):
            return [(m, c) for m, p in _star_mono(uea, s, t).items()
                    for c in p.values()]

        return slotwise_product(self, other, leg_mul)


# -- PBW star product -------------------------------------------------------
#
# f * g := syminv(sym(f) sym(g)) in the enveloping algebra with the
# bracket scaled by hbar.  Word length plus hbar power grades that
# algebra, and sym and straightening keep the grade, so the product of
# two leg monomials s, t is computed at hbar = 1 and each monomial m of
# the result carries hbar^(|s| + |t| - |m|).  The result is returned as
# {m: {power: rational}}, which caches independently of the truncation;
# a formal twist's layers count that power together with |m|.


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
    there.  A letter trades leg degree for an hbar, so every image term
    stays in its layer.
    """
    uea = J.uea

    def image(key):
        for (chosen, rest), mult in coproduct_mono(key[-1], 2).items():
            for m, d in uea.sym_mono(chosen).items():
                yield key[:-1] + (m, rest), 0, mult * d

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

    Returns (flag, residual).  The hbar^1 coefficient of a key of leg
    degree d sits in layer 1 + d; the residual holds, in the same
    places, those of J - J^op minus the embedded r-matrix.  For
    hbar-dependent families the comparison uses the constant layer of
    the body, matching the rescaling.
    """
    order = J.order
    diff = J - J.op()
    outs = [{} for _ in range(order + 1)]
    for n in range(1, order + 1):
        outs[n] = {k: a for k, a in diff.layer(n).items()
                   if len(k[-1]) == n - 1}
    for (w, s), a in rho.body.layer(0).items():
        n = len(s) + 1
        if n > order:
            # leg degrees at the truncation order and beyond sit outside
            # the triangle the computed twist determines
            continue
        add_into(outs[n], ((w[0],), (w[1],), s), -a)
        add_into(outs[n], ((w[1],), (w[0],), s), a)
    residual = FormalTwist.from_layers(J.uea, 2, outs)
    return residual.is_zero(), residual


# -- conversion between the algebraic and formal pictures -------------------


def k_to_j(uea: UEnvelope, K: AdtElement) -> FormalTwist:
    """Recover the formal twist from an algebraic twist.

    The order-n coefficient of K is the symmetrized image of the
    leg-degree-d, order-(n-d) coefficients of J, which make up J's layer
    n.  A leg degree above n has no preimage, and a twist is
    1 + O(hbar), so leg degree n at order n is allowed only on the unit
    key; either raises ValuationViolated.
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
                if d > n or (d == n and front + (smono,) != unit_key):
                    raise ValuationViolated(
                        f"order-{n} coefficient has leg degree {d}; the "
                        "filtration certificate fails"
                    )
                add_into(outs[n], front + (smono,), c)
    return FormalTwist.from_layers(uea, arity, outs)


def j_to_k(J: FormalTwist) -> AdtElement:
    """Symmetrize the leg; J is stored at the rescaled argument already."""
    uea = J.uea

    def image(key):
        for m, d in uea.sym_mono(key[-1]).items():
            yield key[:-1] + (m,), 0, d

    return J.map_keys(image, AdtElement, uea, J.arity)


def valuation_certificate(K: AdtElement) -> list:
    """The longest leg of K's hbar^n coefficient, for n = 0, ..., N.

    A twist K = 1 mod hbar passes when the legs at order n >= 1 are at
    most n - 1 long.  Then `k_to_j` returns: `sym_preimage` never
    lengthens a leg, so every term of J but the unit has hbar order at
    least 1.
    """
    return [K.hbar_component(n).filtration_degree()
            for n in range(K.order + 1)]


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


def _random_gauge(uea: UEnvelope, rng, n: int, order: int) -> AdtElement:
    """Q = 1 + hbar^n u for a random invariant u of leg length <= n - 2.

    Acting by Q keeps a twist in its gauge class and leaves its equation
    residual zero through order n - 1; the solver then corrects order n
    as usual, so different draws give different but equivalent twists.
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
    return (AdtElement.unit(uea, 1, order)
            + AdtElement(uea, 1, terms, order).shift(n))


def solve_adte(rho: RMatrix, N: int, uea: UEnvelope | None = None,
               perturb_seed=None) -> TwistPair:
    """Quantize an r-matrix to an algebraic dynamical twist mod hbar^{N+1}.

    At each order n the new coefficient is pinned to the antisymmetrized
    embedding of the order-n layer of the rescaled r-matrix plus an
    invariant correction of leg length at most n - 2, found by solving a
    coboundary equation against the order-n equation residual.  When that
    linear problem has no solution the order-n obstruction is reported as
    ObstructionNotRepaired; no lower order is re-opened.  Each order
    computes one residual layer (the pairs K_a, K_b with a + b = n).  The
    full residual recomputed at the end is the one verdict: its layer n
    is the order-n closure, since no later order changes K mod hbar^(n+1).

    With perturb_seed set, each order from 2 on first acts on K by a
    seeded gauge 1 + hbar^n u, so different seeds give different twists
    of one gauge class.  `find_gauge` certifies this on sl2 at orders 3
    to 6; on affxc2 it misses some pairs from order 3 on (it never adds
    an arity-1 cocycle to an earlier gauge factor).
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
            K = gauge_act_algebraic(_random_gauge(uea, rng, n, order), K)
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
    res = adte_residual(K)
    if not res.is_zero():
        raise ObstructionNotRepaired(
            "final residual nonzero after order-by-order solve",
            order=res.hbar_valuation(), obstruction=res,
        )
    certificate = valuation_certificate(K)
    for n, f in enumerate(certificate):
        if n >= 1 and f > n - 1:
            raise ValuationViolated(
                f"order-{n} coefficient has leg length {f} > {n - 1}"
            )
    J = k_to_j(uea, K)
    return TwistPair(K, J, certificate, res)
