"""Truncated L-infinity machinery connecting the two dgla's.

Both sides are wrapped as honest dgla's with the standard axioms:

* the classical side keeps its differential and Schouten-type bracket;
* the twist side uses the negative coboundary together with the sign
  twist [P,Q]' = -(-1)^{deg P deg Q} [P,Q]_G, which is exactly the
  convention under which twist elements are Maurer-Cartan and the
  standard Leibniz rule holds.

A contraction (p, h) of a dgla gives the inclusion tower Q of the
projected dgla into the ambient one (`invert_contraction`), the
L-infinity quasi-isomorphism of homotopy transfer.  Maurer-Cartan
transport reads Q on the diagonal alone, Q^n(pi, ..., pi), so
`MorphismTower` computes only those values: y_1 = pi and, for n >= 2,
y_n = -h(sum_a C(n - 1, a - 1) [y_a, y_(n-a)]), less p[pi, pi] at
n = 2.  This is the homotopy-transfer formula for Maurer-Cartan
elements (E. Getzler, "Lie theory for nilpotent L-infinity algebras",
arXiv math/0404003; J.-L. Loday, B. Vallette, "Algebraic Operads",
10.3).  A Maurer-Cartan element has degree 1, even in the shifted
grading, so the recursion carries no Koszul signs.  The reduction side
is the projection itself.  The tower on arbitrary arguments, and the
oracles that certify it as an L-infinity morphism, are test code, in
`tests/oracles.py`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import adt_dgla, cdyb_dgla
from .adt_dgla import AdtElement, gerstenhaber_bracket, invariant_adt_basis
from .errors import ContractFailure, GradingMismatch, MorphismUnsound
from .hseries import add_into, canonical, quotient, sum_layers
from .lie_core import LieData
from .linalg import Factorization, pivots
# bound but never called: perfbench/test_perfbench.py reads linfinity.rref
# to check that its tracer wraps a name imported into another module
from .linalg import rref  # noqa: F401
from .tensor_spaces import CdybElement
from .uea import UEnvelope, UmSplitter

_HALF = Fraction(1, 2)


# -- dgla wrappers ----------------------------------------------------------


class LinfAlgebra:
    """A dgla presented through its two structure operations.

    Subclasses provide q1 (the differential), bracket (a standard graded
    Lie bracket), a degree function and the zero element.
    """

    order: int

    def q1(self, x):
        raise NotImplementedError

    def bracket(self, x, y):
        raise NotImplementedError

    def degree(self, x) -> int:
        raise NotImplementedError

    def zero(self):
        raise NotImplementedError

    def mc_residual(self, alpha):
        return self.q1(alpha) + self.bracket(alpha, alpha).scale(_HALF)


class CdybDgla(LinfAlgebra):
    """Classical side: wedge powers with polynomial leg."""

    def __init__(self, lie: LieData, order: int):
        self.lie = lie
        self.order = order

    def q1(self, x):
        return cdyb_dgla.differential(x)

    def bracket(self, x, y):
        return cdyb_dgla.bracket(self.lie, x, y)

    def degree(self, x):
        degs = x.exterior_degrees()
        if len(degs) > 1:
            raise GradingMismatch(f"mixed exterior degrees {degs}")
        return (degs[0] - 1) if degs else 0

    def zero(self):
        return CdybElement.zero(self.order)


class AdtDgla(LinfAlgebra):
    """Twist side: tensor powers of the enveloping algebra with a leg.

    The differential is the negative coboundary and the bracket carries
    the sign twist described in the module docstring; together they obey
    the standard dgla axioms and make twists Maurer-Cartan.
    """

    def __init__(self, uea: UEnvelope, order: int):
        self.uea = uea
        self.order = order

    def q1(self, x):
        return adt_dgla.differential_b(x).scale(-1)

    def bracket(self, x, y):
        raw = gerstenhaber_bracket(x, y)
        p, q = x.arity - 1, y.arity - 1
        return raw.scale(-1) if (p * q) % 2 == 0 else raw

    def degree(self, x):
        return x.arity - 1

    def zero(self):
        return AdtElement.zero(self.uea, 1, self.order)


# -- contractions -----------------------------------------------------------


class Contraction:
    """A chain projection with an explicit homotopy.

    proj is an idempotent chain endomorphism of the ambient space and h
    satisfies q1 h + h q1 = id - proj everywhere.
    """

    def __init__(self, dgla: LinfAlgebra, proj, h):
        self.dgla = dgla
        self.proj = proj
        self.h = h

    def check_identity(self, x) -> bool:
        g = self.dgla
        lhs = g.q1(self.h(x)) + self.h(g.q1(x))
        rhs = x - self.proj(x)
        return lhs == rhs


def classical_contraction(lie: LieData, order: int) -> Contraction:
    g = CdybDgla(lie, order)
    return Contraction(
        g,
        lambda x: cdyb_dgla.p1_project(lie, x),
        lambda x: cdyb_dgla.delta_homotopy(lie, x),
    )


class _QuantumHomotopy:
    """Slice-built homotopy for the twist-side contraction.

    The kernel N of the factorwise projection p is an acyclic complex
    that splits by total length.  In each arity a complement A of the
    cocycles in N is chosen by exact elimination on q1 images; each
    element of N is q1(a) + a' with a, a' in A, and h sends it to a.
    A depends on the arity and the length bound alone, so h is one
    linear map, whatever inputs it has seen.

    The complement and its q1 images are built as plain {key: rational}
    dicts of hbar order 0, straight from the invariant basis vectors
    (`_kernel_part`, `_q1_image`), and cached as dicts.  Each (arity,
    length) system of the decomposition is factored once
    (`linalg.Factorization`) and answers every later input by
    substitution; each answer is still checked by recomputing its image.
    Cached dicts are shared with the factored systems and must not be
    mutated.
    """

    def __init__(self, uea: UEnvelope, splitter: UmSplitter):
        self.uea = uea
        self.splitter = splitter
        self._cache: dict = {}

    def _complement(self, k: int, L: int):
        """(A, images): the complement of the cocycles in the kernel, up
        to length L, and the q1 image of each of its elements, as dicts.

        The candidates are the choice at L - 1, then x - p(x) for each
        invariant basis vector x of length L, in slice order.  A
        candidate is independent of the cocycles and of the candidates
        before it exactly when its q1 image is independent of theirs, so
        A keeps the candidates at the pivots of their images and the
        choice at L extends the choice at L - 1, whose images are kept.
        The values and key order are those of the element arithmetic
        x - p2_project(x) and -b(x - p(x)).
        """
        key = ("A", k, L)
        cached = self._cache.get(key)
        if cached is None:
            if L > 0:
                cands, images = map(list, self._complement(k, L - 1))
            else:
                cands, images = [], []
            for r in invariant_adt_basis(self.uea, k, L):
                ne = self._kernel_part(r)
                if ne:
                    cands.append(ne)
                    images.append(_q1_image(ne))
            keep = pivots(images)
            self._cache[key] = cached = ([cands[j] for j in keep],
                                         [images[j] for j in keep])
        return cached

    def _kernel_part(self, x: dict) -> dict:
        """x - p(x) for a basis vector x, key order as the element sum.

        p(x) is accumulated in a dict of its own first, as
        `adt_dgla.p2_project` builds it, and then subtracted key by key,
        x's keys first, as `SparseSeries._sum` does (`sum_layers`).
        """
        px: dict = {}
        for key, a in x.items():
            for new, _, c in adt_dgla.p2_image(self.splitter, key):
                add_into(px, new, a * c)
        return sum_layers(x, {k: canonical(c) for k, c in px.items()},
                          negate=True)

    def _columns(self, k: int, L: int):
        """(A_terms, factorization) of `_decompose`'s system, built once.

        The columns are q1(a) for a in A at arity k - 1, then A at
        arity k; A_terms are the arity k - 1 elements of A.
        """
        key = ("D", k, L)
        cached = self._cache.get(key)
        if cached is None:
            A_terms, images = (self._complement(k - 1, L) if k >= 1
                               else ([], []))
            columns = images + self._complement(k, L)[0]
            self._cache[key] = cached = A_terms, Factorization(columns)
        return cached

    def _decompose(self, k: int, L: int, x: AdtElement):
        """Write the kernel element x as q1(a) + a' with a, a' in A."""
        A_terms, system = self._columns(k, L)
        # the same rational system serves every hbar order
        sols = system.solve([x.layer(n) for n in range(x.order + 1)])
        if None in sols:
            raise ContractFailure(
                "homotopy decomposition failed on a kernel slice"
            )
        outs = [{} for _ in sols]
        for sol, out in zip(sols, outs):
            for j, v in sol.items():
                if j < len(A_terms):
                    for key, c in A_terms[j].items():
                        add_into(out, key, v * c)
        return AdtElement.from_layers(self.uea, max(k - 1, 0), outs)

    def __call__(self, x: AdtElement) -> AdtElement:
        xn = x - adt_dgla.p2_project(self.splitter, x)
        if xn.is_zero():
            return AdtElement.zero(self.uea, max(x.arity - 1, 0), x.order)
        L = max(xn.total_lengths())
        return self._decompose(xn.arity, L, xn)


def _q1_image(x: dict) -> dict:
    """q1(x) = -b(x) of an hbar-order-0 element given as a dict.

    Its values and key order are those of `differential_b(x).scale(-1)`:
    both sum b(D x) on ints (`adt_dgla.b_vector`).
    """
    den, bx = adt_dgla.b_vector(x)
    return {key: -quotient(a, den) for key, a in bx.items()}


def quantum_contraction(uea: UEnvelope, order: int) -> Contraction:
    splitter = UmSplitter(uea)
    g = AdtDgla(uea, order)
    h = _QuantumHomotopy(uea, splitter)
    return Contraction(g, lambda x: adt_dgla.p2_project(splitter, x), h)


# -- the inclusion tower ----------------------------------------------------


class MorphismTower:
    """The inclusion tower Q of a contraction C, on the diagonal.

    `apply(n, x)` is Q^n(x, ..., x): x at n = 1, and above it -h of the
    bracket defect, the sum over a of C(n - 1, a - 1) [Q^a(x^a),
    Q^(n-a)(x^(n-a))] (the splittings of n equal arguments that keep
    the first on the left), less p[x, x] at n = 2.  The other source
    terms of the defect are maps of Q, in the image of h, and h h = 0
    and p h = 0 erase them.  The defect must lie in the kernel of p,
    where q1 h + h q1 is the identity; ContractFailure is raised when
    it does not.

    `apply` answers zero above the arity bound and on x = 0 (the maps
    are multilinear), and memoizes each value on (n, `x.value_key()`),
    as elements are never mutated after construction.
    """

    def __init__(self, contraction: Contraction, arity_bound: int):
        self.contraction = contraction
        self.arity_bound = arity_bound
        self._memo: dict = {}

    def apply(self, n, x):
        g = self.contraction.dgla
        if n < 1 or n > self.arity_bound or x.is_zero():
            return g.zero()
        key = (n, x.value_key())
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = x if n == 1 else self._higher(n, x)
        return out

    def _higher(self, n, x):
        C = self.contraction
        g = C.dgla
        defect = g.zero()
        for a in range(1, n):
            u = self.apply(a, x)
            if u.is_zero():
                continue
            v = self.apply(n - a, x)
            if v.is_zero():
                continue
            defect = defect + g.bracket(u, v).scale(comb(n - 1, a - 1))
        if n == 2:
            defect = defect - C.proj(g.bracket(x, x))
        if not C.proj(defect).is_zero():
            raise ContractFailure(
                "relation defect has a component outside the kernel"
            )
        return C.h(defect).scale(-1)


def invert_contraction(C: Contraction, arity_bound: int) -> MorphismTower:
    """The inclusion tower Q of a contraction, up to `arity_bound`.

    Q includes the projected dgla into the ambient one.  It shares the
    recursion of the tower F that straightens the ambient dgla onto its
    split target (image plus kernel, with the bracket on the image): the
    first map is the identity and the higher maps are -h of the bracket
    defect.  As h h = 0, p h = 0 and h p = 0, Q is the only tower with
    the inclusion as first map and higher maps in the image of h, so it
    is the inverse of F composed with the inclusion.  The reduction R =
    proj o F is strict: its first map is proj, and as p h = 0 every
    higher map R^n = p(F^n) = -p h(defect) is zero.  So transport along
    R is proj itself, and no tower is built for it.  Q on arbitrary
    arguments, F, R and `check_morphism` live in `tests/oracles.py`.
    """
    return MorphismTower(C, arity_bound)


# -- Maurer-Cartan transport ------------------------------------------------


def mc_transport(T: MorphismTower, alpha):
    """Push a Maurer-Cartan element through the inclusion tower.

    The sum of Q^n(alpha, ..., alpha) / n! up to the arity bound.  alpha
    must have degree 1, the Maurer-Cartan degree (bivector type), or
    GradingMismatch is raised: the tower's recursion carries no Koszul
    signs.  MorphismUnsound is raised unless the result's recomputed
    Maurer-Cartan residual is zero.
    """
    g = T.contraction.dgla
    if not alpha.is_zero() and g.degree(alpha) != 1:
        raise GradingMismatch("Maurer-Cartan transport needs degree 1")
    out = g.zero()
    fact = 1
    for n in range(1, T.arity_bound + 1):
        fact *= n
        term = T.apply(n, alpha)
        out = out + term.scale(quotient(1, fact))
    if not g.mc_residual(out).is_zero():
        raise MorphismUnsound(
            "transported element fails the Maurer-Cartan equation"
        )
    return out
