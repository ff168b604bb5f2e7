"""Truncated L-infinity machinery connecting the two dgla's.

Both sides are wrapped as honest dgla's with the standard axioms:

* the classical side keeps its differential and Schouten-type bracket;
* the twist side uses the negative coboundary together with the sign
  twist [P,Q]' = -(-1)^{deg P deg Q} [P,Q]_G, which is exactly the
  convention under which twist elements are Maurer-Cartan and the
  standard Leibniz rule holds.

Morphism towers are stored as explicit multilinear structure maps
F^n : Lambda^n(source) -> target, evaluated on demand and memoized per
tower by argument value.  The bracket defect that defines a higher map
sums over classes of equal arguments, not over argument subsets, and
reads the source bracket at arity 2 alone, so the transport of a
Maurer-Cartan element alpha evaluates one map per arity: F^n(alpha, ...,
alpha), from the n - 1 splittings of its n equal arguments into the
lower maps already evaluated.  Koszul signs are computed
in the double-shifted grading where Maurer-Cartan elements sit in degree
0 (so transport of such elements needs no signs at all).

A contraction gives the inclusion tower Q (`invert_contraction`); its
reduction side is the projection itself.  The oracles that certify them
are test code, in `tests/oracles.py`.
"""

from __future__ import annotations

import itertools
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


# -- sign bookkeeping -------------------------------------------------------


def koszul_sign(degs, perm):
    """Koszul sign of reordering homogeneous slots into the order `perm`.

    `degs[i]` is the (shifted) degree of the i-th original slot; `perm`
    lists original positions in their new order.
    """
    s = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b] and degs[perm[a]] % 2 and degs[perm[b]] % 2:
                s = -s
    return s


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

    def s_degree(self, x) -> int:
        return self.degree(x) - 1

    def zero(self):
        raise NotImplementedError

    def q2(self, x, y, sx):
        """Decalage bracket: the coderivation pairing on shifted slots."""
        out = self.bracket(x, y)
        return out.scale(-1) if sx % 2 else out

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


class ProjectedDgla(LinfAlgebra):
    """The image of a contraction's projection, as a dgla of its own."""

    def __init__(self, contraction: "Contraction"):
        self.contraction = contraction
        self.ambient = contraction.dgla
        self.order = self.ambient.order

    def q1(self, x):
        return self.ambient.q1(x)

    def bracket(self, x, y):
        return self.contraction.proj(self.ambient.bracket(x, y))

    def degree(self, x):
        return self.ambient.degree(x)

    def zero(self):
        return self.ambient.zero()


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


# -- morphism towers --------------------------------------------------------


class MorphismTower:
    """Structure maps F^1..F^A of a coalgebra morphism between dgla's.

    The arity bound A is the number of maps: `apply` answers zero above
    it, and a strict morphism lists its higher maps as zero maps.

    Memo contract: every structure map is a pure function of the values
    of its arguments, and elements are never mutated after construction.
    So `apply` evaluates each map at most once per distinct argument
    tuple, keyed by value rather than identity, and answers zero without
    evaluating when an argument is zero (the maps are multilinear).
    """

    def __init__(self, source, target, maps):
        self.source = source
        self.target = target
        self.maps = list(maps)
        self._memo: dict = {}

    def apply(self, n, args):
        if n < 1 or n > len(self.maps):
            return self.target.zero()
        if any(a.is_zero() for a in args):
            return self.target.zero()
        key = (n, tuple(a.value_key() for a in args))
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = self.maps[n - 1](*args)
        return out


def _argument_classes(args, degs):
    """[value, shifted degree, count] per argument class.

    Equal arguments of even shifted degree form one class; each argument
    of odd degree is a class of its own, since the relative order of the
    odd arguments sets the Koszul signs.  Classes come in the order of
    their first argument, so the odd ones keep their relative order and
    the first class holds the first argument.
    """
    classes = []
    even = {}
    for a, d in zip(args, degs):
        if d % 2 == 0:
            key = a.value_key()
            cls = even.get(key)
            if cls is not None:
                cls[2] += 1
                continue
            even[key] = cls = [a, d, 1]
        else:
            cls = [a, d, 1]
        classes.append(cls)
    return classes


def _expand(classes, counts):
    """The arguments that take counts[c] members of each class c."""
    return tuple(
        cls[0] for cls, m in zip(classes, counts) for _ in range(m)
    )


def _bracket_defect(T: MorphismTower, args, degs):
    """The bracket terms of the morphism relation of a perturbed tower.

    This is the failure term the next structure map has to repair: the
    target-bracket pairings of lower maps minus the lower maps applied
    to source brackets.  Only the source term of arity 2 is summed: the
    source bracket of the two arguments, as the first map is the
    identity.  Every other one is a map of T of arity n - 1 >= 2, which
    is -h(...) (`_perturbed_tower`), and as h h = 0 and p h = 0 it
    drops out of both uses of the defect, -h(defect) and the check
    p(defect).  For Q, h p = 0 erases the arity-2 term from -h(defect)
    too, but the check reads it.  These side conditions are tested in
    `test_contraction_side_conditions`; the full relation of any tower
    is `bracket_defect` in `tests/reference_kernels.py`.

    The maps are graded symmetric, so a target pairing depends only on
    how many members of each argument class (`_argument_classes`) it
    takes, and the sum runs over those counts, each term weighted by
    the number of argument subsets that take them.  The pairings keep
    the first argument on the left, so a left side with a members of
    the first class (m members) is one of C(m - 1, a - 1) subsets, not
    C(m, a).
    """
    n = len(args)
    tgt = T.target
    classes = _argument_classes(args, degs)
    cdegs = [d for _, d, _ in classes]
    sizes = [m for _, _, m in classes]
    res = tgt.zero()
    ranges = [range(1, sizes[0] + 1)] + [range(m + 1) for m in sizes[1:]]
    for left in itertools.product(*ranges):
        right = [m - a for m, a in zip(sizes, left)]
        if not any(right):
            continue
        u = T.apply(sum(left), _expand(classes, left))
        if u.is_zero():
            continue
        v = T.apply(n - sum(left), _expand(classes, right))
        if v.is_zero():
            continue
        coeff = comb(sizes[0] - 1, left[0] - 1)
        for m, a in zip(sizes[1:], left[1:]):
            coeff *= comb(m, a)
        perm = ([c for c, a in enumerate(left) if a]
                + [c for c, b in enumerate(right) if b])
        coeff *= koszul_sign(cdegs, perm)
        su = sum(a * d for a, d in zip(left, cdegs))
        res = res + tgt.q2(u, v, su).scale(coeff)
    if n == 2:
        res = res - T.source.q2(args[0], args[1], degs[0])
    return res


def _perturbed_tower(C: Contraction, source, target, arity_bound):
    """The tower with first map the identity and n-th map -h(defect).

    The defect is the bracket defect of the maps below arity n, less
    the source terms that h erases (`_bracket_defect`).  It must lie in
    the kernel of the projection, where q1 h + h q1 is the identity;
    ContractFailure is raised when it does not.
    """
    T = MorphismTower(source, target, [lambda x: x])

    def higher(*args):
        degs = [source.s_degree(a) for a in args]
        defect = _bracket_defect(T, args, degs)
        if not C.proj(defect).is_zero():
            raise ContractFailure(
                "relation defect has a component outside the kernel"
            )
        return C.h(defect).scale(-1)

    T.maps += [higher] * (arity_bound - 1)
    return T


def invert_contraction(C: Contraction, arity_bound: int) -> MorphismTower:
    """The inclusion tower Q of a contraction, up to `arity_bound`.

    Q includes the projected dgla into the ambient one.  It shares the
    recursion of the tower F that straightens the ambient dgla onto its
    split target (image plus kernel, with the bracket on the image): the
    first map is the identity and the higher maps are -h of the bracket
    defect.  As h h = 0, p h = 0 and h p = 0, Q is the only tower with
    the inclusion as first map and higher maps in the image of h, so it
    is the inverse of F composed with the inclusion, and they erase
    every source term of the defect but one (`_bracket_defect`), so
    transport evaluates one map per arity.  The reduction R =
    proj o F is strict: its first map is proj, and as p h = 0 every
    higher map R^n = p(F^n) = -p h(defect) is zero.  So transport along
    R is proj itself, and no tower is built for it.  F, R and
    `check_morphism` live in `tests/oracles.py`.
    """
    return _perturbed_tower(C, ProjectedDgla(C), C.dgla, arity_bound)


# -- Maurer-Cartan transport ------------------------------------------------


def mc_transport(T: MorphismTower, alpha):
    """Push a Maurer-Cartan element through a morphism tower.

    alpha must have degree-0 shifted parity (bivector-type) so that no
    Koszul signs appear in the symmetric powers.  MorphismUnsound is
    raised unless the result's recomputed Maurer-Cartan residual is zero.
    """
    out = T.target.zero()
    fact = 1
    for n in range(1, len(T.maps) + 1):
        fact *= n
        term = T.apply(n, (alpha,) * n)
        out = out + term.scale(quotient(1, fact))
    if not T.target.mc_residual(out).is_zero():
        raise MorphismUnsound(
            "transported element fails the Maurer-Cartan equation"
        )
    return out
