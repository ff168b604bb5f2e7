"""Truncated L-infinity machinery connecting the two dgla's.

Both sides are wrapped as honest dgla's with the standard axioms:

* the classical side keeps its differential and Schouten-type bracket;
* the twist side uses the negative coboundary together with the sign
  twist [P,Q]' = -(-1)^{deg P deg Q} [P,Q]_G, which is exactly the
  convention under which twist elements are Maurer-Cartan and the
  standard Leibniz rule holds.

Morphism towers are stored as explicit multilinear structure maps
F^n : Lambda^n(source) -> target, evaluated on demand and memoized per
tower by argument value, so a transport computes each F^n(x1, ..., xn)
once however many subsets and partitions ask for it.  Koszul signs are
computed in the double-shifted grading where Maurer-Cartan elements sit
in degree 0 (so transport of such elements needs no signs at all).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import adt_dgla, cdyb_dgla
from .adt_dgla import AdtElement, gerstenhaber_bracket, invariant_adt_basis
from .errors import ContractFailure, GradingMismatch, MorphismUnsound
from .hseries import add_into, quotient
from .lie_core import LieData
from .linalg import pivots, solve
# bound but never called: perfbench/test_perfbench.py reads linfinity.rref
# to check that its tracer wraps a name imported into another module
from .linalg import rref  # noqa: F401
from .tensor_spaces import CdybElement, invariant_cdyb_basis
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


def _subsets(n):
    """Proper nonempty subsets of range(n) containing 0, with complements."""
    rest = list(range(1, n))
    for r in range(0, n - 1):
        for extra in itertools.combinations(rest, r):
            A = (0,) + extra
            B = tuple(i for i in range(1, n) if i not in extra)
            yield A, B


def _set_partitions(items):
    """All set partitions; blocks ordered by minimum, sorted internally."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


# -- dgla wrappers ----------------------------------------------------------


class LinfAlgebra:
    """A dgla presented through its two structure operations.

    Subclasses provide q1 (the differential), bracket (a standard graded
    Lie bracket), a degree function, and sampling of homogeneous
    invariant elements for property checks.
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

    def sample_elements(self, rng, count):
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

    def filtration(self, x):
        degs = x.sh_degrees()
        return max(degs) if degs else 0

    def zero(self):
        return CdybElement.zero(self.order)

    def sample_elements(self, rng, count):
        out = []
        guard = 0
        while len(out) < count and guard < 50 * count:
            guard += 1
            k = rng.randint(1, 3)
            l = rng.randint(0, 2)
            rows = invariant_cdyb_basis(self.lie, k, l)
            if rows:
                out.append(CdybElement(dict(rng.choice(rows)), self.order))
        return out


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
        raw = gerstenhaber_bracket(x, y, check_invariance=False)
        p, q = x.arity - 1, y.arity - 1
        return raw.scale(-1) if (p * q) % 2 == 0 else raw

    def degree(self, x):
        return x.arity - 1

    def zero(self):
        return AdtElement.zero(self.uea, 1, self.order)

    def invariant_slice(self, arity, total_length):
        rows = invariant_adt_basis(self.uea, arity, total_length)
        return [
            AdtElement(self.uea, arity, dict(r), self.order) for r in rows
        ]

    def sample_elements(self, rng, count):
        # lengths are kept small: relation residuals at arity 3 touch
        # slices of three times the sampled length
        out = []
        guard = 0
        while len(out) < count and guard < 50 * count:
            guard += 1
            k = rng.randint(1, 2)
            L = rng.randint(0, 1)
            slice_elts = self.invariant_slice(k, L)
            if slice_elts:
                out.append(rng.choice(slice_elts))
        return out


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

    def sample_elements(self, rng, count):
        out = []
        for e in self.ambient.sample_elements(rng, 20 * count):
            pe = self.contraction.proj(e)
            if not pe.is_zero():
                out.append(pe)
            if len(out) == count:
                break
        return out


class SplitTargetDgla(ProjectedDgla):
    """Ambient space seen as image-plus-kernel with bracket on the image.

    The differential is unchanged (both summands are subcomplexes); the
    bracket keeps only the projected part of the projected arguments.
    """

    def bracket(self, x, y):
        p = self.contraction.proj
        return p(self.ambient.bracket(p(x), p(y)))

    def sample_elements(self, rng, count):
        return self.ambient.sample_elements(rng, count)


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
    """

    def __init__(self, uea: UEnvelope, splitter: UmSplitter):
        self.uea = uea
        self.splitter = splitter
        self.dgla = AdtDgla(uea, 0)
        self._cache: dict = {}

    def _complement(self, k: int, L: int):
        """Complement of the cocycles in the kernel, up to length L.

        The candidates are the choice at L - 1, then x - p(x) for each
        invariant basis vector x of length L, in slice order.  A
        candidate is independent of the cocycles and of the candidates
        before it exactly when its q1 image is independent of theirs, so
        A keeps the candidates at the pivots of their images and the
        choice at L extends the choice at L - 1.
        """
        key = ("A", k, L)
        if key not in self._cache:
            cands = list(self._complement(k, L - 1)) if L > 0 else []
            for r in invariant_adt_basis(self.uea, k, L):
                e = AdtElement(self.uea, k, dict(r), 0)
                ne = e - adt_dgla.p2_project(self.splitter, e)
                if not ne.is_zero():
                    cands.append(ne)
            images = [self.dgla.q1(a).layer(0) for a in cands]
            self._cache[key] = [cands[j] for j in pivots(images)]
        return self._cache[key]

    def _columns(self, k: int, L: int):
        """(columns, A_terms) of `_decompose`'s system, built once.

        The columns are q1(a) for a in A at arity k - 1, then A at
        arity k; A_terms are the arity k - 1 elements of A.
        """
        key = ("D", k, L)
        if key not in self._cache:
            A_lower = self._complement(k - 1, L) if k >= 1 else []
            A_terms = [a.layer(0) for a in A_lower]
            columns = [self.dgla.q1(a).layer(0) for a in A_lower]
            columns += [a.layer(0) for a in self._complement(k, L)]
            self._cache[key] = columns, A_terms
        return self._cache[key]

    def _decompose(self, k: int, L: int, x: AdtElement):
        """Write the kernel element x as q1(a) + a' with a, a' in A."""
        columns, A_terms = self._columns(k, L)
        # the same rational system serves every hbar order
        sols = solve(columns, [x.layer(n) for n in range(x.order + 1)])
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


def quantum_contraction(uea: UEnvelope, order: int) -> Contraction:
    splitter = UmSplitter(uea)
    g = AdtDgla(uea, order)
    h = _QuantumHomotopy(uea, splitter)
    return Contraction(g, lambda x: adt_dgla.p2_project(splitter, x), h)


# -- morphism towers --------------------------------------------------------


class MorphismTower:
    """Structure maps F^1..F^A of a coalgebra morphism between dgla's.

    Memo contract: every structure map is a pure function of the values
    of its arguments, and elements are never mutated after construction.
    So `apply` evaluates each map at most once per distinct argument
    tuple, keyed by value rather than identity, and answers zero without
    evaluating when an argument is zero (the maps are multilinear).  A
    strict tower has no nonzero maps above arity one.
    """

    def __init__(self, source, target, maps, arity_bound, strict=False):
        self.source = source
        self.target = target
        self.maps = list(maps)
        self.arity_bound = arity_bound
        self.strict = strict
        self._memo: dict = {}

    def apply(self, n, args):
        if n < 1 or n > self.arity_bound or (self.strict and n > 1):
            return self.target.zero()
        if any(a.is_zero() for a in args):
            return self.target.zero()
        key = (n, tuple(a.value_key() for a in args))
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = self.maps[n - 1](*args)
        return out


def strict_tower(f1, source, target, arity_bound) -> MorphismTower:
    return MorphismTower(source, target, [f1], arity_bound, strict=True)


def _bracket_defect(T: MorphismTower, args, degs):
    """The bracket terms of the morphism relation at arity len(args).

    This is the failure term the next structure map has to repair: the
    target-bracket pairings of lower maps minus the lower maps applied
    to source brackets.
    """
    n = len(args)
    src, tgt = T.source, T.target
    res = tgt.zero()
    for A, B in _subsets(n):
        perm = A + B
        sign = koszul_sign(degs, perm)
        u = T.apply(len(A), tuple(args[i] for i in A))
        v = T.apply(len(B), tuple(args[i] for i in B))
        su = sum(degs[i] for i in A)
        term = tgt.q2(u, v, su)
        if sign < 0:
            term = term.scale(-1)
        res = res + term
    for i, j in itertools.combinations(range(n), 2):
        rest = [x for x in range(n) if x not in (i, j)]
        perm = [i, j] + rest
        sign = koszul_sign(degs, perm)
        w = src.q2(args[i], args[j], degs[i])
        term = T.apply(n - 1, (w,) + tuple(args[x] for x in rest))
        if sign > 0:
            term = term.scale(-1)
        res = res + term
    return res


def morphism_residual(T: MorphismTower, args, degs=None):
    """Exact residual of the L-infinity morphism relation at this arity."""
    n = len(args)
    src, tgt = T.source, T.target
    if degs is None:
        degs = [src.s_degree(a) for a in args]
    res = tgt.q1(T.apply(n, args))
    for i in range(n):
        sign = (-1) ** (sum(degs[:i]) % 2)
        repl = tuple(
            src.q1(a) if j == i else a for j, a in enumerate(args)
        )
        term = T.apply(n, repl)
        if sign > 0:
            term = term.scale(-1)
        res = res + term
    return res + _bracket_defect(T, args, degs)


def check_morphism(T: MorphismTower, arity: int, samples: int, seed=0):
    """Evaluate the morphism relations on sampled invariant elements.

    Returns a report dict; `ok` means every sampled residual was exactly
    zero.
    """
    rng = random.Random(seed)
    report = {"ok": True, "failures": [], "checked": 0}
    for n in range(1, arity + 1):
        for _ in range(samples):
            args = tuple(T.source.sample_elements(rng, n))
            if len(args) < n:
                continue
            res = morphism_residual(T, args)
            report["checked"] += 1
            if not res.is_zero():
                report["ok"] = False
                report["failures"].append((n, args, res))
    return report


def _partition_sum(outer: MorphismTower, inner: MorphismTower, args,
                   partitions, zero):
    """zero + sum over partitions of +-outer(inner(block), ...).

    Each block feeds `inner` its arguments in increasing position; the
    blocks go to `outer` ordered by their least position, with the Koszul
    sign of that reordering in the grading of `inner`'s source.
    """
    degs = [inner.source.s_degree(a) for a in args]
    out = zero
    for part in partitions:
        blocks = sorted(part, key=min)
        perm = [i for blk in blocks for i in sorted(blk)]
        sign = koszul_sign(degs, perm)
        term = outer.apply(len(blocks), tuple(
            inner.apply(len(blk), tuple(args[i] for i in sorted(blk)))
            for blk in blocks
        ))
        if sign < 0:
            term = term.scale(-1)
        out = out + term
    return out


def compose_towers(G: MorphismTower, F: MorphismTower) -> MorphismTower:
    """Coalgebra composition G o F, truncated to the smaller bound."""
    bound = min(G.arity_bound, F.arity_bound)
    src, tgt = F.source, G.target

    def partitions(n):
        # a strict G vanishes on two or more blocks, a strict F on any
        # block of size two or more
        if G.strict:
            return [[list(range(n))]]
        if F.strict:
            return [[[i] for i in range(n)]]
        return _set_partitions(list(range(n)))

    def make(n):
        return lambda *args: _partition_sum(G, F, args, partitions(n),
                                            tgt.zero())

    return MorphismTower(
        src, tgt, [make(n) for n in range(1, bound + 1)], bound,
        strict=G.strict and F.strict,
    )


def invert_tower(F: MorphismTower) -> MorphismTower:
    """Inverse of a tower whose first map is the identity."""
    src, tgt = F.target, F.source
    H = MorphismTower(src, tgt, [lambda x: x], F.arity_bound)

    def make(n):
        def mapped(*args):
            parts = (p for p in _set_partitions(list(range(n))) if len(p) > 1)
            return _partition_sum(F, H, args, parts, tgt.zero()).scale(-1)

        return mapped

    for n in range(2, F.arity_bound + 1):
        H.maps.append(make(n))
    return H


def invert_contraction(C: Contraction, arity_bound: int):
    """Build the inclusion tower of a contraction's image.

    Returns the tower Q with Q^1 the inclusion of the projected dgla
    into the ambient one, plus the straightening tower F and the
    reduction tower R = proj o F as attributes of the result tuple
    (Q, F, R).
    """
    ambient = C.dgla
    split = SplitTargetDgla(C)
    F = MorphismTower(ambient, split, [lambda x: x], arity_bound)

    def make(n):
        def mapped(*args):
            degs = [ambient.s_degree(a) for a in args]
            defect = _bracket_defect(F, args, degs)
            if not C.proj(defect).is_zero():
                raise ContractFailure(
                    "relation defect has a component outside the kernel"
                )
            return C.h(defect).scale(-1)

        return mapped

    for n in range(2, arity_bound + 1):
        F.maps.append(make(n))

    H = invert_tower(F)
    # re-type the endpoints of H: it maps the split target back
    sub = ProjectedDgla(C)
    incl = strict_tower(lambda x: x, sub, split, arity_bound)
    Q = compose_towers(H, incl)
    Q.source = sub
    Q.target = ambient
    proj_tower = strict_tower(C.proj, split, sub, arity_bound)
    R = compose_towers(proj_tower, F)
    R.source = ambient
    R.target = sub
    return Q, F, R


# -- homotopy twisting (arity <= 3) -----------------------------------------


def _pairs_add(acc, coeff, u, su, v, sv):
    if u.is_zero() or v.is_zero():
        return
    acc.append((coeff, u, su, v, sv))


def twist_by_homotopy(F: MorphismTower, V) -> MorphismTower:
    """Twist a morphism tower by a degree -1 map V: source -> target.

    The first structure map becomes F^1 + q1 V + V q1 and the higher
    maps are produced by the coderivation-style extension of V, written
    out explicitly up to arity 3, F's arity bound.
    """
    arity_bound = F.arity_bound
    if arity_bound > 3:
        raise GradingMismatch("homotopy twisting is implemented to arity 3")
    src, tgt = F.source, F.target

    def W1(x):
        return tgt.q1(V(x)) + V(src.q1(x))

    def psi1(x):
        return F.apply(1, (x,)) + W1(x)

    def v2_pairs(args, degs):
        """S^2-component of the extension on a length-2 word."""
        (x, y), (sx, sy) = args, degs
        acc = []
        orderings = [((x, sx), (y, sy), 1)]
        swap_sign = -1 if (sx % 2 and sy % 2) else 1
        orderings.append(((y, sy), (x, sx), swap_sign))
        for (a, sa), (b, sb), eps in orderings:
            sga = -1 if sa % 2 else 1
            _pairs_add(
                acc,
                Fraction(eps * sga, 2),
                F.apply(1, (a,)),
                sa,
                V(b),
                sb - 1,
            )
            _pairs_add(acc, Fraction(eps, 2), V(a), sa - 1, F.apply(1, (b,)), sb)
            _pairs_add(acc, Fraction(eps, 4), V(a), sa - 1, W1(b), sb)
            _pairs_add(acc, Fraction(eps * sga, 4), W1(a), sa, V(b), sb - 1)
        return acc

    def w2(args, degs):
        """Target-component of the extension's W on a length-2 word."""
        out = tgt.zero()
        for coeff, u, su, v, sv in v2_pairs(args, degs):
            out = out + tgt.q2(u, v, su).scale(coeff)
        out = out + V(src.q2(args[0], args[1], degs[0]))
        return out

    def psi2(x, y):
        degs = (src.s_degree(x), src.s_degree(y))
        return F.apply(2, (x, y)) + w2((x, y), degs)

    def v2_pairs3(args, degs):
        """S^2-component of the extension on a length-3 word."""
        acc = []
        idx = (0, 1, 2)
        for A in itertools.combinations(idx, 2):
            b = [i for i in idx if i not in A][0]
            perm = list(A) + [b]
            eps = koszul_sign(degs, perm)
            sA = degs[A[0]] + degs[A[1]]
            sga = -1 if sA % 2 else 1
            argsA = (args[A[0]], args[A[1]])
            degsA = (degs[A[0]], degs[A[1]])
            _pairs_add(
                acc,
                Fraction(eps * sga, 2),
                F.apply(2, argsA),
                sA,
                V(args[b]),
                degs[b] - 1,
            )
            _pairs_add(
                acc,
                Fraction(eps * sga, 4),
                w2(argsA, degsA),
                sA,
                V(args[b]),
                degs[b] - 1,
            )
        for a in idx:
            B = tuple(i for i in idx if i != a)
            perm = [a] + list(B)
            eps = koszul_sign(degs, perm)
            argsB = (args[B[0]], args[B[1]])
            degsB = (degs[B[0]], degs[B[1]])
            sB = degsB[0] + degsB[1]
            _pairs_add(
                acc,
                Fraction(eps, 2),
                V(args[a]),
                degs[a] - 1,
                F.apply(2, argsB),
                sB,
            )
            _pairs_add(
                acc,
                Fraction(eps, 4),
                V(args[a]),
                degs[a] - 1,
                w2(argsB, degsB),
                sB,
            )
        return acc

    def psi3(x, y, z):
        args = (x, y, z)
        degs = tuple(src.s_degree(a) for a in args)
        out = F.apply(3, args)
        for coeff, u, su, v, sv in v2_pairs3(args, degs):
            out = out + tgt.q2(u, v, su).scale(coeff)
        return out

    maps = [psi1, psi2, psi3][:arity_bound]
    return MorphismTower(src, tgt, maps, arity_bound)


# -- Maurer-Cartan transport ------------------------------------------------


def mc_transport(T: MorphismTower, alpha, check: bool = True):
    """Push a Maurer-Cartan element through a morphism tower.

    alpha must have degree-0 shifted parity (bivector-type) so that no
    Koszul signs appear in the symmetric powers.
    """
    out = T.target.zero()
    fact = 1
    for n in range(1, T.arity_bound + 1):
        fact *= n
        term = T.apply(n, (alpha,) * n)
        out = out + term.scale(quotient(1, fact))
    if check:
        res = T.target.mc_residual(out)
        if not res.is_zero():
            raise MorphismUnsound(
                "transported element fails the Maurer-Cartan equation"
            )
    return out
