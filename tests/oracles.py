"""The oracles that certify the L-infinity towers, the classical flows
and the command-line grammar.

`Tower` is a morphism tower on arbitrary arguments, given by its
structure maps, and `perturbed_tower` builds one by the homotopy
recursion, its bracket defect summed over classes of equal arguments
with Koszul signs (`class_defect`).  The package computes the
inclusion tower on the diagonal alone (`linfinity.MorphismTower`);
`inclusion_tower` is that tower on any arguments, and `transport`
pushes a Maurer-Cartan element through any tower.
`check_morphism` evaluates the morphism relations exactly on elements
that `sample_elements` draws from each dgla's invariant slices.
`straightening_tower` is the tower F onto the split target, which the
package never needs but which exercises Q's recursion on arguments of
mixed parity, and `reduction_tower` is the strict R = p o F, whose
transport the package computes as the projection; `strict_tower` lists
the zero higher maps of such a tower.  `twist_by_homotopy`
twists a tower to arity 3; `classical_gauge_infinitesimal` is the
classical flow in its mc and r forms; `alt` is the left inverse of
`adt_dgla.alt_embed`.
`build_parser` is the argparse grammar that `cli.parse_args` reads from
its tables.
"""

import argparse
import itertools
import random
from fractions import Fraction
from math import comb

from dyntwist import cdyb_dgla
from dyntwist.adt_dgla import AdtElement, invariant_adt_basis
from dyntwist.cli import _COMMANDS
from dyntwist.errors import (
    ContractFailure, GradingMismatch, MorphismUnsound,
)
from dyntwist.gauge import _as_generator
from dyntwist.hseries import quotient
from dyntwist.linfinity import AdtDgla, CdybDgla, LinfAlgebra
from dyntwist.tensor_spaces import (
    CdybElement, invariant_cdyb_basis, sym_sort, wedge_sort,
)

import reference_kernels


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


def s_degree(g, x) -> int:
    """Degree of x in the double-shifted grading of the dgla g, where
    Maurer-Cartan elements sit in degree 0."""
    return g.degree(x) - 1


def q2(g, x, y, sx):
    """Decalage bracket of g: the coderivation pairing on shifted slots."""
    out = g.bracket(x, y)
    return out.scale(-1) if sx % 2 else out


# -- the dgla wrappers ------------------------------------------------------


class ProjectedDgla(LinfAlgebra):
    """The image of a contraction's projection, as a dgla of its own."""

    def __init__(self, contraction):
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


class SplitTargetDgla(ProjectedDgla):
    """Ambient space seen as image-plus-kernel with bracket on the image.

    The differential is unchanged (both summands are subcomplexes); the
    bracket keeps only the projected part of the projected arguments.
    """

    def bracket(self, x, y):
        p = self.contraction.proj
        return p(self.ambient.bracket(p(x), p(y)))


def filtration(x):
    degs = x.sh_degrees()
    return max(degs) if degs else 0


def invariant_slice(g, arity, total_length):
    rows = invariant_adt_basis(g.uea, arity, total_length)
    return [
        AdtElement(g.uea, arity, dict(r), g.order) for r in rows
    ]


def _sample_cdyb(g, rng, count):
    out = []
    guard = 0
    while len(out) < count and guard < 50 * count:
        guard += 1
        k = rng.randint(1, 3)
        l = rng.randint(0, 2)
        rows = invariant_cdyb_basis(g.lie, k, l)
        if rows:
            out.append(CdybElement(dict(rng.choice(rows)), g.order))
    return out


def _sample_adt(g, rng, count):
    # lengths are kept small: relation residuals at arity 3 touch
    # slices of three times the sampled length
    out = []
    guard = 0
    while len(out) < count and guard < 50 * count:
        guard += 1
        k = rng.randint(1, 2)
        L = rng.randint(0, 1)
        slice_elts = invariant_slice(g, k, L)
        if slice_elts:
            out.append(rng.choice(slice_elts))
    return out


def _sample_projected(g, rng, count):
    out = []
    for e in sample_elements(g.ambient, rng, 20 * count):
        pe = g.contraction.proj(e)
        if not pe.is_zero():
            out.append(pe)
        if len(out) == count:
            break
    return out


def _sample_split(g, rng, count):
    return sample_elements(g.ambient, rng, count)


_SAMPLERS = {
    CdybDgla: _sample_cdyb,
    AdtDgla: _sample_adt,
    ProjectedDgla: _sample_projected,
    SplitTargetDgla: _sample_split,
}


def sample_elements(g, rng, count):
    """Up to `count` homogeneous invariant elements of the dgla g."""
    return _SAMPLERS[type(g)](g, rng, count)


# -- the tower on arbitrary arguments ---------------------------------------


class Tower:
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


def argument_classes(args, degs):
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


def expand(classes, counts):
    """The arguments that take counts[c] members of each class c."""
    return tuple(
        cls[0] for cls, m in zip(classes, counts) for _ in range(m)
    )


def class_defect(T: Tower, args, degs):
    """The bracket terms of the morphism relation of a perturbed tower.

    This is the failure term the next structure map has to repair: the
    target-bracket pairings of lower maps minus the lower maps applied
    to source brackets.  Only the source term of arity 2 is summed: the
    source bracket of the two arguments, as the first map is the
    identity.  Every other one is a map of T of arity n - 1 >= 2, which
    is -h(...) (`perturbed_tower`), and as h h = 0 and p h = 0 it
    drops out of both uses of the defect, -h(defect) and the check
    p(defect).  For Q, h p = 0 erases the arity-2 term from -h(defect)
    too, but the check reads it.  These side conditions are tested in
    `test_contraction_side_conditions`; the full relation of any tower
    is `bracket_defect` in `tests/reference_kernels.py`.

    The maps are graded symmetric, so a target pairing depends only on
    how many members of each argument class (`argument_classes`) it
    takes, and the sum runs over those counts, each term weighted by
    the number of argument subsets that take them.  The pairings keep
    the first argument on the left, so a left side with a members of
    the first class (m members) is one of C(m - 1, a - 1) subsets, not
    C(m, a).  On n equal arguments of even degree this is the sum that
    `linfinity.MorphismTower` computes.
    """
    n = len(args)
    tgt = T.target
    classes = argument_classes(args, degs)
    cdegs = [d for _, d, _ in classes]
    sizes = [m for _, _, m in classes]
    res = tgt.zero()
    ranges = [range(1, sizes[0] + 1)] + [range(m + 1) for m in sizes[1:]]
    for left in itertools.product(*ranges):
        right = [m - a for m, a in zip(sizes, left)]
        if not any(right):
            continue
        u = T.apply(sum(left), expand(classes, left))
        if u.is_zero():
            continue
        v = T.apply(n - sum(left), expand(classes, right))
        if v.is_zero():
            continue
        coeff = comb(sizes[0] - 1, left[0] - 1)
        for m, a in zip(sizes[1:], left[1:]):
            coeff *= comb(m, a)
        perm = ([c for c, a in enumerate(left) if a]
                + [c for c, b in enumerate(right) if b])
        coeff *= koszul_sign(cdegs, perm)
        su = sum(a * d for a, d in zip(left, cdegs))
        res = res + q2(tgt, u, v, su).scale(coeff)
    if n == 2:
        res = res - q2(T.source, args[0], args[1], degs[0])
    return res


def perturbed_tower(C, source, target, arity_bound):
    """The tower with first map the identity and n-th map -h(defect).

    The defect is the bracket defect of the maps below arity n, less
    the source terms that h erases (`class_defect`).  It must lie in
    the kernel of the projection, where q1 h + h q1 is the identity;
    ContractFailure is raised when it does not.
    """
    T = Tower(source, target, [lambda x: x])

    def higher(*args):
        degs = [s_degree(source, a) for a in args]
        defect = class_defect(T, args, degs)
        if not C.proj(defect).is_zero():
            raise ContractFailure(
                "relation defect has a component outside the kernel"
            )
        return C.h(defect).scale(-1)

    T.maps += [higher] * (arity_bound - 1)
    return T


def inclusion_tower(C, arity_bound):
    """Q: the projected dgla of C included into the ambient one.

    On n equal arguments of degree 1 its maps are the values of
    `linfinity.invert_contraction`'s tower.
    """
    return perturbed_tower(C, ProjectedDgla(C), C.dgla, arity_bound)


def transport(T: Tower, alpha):
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


# -- morphism relations -----------------------------------------------------


def strict_tower(source, target, first, arity_bound):
    """The tower with first map `first` and zero maps up to arity_bound."""
    zero = [lambda *args: target.zero()] * (arity_bound - 1)
    return Tower(source, target, [first] + zero)


def straightening_tower(C, arity_bound):
    """F: the ambient dgla of C straightened onto its split target."""
    return perturbed_tower(C, C.dgla, SplitTargetDgla(C), arity_bound)


def reduction_tower(C, arity_bound):
    """R: the ambient dgla of C reduced onto the projected one.

    R = p o F is strict (`linfinity.invert_contraction`): its first map
    is the projection and its higher maps are zero.
    """
    return strict_tower(C.dgla, ProjectedDgla(C), C.proj, arity_bound)


def morphism_residual(T: Tower, args, degs=None):
    """Exact residual of the L-infinity morphism relation at this arity.

    The bracket terms are the full relation, source brackets under
    every lower map included (`reference_kernels.bracket_defect`), so
    any tower can be checked, not only the perturbed ones that
    `class_defect` serves.
    """
    n = len(args)
    src, tgt = T.source, T.target
    if degs is None:
        degs = [s_degree(src, a) for a in args]
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
    return res + reference_kernels.bracket_defect(T, args, degs)


def check_morphism(T: Tower, arity: int, samples: int, seed=0):
    """Evaluate the morphism relations on sampled invariant elements.

    Returns a report dict; `ok` means every sampled residual was exactly
    zero.
    """
    rng = random.Random(seed)
    report = {"ok": True, "failures": [], "checked": 0}
    for n in range(1, arity + 1):
        for _ in range(samples):
            args = tuple(sample_elements(T.source, rng, n))
            if len(args) < n:
                continue
            res = morphism_residual(T, args)
            report["checked"] += 1
            if not res.is_zero():
                report["ok"] = False
                report["failures"].append((n, args, res))
    return report


# -- homotopy twisting (arity <= 3) -----------------------------------------


def _pairs_add(acc, coeff, u, su, v, sv):
    if u.is_zero() or v.is_zero():
        return
    acc.append((coeff, u, su, v, sv))


def twist_by_homotopy(F: Tower, V) -> Tower:
    """Twist a morphism tower by a degree -1 map V: source -> target.

    The first structure map becomes F^1 + q1 V + V q1 and the higher
    maps are produced by the coderivation-style extension of V, written
    out explicitly up to arity 3, F's arity bound.
    """
    arity_bound = len(F.maps)
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
            out = out + q2(tgt, u, v, su).scale(coeff)
        out = out + V(q2(src, args[0], args[1], degs[0]))
        return out

    def psi2(x, y):
        degs = (s_degree(src, x), s_degree(src, y))
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
        degs = tuple(s_degree(src, a) for a in args)
        out = F.apply(3, args)
        for coeff, u, su, v, sv in v2_pairs3(args, degs):
            out = out + q2(tgt, u, v, su).scale(coeff)
        return out

    return Tower(src, tgt, [psi1, psi2, psi3][:arity_bound])


# -- the classical flow and alt ---------------------------------------------


def _shift_affine(lie, q: CdybElement) -> CdybElement:
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


def classical_gauge_infinitesimal(lie, q, target,
                                  form: str = "mc") -> CdybElement:
    """q . alpha = dq + [q, alpha], or the affine-shift variant for the
    unrescaled r-matrix form: -sum_i h_i wedge dq/dlambda^i + [q, rho].

    q must be an invariant generator of exterior degree 1, as in
    `gauge.classical_gauge_act`.
    """
    q = _as_generator(lie, q)
    if form == "mc":
        affine = cdyb_dgla.differential(q)
    elif form == "r":
        affine = _shift_affine(lie, q)
    else:
        raise ValueError(f"unknown form {form!r}")
    return affine + cdyb_dgla.bracket(lie, q, target)


def alt(P: AdtElement) -> CdybElement:
    """Project each factor to its primitive part, antisymmetrize to wedges.

    The leg is carried back to S h through the symmetrization inverse.
    """
    uea = P.uea
    h_allowed = set(uea.lie.h_indices)

    def image(key):
        if any(len(m) != 1 for m in key[:-1]):
            return ()
        ws = wedge_sort(tuple(m[0] for m in key[:-1]))
        if ws is None:
            return ()
        sign, wedge = ws
        s_coeffs = uea.sym_preimage({key[-1]: 1}, allowed=h_allowed)
        return [((wedge, smono), 0, sign * c) for smono, c in s_coeffs.items()]

    return P.map_keys(image, CdybElement)


# -- the command line -------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dyntwist",
        description="Exact twist quantization of formal dynamical r-matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--algebra", required=True,
                       help="path to the algebra document")
        if "rmatrix" in flags:
            p.add_argument("--rmatrix", required=name != "verify-twist",
                           help="path to the r-matrix document")
        if "order" in flags:
            p.add_argument("--order", type=int, default=3,
                           help="hbar truncation order (default 3)")
        if "shdeg" in flags:
            p.add_argument("--shdeg", type=int, default=None,
                           help="leg-degree bound for classical checks")
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=None,
                           help="seed for sampled checks and perturbations")
        p.add_argument("--out", default=None,
                       help="write the report (or twist) to this path")
        if name == "verify-twist":
            p.add_argument("twist", help="twist document to verify")
        if name == "gauge-equiv":
            p.add_argument("twist", help="first twist document")
            p.add_argument("twist2", help="second twist document")
    return parser
