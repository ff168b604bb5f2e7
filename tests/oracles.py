"""The oracles that certify the L-infinity towers, the classical flows
and the command-line grammar.

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

from dyntwist import cdyb_dgla
from dyntwist.adt_dgla import AdtElement, invariant_adt_basis
from dyntwist.cli import _COMMANDS
from dyntwist.errors import GradingMismatch
from dyntwist.gauge import _as_generator
from dyntwist.linfinity import (
    AdtDgla, CdybDgla, MorphismTower, ProjectedDgla, _perturbed_tower,
    koszul_sign,
)
from dyntwist.tensor_spaces import (
    CdybElement, invariant_cdyb_basis, sym_sort, wedge_sort,
)

import reference_kernels


# -- the dgla wrappers ------------------------------------------------------


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


# -- morphism relations -----------------------------------------------------


def strict_tower(source, target, first, arity_bound):
    """The tower with first map `first` and zero maps up to arity_bound."""
    zero = [lambda *args: target.zero()] * (arity_bound - 1)
    return MorphismTower(source, target, [first] + zero)


def straightening_tower(C, arity_bound):
    """F: the ambient dgla of C straightened onto its split target."""
    return _perturbed_tower(C, C.dgla, SplitTargetDgla(C), arity_bound)


def reduction_tower(C, arity_bound):
    """R: the ambient dgla of C reduced onto the projected one.

    R = p o F is strict (`linfinity.invert_contraction`): its first map
    is the projection and its higher maps are zero.
    """
    return strict_tower(C.dgla, ProjectedDgla(C), C.proj, arity_bound)


def morphism_residual(T: MorphismTower, args, degs=None):
    """Exact residual of the L-infinity morphism relation at this arity.

    The bracket terms are the full relation, source brackets under
    every lower map included (`reference_kernels.bracket_defect`), so
    any tower can be checked, not only the perturbed ones that
    `linfinity._bracket_defect` serves.
    """
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
    return res + reference_kernels.bracket_defect(T, args, degs)


def check_morphism(T: MorphismTower, arity: int, samples: int, seed=0):
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


def twist_by_homotopy(F: MorphismTower, V) -> MorphismTower:
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

    return MorphismTower(src, tgt, [psi1, psi2, psi3][:arity_bound])


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
