"""HSeries reference kernels for the layered product kernels.

Copies of b, cup, brace, the direct twist-equation residual and the
slotwise product as they were written before the kernels moved to hbar
layers: every term pair multiplies and sums whole HSeries coefficients,
and a product truncates to the smaller order of its factors.  `_graded`
is the `graded_terms()` those loops read (hbar valuation, plus the leg
degree for a formal twist).  The layered kernels must agree with these
exactly, coefficient orders included.  A formal twist is read in hbar
(`conftest.hbar_terms`) and built from hbar series
(`conftest.formal_twist`), so these references do not depend on the
layers `FormalTwist` stores.

`expanded_b_key`, `expanded_cup` and `expanded_brace` are the layered
b of one key, cup and brace as they were before they skipped work whose
outcome is known: b summed every part of every coproduct, cancelling
ones included, cup and brace straightened every slot of every product
key, and brace spread P terms that the truncation then dropped.  The
kernels must agree with them in values, value types and the key order
of every layer; `expanded_b` is b summed from `expanded_b_key`.
`listed_adte_residual` is the layered direct residual as it was before
its second term multiplied its three factors in one loop, the pin of
the direct residual's key order.

`coproduct_by_position` is the iterated coproduct placed letter by
letter, as `uea.coproduct_mono` computed it before it counted runs.

Also kept: the plain Fraction `straighten`, the uncached h-action
`ad_mono` and the element-level b-column, the values that
`UEnvelope.straighten`, `UEnvelope.ad_mono` and the blocks of
`adt_dgla.kappa_solve` now cache and share between callers, and the
invariant basis built from that uncached action over a whole slice.
`kappa_solve` is the solver as it was before it split slices into
content blocks: one elimination over the b-columns of every invariant
basis vector of a slice.

`sparse_sum`, `sparse_neg`, `sparse_scale` and `from_layers` are the
closed arithmetic of `SparseSeries` as it was before it stored its
results directly: every result, and every HSeries sum, negation and
rational multiple, goes through its constructor.  `series_coeff` and
`series_truncate` are `HSeries.coeff` and `HSeries.truncate`, which the
package stopped calling once elements stored their coefficients by hbar
layer.  `rand_adt` draws as
`props._rand_adt` did when it enumerated its key pool on every draw.

`quantum_homotopy` is the twist-side homotopy h as it was before its
decomposition systems were factored once: one whole `linalg.solve` per
input, over columns rebuilt from the complements.  Those come from
`complement`, the choice of complement as it was made on AdtElements
before `_QuantumHomotopy` built it from plain dicts.

`pbw_star` is the base star product on whole HSeries coefficients,
each leg monomial's hbar polynomial from `quantizer._star_mono` turned
into a series (`_poly_to_series`); `formal_mul` multiplies legs with it.

The linear maps that move hbar powers (`coproduct_at`, `j_to_k` and the
two argument-shift forms) are kept as they were written before they went
through `SparseSeries.map_keys`: each term's whole HSeries is multiplied
by hbar^k (`HSeries.hbar`) and the result summed key by key.
`rescale_generator`, written the same way, is the only copy of the
substitution that gives leg degree d of a classical flow generator the
factor hbar^d; `quantizer.RMatrix.rescaled` is the same shift with one
more hbar.  `shift_taylor` is the only Taylor form of the
argument shift: `quantizer.shift_argument` computes the leg coaction
form, and the two must agree.

`gauge_act_algebraic` is the algebraic gauge action as it was before it
inverted Q once: Q^{12,3} K (Q^{2,3})^{-1} (Q^{1,23})^{-1}, with one
`gauge.adt_inverse` per inverted factor (and the HSeries `adt_mul` and
`coproduct_at` here).

`cdybe_literal` is the classical dynamical Yang-Baxter residual in its
literal tensor form, CYB(rho) - Alt(d rho); `cdyb_dgla.cdybe_residual`
computes the DGLA form d(rho) + (1/2)[rho, rho], and the two must
vanish at the same leg degrees.

`contraction_towers` builds the towers (Q, F, R) of a contraction as
`linfinity.invert_contraction` built them before Q had a recursion of
its own (now `oracles.inclusion_tower`, and on the diagonal
`linfinity.MorphismTower`) and before R was strict: F, onto the split
target of `oracles.SplitTargetDgla`, by the homotopy recursion, its
inverse by a sum over the set partitions of the arguments
(`invert_tower`), and Q and R by composing that inverse and F with the
strict inclusion and projection (`compose_towers`, here over every
partition).  Its F sums the bracket defect over argument positions
(`bracket_defect`, over every subset that holds the first argument),
with every source-bracket term under every lower map: this is the full
morphism relation of any tower, which `oracles.morphism_residual`
checks.  `oracles.class_defect` sums over argument classes and keeps
only the arity-2 source term, since h erases the others from a
perturbed tower; above arity 2 the two agree under h and p.
"""

import itertools
from fractions import Fraction
from operator import add

from dyntwist import adt_dgla, linalg
from dyntwist.adt_dgla import AdtElement, adt_monomials, p2_project, unit_at
from dyntwist.errors import ContractFailure, GradingMismatch, NoSolution
from dyntwist.gauge import adt_inverse
from dyntwist.hseries import add_into
from dyntwist.lie_core import invariant_basis
from dyntwist.linfinity import AdtDgla
from dyntwist.quantizer import FormalTwist, _star_mono
from dyntwist.tensor_spaces import CdybElement, sym_sort
from dyntwist.uea import coproduct_mono
from ring import HSeries, ring_terms
from conftest import formal_twist, hbar_terms
# imported as a module: oracles imports this module in turn, so its
# names are read at call time
import oracles

_F1 = Fraction(1)


def _terms(E):
    """E's coefficients in hbar: a formal twist's read back from its
    layers (`conftest.hbar_terms`), any other element's `ring_terms`."""
    return hbar_terms(E) if isinstance(E, FormalTwist) else ring_terms(E)


def _element(cls, space, terms, order):
    """The element of cls(*space) with coefficients `terms` in hbar."""
    if cls is FormalTwist:
        return formal_twist(*space, terms, order)
    return cls(*space, terms, order)


def _graded(E):
    leg = isinstance(E, FormalTwist)
    return sorted(
        ((k, c, c.valuation() + (len(k[-1]) if leg else 0))
         for k, c in _terms(E).items()),
        key=lambda t: t[2],
    )


def slotwise_product(A, B, leg_mul):
    uea = A.uea
    order = min(A.order, B.order)
    out: dict = {}
    terms_b = _graded(B)
    for k1, c1, v1 in _graded(A):
        for k2, c2, v2 in terms_b:
            if v1 + v2 > order:
                break
            c = c1 * c2
            exps = [
                uea.mul_mono(k1[i], k2[i]).items() for i in range(A.arity)
            ]
            exps.append(leg_mul(k1[-1], k2[-1]).items())
            for combo in itertools.product(*exps):
                coeff = c
                for _, d in combo:
                    coeff = coeff * d
                add_into(out, tuple(m for m, _ in combo), coeff)
    return _element(type(A), (uea, A.arity), out, order)


def adt_mul(A, B):
    return slotwise_product(A, B, A.uea.mul_mono)


def _poly_to_series(p: dict, order: int) -> HSeries:
    out = HSeries.zero(order)
    for a, c in p.items():
        out = out + HSeries.hbar(order, a, c)
    return out


def pbw_star(uea, f: dict, g: dict, order: int) -> dict:
    """Star product of leg polynomials {leg monomial: HSeries}."""
    out: dict = {}
    for s, cf in f.items():
        for t, cg in g.items():
            c = cf * cg
            for m, p in _star_mono(uea, s, t).items():
                add_into(out, m, c * _poly_to_series(p, order))
    return out


def formal_mul(A, B):
    uea = A.uea
    order = min(A.order, B.order)

    def leg_mul(s, t):
        return {
            m: _poly_to_series(p, order)
            for m, p in _star_mono(uea, s, t).items()
        }

    return slotwise_product(A, B, leg_mul)


def differential_b(P):
    k = P.arity
    terms: dict = {}
    for key, c in ring_terms(P).items():
        gfac = key[:-1]
        leg = key[-1]
        add_into(terms, ((),) + gfac + (leg,), c)
        for i in range(1, k + 1):
            sgn = -1 if i % 2 else 1
            for parts, mult in coproduct_mono(gfac[i - 1], 2).items():
                new = gfac[: i - 1] + parts + gfac[i:] + (leg,)
                add_into(terms, new, c * (sgn * mult))
        sgn = -1 if (k + 1) % 2 else 1
        for parts, mult in coproduct_mono(leg, 2).items():
            add_into(terms, gfac + parts, c * (sgn * mult))
    return AdtElement(P.uea, k + 1, terms, P.order)


def cup(P, Q):
    k, l = P.arity, Q.arity
    order = min(P.order, Q.order)
    terms: dict = {}
    terms_q = _graded(Q)
    for keyP, cP, vP in _graded(P):
        gP, legP = keyP[:-1], keyP[-1]
        for parts, mult in coproduct_mono(legP, l + 1).items():
            for keyQ, cQ, vQ in terms_q:
                if vP + vQ > order:
                    break
                gQ, legQ = keyQ[:-1], keyQ[-1]
                slots = list(gP)
                for j in range(l):
                    slots.append(parts[j] + gQ[j])
                slots.append(parts[l] + legQ)
                _straight_key(P.uea, tuple(slots), terms, cP * cQ * mult)
    return AdtElement(P.uea, k + l, terms, order)


def _straight_key(uea, slots, acc, coeff):
    expansions = [uea.straighten(w) for w in slots]
    partial = [((), _F1)]
    for exp in expansions:
        nxt = []
        for pref, c0 in partial:
            for m, c in exp.items():
                nxt.append((pref + (m,), c0 * c))
        partial = nxt
    for key, c in partial:
        add_into(acc, key, coeff * c)


def brace(P, Qs):
    Qs = list(Qs)
    m = len(Qs)
    k = P.arity
    ks = [Q.arity for Q in Qs]
    n = k + sum(ks) - m
    if m > k or n < 0:
        return AdtElement.zero(P.uea, max(n, 0), P.order)
    order = min([P.order] + [Q.order for Q in Qs])
    out: dict = {}
    uea = P.uea
    for positions in itertools.combinations(range(1, k + 1), m):
        sgn = 1
        cursor = 0
        consumed = {j: s for s, j in enumerate(positions)}
        for t in range(1, k + 1):
            if t in consumed:
                s = consumed[t]
                e = (ks[s] - 1) * cursor
                if e % 2:
                    sgn = -sgn
                cursor += ks[s]
            else:
                cursor += 1
        _brace_placement(uea, P, Qs, positions, n, sgn, order, out)
    return AdtElement(uea, n, out, order)


def _brace_placement(uea, P, Qs, positions, n, sgn, order, out):
    ks = [Q.arity for Q in Qs]
    consumed = {j: s for s, j in enumerate(positions)}
    starts = {}
    cursor = 0
    for t in range(1, P.arity + 1):
        if t in consumed:
            s = consumed[t]
            starts[s] = cursor
            cursor += ks[s]
        else:
            cursor += 1
    for keyP, cP, vP in _graded(P):
        if vP > order:
            break
        gP, legP = keyP[:-1], keyP[-1]
        base: list = [[] for _ in range(n + 1)]
        coeffP = cP
        cursor = 0
        dead = False
        delta_choices = []
        for t in range(1, P.arity + 1):
            f = gP[t - 1]
            if t in consumed:
                s = consumed[t]
                w = ks[s]
                if w == 0:
                    if f != ():
                        dead = True
                        break
                else:
                    delta_choices.append((cursor, f, w))
                cursor += w
            else:
                base[cursor].append(f)
                cursor += 1
        if dead:
            continue
        base[n].append(legP)
        stack = [(base, coeffP, vP)]
        for start, f, w in delta_choices:
            nxt = []
            for slots, c0, v0 in stack:
                for parts, mult in coproduct_mono(f, w).items():
                    s2 = [list(x) for x in slots]
                    for u in range(w):
                        s2[start + u].append(parts[u])
                    nxt.append((s2, c0 * mult, v0))
            stack = nxt
        for s, Q in enumerate(Qs):
            start = starts[s]
            w = ks[s]
            spread = n - (start + w)
            nxt = []
            terms_q = _graded(Q)
            for slots, c0, v0 in stack:
                for keyQ, cQ, vQ in terms_q:
                    if v0 + vQ > order:
                        break
                    gQ, legQ = keyQ[:-1], keyQ[-1]
                    for parts, mult in coproduct_mono(legQ, spread + 1).items():
                        s2 = [list(x) for x in slots]
                        for u in range(w):
                            s2[start + u].append(gQ[u])
                        for u in range(spread):
                            s2[start + w + u].append(parts[u])
                        s2[n].append(parts[spread])
                        nxt.append((s2, c0 * cQ * mult, v0 + vQ))
            stack = nxt
        for slots, c0, _ in stack:
            words = tuple(
                tuple(itertools.chain.from_iterable(slot)) for slot in slots
            )
            _straight_key(uea, words, out, c0 * sgn)


def adte_residual(K):
    """The direct residual K^{12,3,4} K^{1,2,34} - K^{1,23,4} K^{2,3,4}."""
    uea = K.uea
    order = K.order
    out: dict = {}
    items = _graded(K)
    for k1, c1, v1 in items:
        for k2, c2, v2 in items:
            if v1 + v2 > order:
                break
            _adte_pair(uea, k1, k2, c1 * c2, out)
    return AdtElement(uea, 3, out, order)


def _adte_pair(uea, k1, k2, c, out):
    f1, f2, leg = k1
    g1, g2, legg = k2
    for p1, m1 in coproduct_mono(f1, 2).items():
        for p2, m2 in coproduct_mono(legg, 2).items():
            slots = (p1[0] + g1, p1[1] + g2, f2 + p2[0], leg + p2[1])
            _straight_key(uea, slots, out, c * (m1 * m2))
    for p1, m1 in coproduct_mono(f2, 2).items():
        slots = (f1, p1[0] + g1, p1[1] + g2, leg + legg)
        _straight_key(uea, slots, out, -(c * m1))


# -- the layered b, cup and brace as they were before they skipped work
# with a known outcome: b summed every part of every coproduct, and cup
# and brace straightened every slot of every product key


def expanded_b_key(key) -> tuple:
    k = len(key) - 1
    gfac = key[:-1]
    leg = key[-1]
    terms: dict = {}
    # unit insertion on the left
    add_into(terms, ((),) + key, 1)
    # coproduct on factor i (1-based), sign (-1)^i
    for i in range(1, k + 1):
        sgn = -1 if i % 2 else 1
        for parts, mult in coproduct_mono(gfac[i - 1], 2).items():
            new = gfac[: i - 1] + parts + gfac[i:] + (leg,)
            add_into(terms, new, sgn * mult)
    # coaction on the leg, sign (-1)^{k+1}
    sgn = -1 if (k + 1) % 2 else 1
    for parts, mult in coproduct_mono(leg, 2).items():
        add_into(terms, gfac + parts, sgn * mult)
    return tuple(terms.items())


def expanded_cup(P, Q):
    if P.uea is not Q.uea:
        raise GradingMismatch("cup of elements over different algebras")
    k, l = P.arity, Q.arity
    order = min(P.order, Q.order)
    outs = [{} for _ in range(order + 1)]
    den_p, terms_p = P.int_layer_terms()
    den_q, terms_q = Q.int_layer_terms()
    for keyP, aP, nP in terms_p:
        gP = keyP[:-1]
        for parts, mult in coproduct_mono(keyP[-1], l + 1).items():
            aPm = aP * mult
            for keyQ, aQ, nQ in terms_q:
                if nP + nQ > order:
                    break
                # parts[j] multiplies in front of Q's factor j, the last
                # part in front of Q's leg
                _expanded_straight_key(
                    P.uea, gP + tuple(map(add, parts, keyQ)),
                    outs[nP + nQ], aPm * aQ)
    return AdtElement.from_layers(P.uea, k + l, outs, den=den_p * den_q)


def _expanded_straight_key(uea, slots, acc, coeff):
    straighten = uea.straighten
    for i, w in enumerate(slots):
        exp = straighten(w)
        if w not in exp:  # not a PBW monomial: expand from slot i on
            break
    else:
        v = acc.get(slots, 0) + coeff
        if v:
            acc[slots] = v
        else:
            del acc[slots]
        return
    partial = [(slots[:i] + (m,), coeff * c) for m, c in exp.items()]
    done = i + 1  # slots[:done] are in every prefix of partial
    for i in range(done, len(slots)):
        w = slots[i]
        exp = straighten(w)
        if w in exp:  # a PBW monomial already, with coefficient 1
            continue
        run = slots[done:i]
        partial = [(pref + run + (m,), c0 * c) for pref, c0 in partial
                   for m, c in exp.items()]
        done = i + 1
    run = slots[done:]
    for pref, c in partial:
        add_into(acc, pref + run, c)


def expanded_brace(P, Qs):
    Qs = list(Qs)
    m = len(Qs)
    k = P.arity
    ks = [Q.arity for Q in Qs]
    n = k + sum(ks) - m
    order = min([P.order] + [Q.order for Q in Qs])
    if m > k or n < 0:
        return AdtElement.zero(P.uea, max(n, 0), order)
    outs = [{} for _ in range(order + 1)]
    uea = P.uea
    den, terms_p = P.int_layer_terms()
    terms_q = []
    for Q in Qs:
        den_q, terms = Q.int_layer_terms()
        den *= den_q
        terms_q.append(terms)
    for positions in itertools.combinations(range(1, k + 1), m):
        _expanded_brace_placement(uea, k, terms_p, ks, terms_q, positions,
                                  n, outs)
    return AdtElement.from_layers(uea, n, outs, den=den)


def _expanded_brace_placement(uea, k, terms_p, ks, terms_q, positions, n,
                              outs):
    top = len(outs) - 1
    # the output slot of each input of P, with the width of its block
    # when it is consumed (None when it is not); the sign exponent is
    # sum_s (arity(Q_s) - 1) * (start of block s)
    layout = []
    blocks = []  # (start, width) per Q_s, in order of s
    cursor = 0
    sgn = 1
    for t in range(1, k + 1):
        if t in positions:
            w = ks[len(blocks)]
            if (w - 1) * cursor % 2:
                sgn = -sgn
            blocks.append((cursor, w))
            layout.append((cursor, w))
            cursor += w
        else:
            layout.append((cursor, None))
            cursor += 1
    assert cursor == n
    # each Q_s term with its leg's coaction over the slots to the right
    # of its block, looked up once per placement
    plan = [
        (start, start + w, [
            (vQ, cQ, keyQ[:-1], coproduct_mono(keyQ[-1], n - start - w + 1))
            for keyQ, cQ, vQ in terms
        ])
        for (start, w), terms in zip(blocks, terms_q)
    ]
    for keyP, aP, nP in terms_p:
        if nP > top:
            break
        # distribute P's factors; consumed ones wait for their coproduct
        base = [()] * (n + 1)
        base[n] = keyP[-1]
        spread = []  # (start, factor, width) of the consumed factors
        for (slot, w), f in zip(layout, keyP):
            if w is None:
                base[slot] = f
            elif w:
                spread.append((slot, f, w))
            elif f:  # counit kills non-scalars
                break
        else:
            # each entry carries the hbar power of the terms chosen so far
            stack = [(tuple(base), aP, nP)]
            for start, f, w in spread:
                stack = [
                    (slots[:start] + parts + slots[start + w:], c0 * mult, v0)
                    for slots, c0, v0 in stack
                    for parts, mult in coproduct_mono(f, w).items()
                ]
            for start, mid, entries in plan:
                nxt = []
                for slots, c0, v0 in stack:
                    head, block, tail = (slots[:start], slots[start:mid],
                                         slots[mid:])
                    for vQ, cQ, gQ, coaction in entries:
                        if v0 + vQ > top:
                            break
                        pre = head + tuple(map(add, block, gQ))
                        c1 = c0 * cQ
                        for parts, mult in coaction.items():
                            nxt.append((pre + tuple(map(add, tail, parts)),
                                        c1 * mult, v0 + vQ))
                stack = nxt
            for slots, c0, v0 in stack:
                _expanded_straight_key(uea, slots, outs[v0], c0 * sgn)


def expanded_b(P):
    """b as the layered kernel summed it from `expanded_b_key`."""
    outs = [{} for _ in range(P.order + 1)]
    den, items = P.int_layer_terms()
    for key, a, n in items:
        for new, mult in expanded_b_key(key):
            add_into(outs[n], new, a * mult)
    return AdtElement.from_layers(P.uea, P.arity + 1, outs, den=den)


def listed_adte_residual(K):
    """The layered direct residual as it was while its second term built
    the list f1 (x) X(f2; g1, g2) for every pair of twist terms, with its
    X, Y and S factors computed afresh."""
    uea = K.uea
    straighten = uea.straighten
    outs = [{} for _ in range(K.order + 1)]
    den, items = K.int_layer_terms()
    by_f1: dict = {}
    by_f2: dict = {}
    for entry in items:
        by_f1.setdefault(entry[0][0], []).append(entry)
        by_f2.setdefault(entry[0][1], []).append(entry)

    def pairs(firsts):
        for k1, a1, n1 in firsts:
            for k2, a2, n2 in items:
                if n1 + n2 > K.order:
                    break
                yield k1, k2, a1 * a2, outs[n1 + n2]

    for f1, firsts in by_f1.items():
        for (_, f2, leg), (g1, g2, legg), a, out in pairs(firsts):
            _listed_products(
                out, _listed_factor(straighten, f1, (), (), g1, g2),
                _listed_factor(straighten, legg, f2, leg, (), ()), a)
    for f2, firsts in by_f2.items():
        for (f1, _, leg), (g1, g2, legg), a, out in pairs(firsts):
            x = _listed_factor(straighten, f2, (), (), g1, g2)
            sl = tuple(((m,), c) for m, c in straighten(leg + legg).items())
            left = [((m1,) + kx, c1 * cx)
                    for m1, c1 in straighten(f1).items() for kx, cx in x]
            _listed_products(out, left, sl, -a)
    return AdtElement.from_layers(uea, 3, outs, den=den * den)


def _listed_factor(straighten, w, l1, l2, r1, r2):
    acc: dict = {}
    for (p1, p2), mult in coproduct_mono(w, 2).items():
        for m1, c1 in straighten(l1 + p1 + r1).items():
            c1 *= mult
            for m2, c2 in straighten(l2 + p2 + r2).items():
                add_into(acc, (m1, m2), c1 * c2)
    return tuple(acc.items())


def _listed_products(out, lefts, rights, a):
    for kl, cl in lefts:
        cl *= a
        for kr, cr in rights:
            add_into(out, kl + kr, cl * cr)


def coproduct_by_position(mono, slots):
    """The iterated coproduct as `uea.coproduct_mono` computed it before
    it counted runs of equal letters: every placement of every letter
    position into a part, keys in order of first placement."""
    out = {}
    for assignment in itertools.product(range(slots), repeat=len(mono)):
        parts = [[] for _ in range(slots)]
        for pos, s in enumerate(assignment):
            parts[s].append(mono[pos])
        key = tuple(tuple(p) for p in parts)
        out[key] = out.get(key, 0) + 1
    return out


def straighten(lie, word, memo):
    """The word in the PBW basis as {monomial: Fraction}.

    memo is the caller's own dict of results, apart from every cache of
    `UEnvelope`.
    """
    out = memo.get(word)
    if out is not None:
        return out
    out = {word: _F1}
    for pos in range(len(word) - 1):
        a, b = word[pos], word[pos + 1]
        if a > b:
            out = dict(straighten(lie, word[:pos] + (b, a) + word[pos + 2:],
                                  memo))
            for k, c in lie.bracket_basis(a, b).items():
                lower = word[:pos] + (k,) + word[pos + 2:]
                for m, d in straighten(lie, lower, memo).items():
                    add_into(out, m, c * d)
            break
    memo[word] = out
    return out


def ad_mono(uea, x, mono):
    """[x, mono] in PBW coordinates, recomputed on every call."""
    out = {}
    for pos in range(len(mono)):
        for k, c in uea.lie.bracket_basis(x, mono[pos]).items():
            for m, d in uea.straighten(
                mono[:pos] + (k,) + mono[pos + 1:]
            ).items():
                add_into(out, m, c * d)
    return out


def invariant_adt_basis(uea, arity, total_length):
    def ad_key(x, key):
        out = {}
        for slot in range(len(key)):
            for m, c in ad_mono(uea, x, key[slot]).items():
                add_into(out, key[:slot] + (m,) + key[slot + 1:], c)
        return out

    return invariant_basis(
        uea.lie, adt_monomials(uea, arity, total_length), ad_key
    )


def b_column(uea, arity, vec):
    """b of one basis vector through an order-0 element."""
    return differential_b(AdtElement(uea, arity, vec, 0)).layer(0)


def kappa_solve(uea, target, max_filtration=None):
    """b(u) = target with u invariant, over the whole of every slice."""
    order = target.order
    arity = target.arity - 1
    outs = [{} for _ in range(order + 1)]
    for L in target.total_lengths():
        slice_t = target.length_component(L)
        basis = invariant_adt_basis(uea, arity, L)
        kept = [
            v for v in basis
            if max_filtration is None
            or all(len(key[-1]) <= max_filtration for key in v)
        ]
        sols = linalg.solve(
            [b_column(uea, arity, v) for v in kept],
            [slice_t.layer(n) for n in range(order + 1)],
        )
        if None in sols:
            raise NoSolution(
                f"target length-{L} slice not in the image of b",
                residual=slice_t, arity=target.arity, length=L,
            )
        for sol, out in zip(sols, outs):
            for j, a in sol.items():
                for key, c in kept[j].items():
                    add_into(out, key, a * c)
    return AdtElement.from_layers(uea, arity, outs)


def coproduct_at(E, i):
    out: dict = {}
    for key, c in _terms(E).items():
        for parts, mult in coproduct_mono(key[i], 2).items():
            add_into(out, key[:i] + parts + key[i + 1:], c * mult)
    return _element(type(E), (E.uea, E.arity + 1), out, E.order)


def j_to_k(J):
    uea = J.uea
    out: dict = {}
    for key, c in hbar_terms(J).items():
        s = key[-1]
        coeff = HSeries.hbar(c.order, len(s)) * c
        if coeff.is_zero():
            continue
        for m, d in uea.sym_mono(s).items():
            add_into(out, key[:-1] + (m,), coeff * d)
    return AdtElement(uea, J.arity, out, J.order)


def shift_coproduct(J):
    uea = J.uea
    order = J.order
    out: dict = {}
    for key, c in hbar_terms(J).items():
        gfac = key[:-1]
        s = key[-1]
        for positions in itertools.product((0, 1), repeat=len(s)):
            chosen = tuple(s[i] for i in range(len(s)) if positions[i] == 0)
            rest = tuple(s[i] for i in range(len(s)) if positions[i] == 1)
            coeff = c * HSeries.hbar(order, len(chosen))
            for m, d in uea.sym_mono(chosen).items():
                add_into(out, gfac + (m, rest), coeff * d)
    return formal_twist(uea, J.arity + 1, out, order)


def _leg_derivative(s, i) -> tuple:
    """d/dx_i of a commutative leg monomial: (multiplicity, reduced monomial)."""
    mult = s.count(i)
    if mult == 0:
        return 0, ()
    pos = s.index(i)
    return mult, s[:pos] + s[pos + 1 :]


def shift_taylor(J):
    uea = J.uea
    order = J.order
    out: dict = {}
    for key, c in hbar_terms(J).items():
        gfac = key[:-1]
        s = key[-1]
        fact = 1
        for k in range(len(s) + 1):
            if k:
                fact *= k
            coeff = c * HSeries.hbar(order, k, Fraction(1, fact))
            for word in itertools.product(uea.lie.h_indices, repeat=k):
                rest = s
                mult = 1
                for i in word:
                    m, rest = _leg_derivative(rest, i)
                    mult *= m
                    if mult == 0:
                        break
                if mult == 0:
                    continue
                for m, d in uea.straighten(word).items():
                    add_into(out, gfac + (m, rest), coeff * (mult * d))
    return formal_twist(uea, J.arity + 1, out, order)


def gauge_act_algebraic(Q, K):
    out = adt_mul(coproduct_at(Q, 0), K)
    out = adt_mul(out, adt_inverse(unit_at(Q, 0)))
    return adt_mul(out, adt_inverse(coproduct_at(Q, 1)))


def rescale_generator(q, order):
    terms = {}
    for (w, s), c in ring_terms(q).items():
        c = series_truncate(c, order)
        shifted = HSeries.hbar(c.order, len(s)) * c
        if not shifted.is_zero():
            terms[(w, s)] = shifted
    return CdybElement(terms, order)


def cdybe_literal(lie, rho):
    """CYB(rho) - Alt(d rho) as {((i, j, k), leg): HSeries} in g^(x)3 (x) S h."""
    t = _tensor2(rho)
    out: dict = {}
    _cyb_into(lie, t, out)
    _alt_d_into(t, out)
    return out


def _tensor2(rho):
    """x ^ y -> x (x) y - y (x) x, legs carried along."""
    out = {}
    for (w, s), c in ring_terms(rho).items():
        if len(w) != 2:
            raise GradingMismatch("expected exterior degree 2")
        add_into(out, ((w[0], w[1]), s), c)
        add_into(out, ((w[1], w[0]), s), -c)
    return out


def _cyb_into(lie, t, out):
    """[r12, r13] + [r12, r23] + [r13, r23] accumulated into `out`."""
    items = list(t.items())
    for ((a1, a2), s1), c1 in items:
        for ((b1, b2), s2), c2 in items:
            c = c1 * c2
            leg = sym_sort(s1 + s2)
            # [r12, r13]: bracket in slot 1
            for k, f in lie.bracket_basis(a1, b1).items():
                add_into(out, ((k, a2, b2), leg), c * f)
            # [r12, r23]: bracket in slot 2
            for k, f in lie.bracket_basis(a2, b1).items():
                add_into(out, ((a1, k, b2), leg), c * f)
            # [r13, r23]: bracket in slot 3
            for k, f in lie.bracket_basis(a2, b2).items():
                add_into(out, ((a1, b1, k), leg), c * f)


def _alt_d_into(t, out):
    """Subtract sum_i (h_i^1 d_i r^23 - h_i^2 d_i r^13 + h_i^3 d_i r^12)."""
    for ((a1, a2), s), c in t.items():
        for pos in range(len(s)):
            h = s[pos]
            rest = s[:pos] + s[pos + 1 :]
            add_into(out, ((h, a1, a2), rest), -c)
            add_into(out, ((a1, h, a2), rest), c)
            add_into(out, ((a1, a2, h), rest), -c)


def series_coeff(a, n: int):
    """`HSeries.coeff` as it was: the hbar^n coefficient, 0 above the order."""
    if n > a.order:
        return 0
    return a.coeffs[n]


def series_truncate(a, order: int):
    """`HSeries.truncate` as it was: the image mod hbar^(order+1)."""
    return HSeries(a.coeffs, min(order, a.order))


def _hs_add(a, b):
    n = min(a.order, b.order)
    return HSeries(tuple(a.coeffs[i] + b.coeffs[i] for i in range(n + 1)), n)


def _hs_neg(a):
    return HSeries(tuple(-c for c in a.coeffs), a.order)


def _hs_scale(a, c):
    if isinstance(c, HSeries):
        return a * c
    c = Fraction(c)
    return HSeries(tuple(x * c for x in a.coeffs), a.order)


def sparse_sum(A, B, negate=False):
    """A + B, or A - B, through the constructor."""
    if getattr(A, "arity", None) != getattr(B, "arity", None):
        if A.is_zero():
            return sparse_neg(B) if negate else B
        if B.is_zero():
            return A
        raise GradingMismatch("arity mismatch in sum")
    terms = ring_terms(A)
    for k, c in ring_terms(B).items():
        c = _hs_neg(c) if negate else c
        old = terms.get(k)
        if old is not None:
            c = _hs_add(old, c)
        if c:
            terms[k] = c
        elif old is not None:
            del terms[k]
    return _like(A, terms, min(A.order, B.order))


def _like(A, terms, order):
    return type(A)(*A._space_values(), terms, order)


def sparse_neg(A):
    return _like(A, {k: _hs_neg(c) for k, c in A.terms.items()}, A.order)


def sparse_scale(A, c):
    order = min(A.order, c.order) if isinstance(c, HSeries) else A.order
    return _like(A, {k: _hs_scale(v, c) for k, v in A.terms.items()}, order)


def from_layers(cls, *args, den=None):
    """cls.from_layers(*space, layers), by the constructor."""
    *space, layers = args
    order = len(layers) - 1
    coeffs: dict = {}
    for n, layer in enumerate(layers):
        for k, a in layer.items():
            row = coeffs.get(k)
            if row is None:
                coeffs[k] = row = [Fraction(0)] * (order + 1)
            row[n] = a if den is None else Fraction(a, den)
    terms = {k: HSeries(row, order) for k, row in coeffs.items()}
    return cls(*space, terms, order)


def complement(h, k, L):
    """(A, images) of `linfinity._QuantumHomotopy._complement` as it was
    built before it worked on dicts: each candidate x - p(x) and its q1
    image as AdtElements (`p2_project`, the element difference and
    `AdtDgla.q1`), recomputed with the choice at every lower length.
    """
    if L > 0:
        cands, images = map(list, complement(h, k, L - 1))
    else:
        cands, images = [], []
    q1 = AdtDgla(h.uea, 0).q1
    for r in adt_dgla.invariant_adt_basis(h.uea, k, L):
        e = AdtElement(h.uea, k, dict(r), 0)
        ne = e - p2_project(h.splitter, e)
        if not ne.is_zero():
            cands.append(ne)
            images.append(q1(ne).layer(0))
    keep = linalg.pivots(images)
    return [cands[j] for j in keep], [images[j] for j in keep]


def quantum_homotopy(h, x):
    """h(x) for a `linfinity._QuantumHomotopy` h, as it was computed
    before each decomposition system was factored once: the complements
    and q1 images rebuilt from elements (`complement`) and the system
    solved by one whole `linalg.solve` per call, its result built by the
    constructor.
    """
    xn = x - p2_project(h.splitter, x)
    arity = max(x.arity - 1, 0)
    if xn.is_zero():
        return AdtElement.zero(h.uea, arity, x.order)
    k, L = xn.arity, max(xn.total_lengths())
    A_lower, columns = complement(h, k - 1, L) if k >= 1 else ([], [])
    columns += [a.layer(0) for a in complement(h, k, L)[0]]
    sols = linalg.solve(columns, [xn.layer(n) for n in range(xn.order + 1)])
    if None in sols:
        raise ContractFailure("homotopy decomposition failed")
    outs = [{} for _ in sols]
    for sol, out in zip(sols, outs):
        for j, v in sol.items():
            if j < len(A_lower):
                for key, c in A_lower[j].layer(0).items():
                    add_into(out, key, v * c)
    return from_layers(AdtElement, h.uea, arity, outs)


def rand_adt(uea, rng, arity, max_len, order=0, terms=2):
    pool = []
    for L in range(max_len + 1):
        pool.extend(adt_monomials(uea, arity, L))
    out: dict = {}
    for _ in range(terms):
        key = pool[rng.randrange(len(pool))]
        out[key] = out.get(key, 0) + rng.choice([-2, -1, 1, 2])
    return AdtElement(uea, arity, {k: Fraction(v) for k, v in out.items()},
                      order)


# -- L-infinity towers by inversion and composition ---------------------------


def _subsets(n):
    """Proper nonempty subsets of range(n) containing 0, with complements."""
    rest = list(range(1, n))
    for r in range(0, n - 1):
        for extra in itertools.combinations(rest, r):
            A = (0,) + extra
            B = tuple(i for i in range(1, n) if i not in extra)
            yield A, B


def bracket_defect(T, args, degs):
    """The bracket terms of the morphism relation, summed by position."""
    n = len(args)
    src, tgt = T.source, T.target
    res = tgt.zero()
    for A, B in _subsets(n):
        perm = A + B
        sign = oracles.koszul_sign(degs, perm)
        u = T.apply(len(A), tuple(args[i] for i in A))
        v = T.apply(len(B), tuple(args[i] for i in B))
        su = sum(degs[i] for i in A)
        term = oracles.q2(tgt, u, v, su)
        if sign < 0:
            term = term.scale(-1)
        res = res + term
    for i, j in itertools.combinations(range(n), 2):
        rest = [x for x in range(n) if x not in (i, j)]
        perm = [i, j] + rest
        sign = oracles.koszul_sign(degs, perm)
        w = oracles.q2(src, args[i], args[j], degs[i])
        term = T.apply(n - 1, (w,) + tuple(args[x] for x in rest))
        if sign > 0:
            term = term.scale(-1)
        res = res + term
    return res


def _set_partitions(items):
    """All set partitions; blocks ordered by minimum, sorted internally."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _partition_sum(outer, inner, args, partitions, zero):
    """zero + sum over partitions of +-outer(inner(block), ...)."""
    degs = [oracles.s_degree(inner.source, a) for a in args]
    out = zero
    for part in partitions:
        blocks = sorted(part, key=min)
        perm = [i for blk in blocks for i in sorted(blk)]
        sign = oracles.koszul_sign(degs, perm)
        term = outer.apply(len(blocks), tuple(
            inner.apply(len(blk), tuple(args[i] for i in sorted(blk)))
            for blk in blocks
        ))
        if sign < 0:
            term = term.scale(-1)
        out = out + term
    return out


def compose_towers(G, F, source, target):
    """Coalgebra composition G o F from source to target."""
    bound = min(len(G.maps), len(F.maps))

    def composed(*args):
        parts = _set_partitions(list(range(len(args))))
        return _partition_sum(G, F, args, parts, target.zero())

    return oracles.Tower(source, target, [composed] * bound)


def invert_tower(F):
    """Inverse of a tower whose first map is the identity."""
    src, tgt = F.target, F.source
    H = oracles.Tower(src, tgt, [lambda x: x])

    def inverted(*args):
        parts = (p for p in _set_partitions(list(range(len(args))))
                 if len(p) > 1)
        return _partition_sum(F, H, args, parts, tgt.zero()).scale(-1)

    H.maps += [inverted] * (len(F.maps) - 1)
    return H


def contraction_towers(C, arity_bound):
    """(Q, F, R): the inclusion, straightening and reduction towers."""
    ambient = C.dgla
    split = oracles.SplitTargetDgla(C)
    sub = oracles.ProjectedDgla(C)
    F = oracles.Tower(ambient, split, [lambda x: x])

    def straightened(*args):
        degs = [oracles.s_degree(ambient, a) for a in args]
        defect = bracket_defect(F, args, degs)
        if not C.proj(defect).is_zero():
            raise ContractFailure("defect outside the kernel")
        return C.h(defect).scale(-1)

    F.maps += [straightened] * (arity_bound - 1)
    incl = oracles.strict_tower(sub, split, lambda x: x, arity_bound)
    Q = compose_towers(invert_tower(F), incl, sub, ambient)
    proj = oracles.strict_tower(split, sub, C.proj, arity_bound)
    R = compose_towers(proj, F, ambient, sub)
    return Q, F, R
