"""HSeries reference kernels for the layered product kernels.

Copies of b, cup, brace, the direct twist-equation residual and the
slotwise product as they were written before the kernels moved to hbar
layers: every term pair multiplies and sums whole HSeries coefficients,
and a product truncates to the smaller order of its factors.  `_graded`
is the `graded_terms()` those loops read (hbar valuation, plus the leg
degree for a formal twist).  The layered kernels must agree with these
exactly, coefficient orders included.

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
rational multiple, goes through its constructor.  `rand_adt` draws as
`props._rand_adt` did when it enumerated its key pool on every draw.

`pbw_star` is the base star product on whole HSeries coefficients,
each leg monomial's hbar polynomial from `quantizer._star_mono` turned
into a series (`_poly_to_series`); `formal_mul` multiplies legs with it.

The linear maps that move hbar powers (`coproduct_at`, `j_to_k`, the
two argument-shift forms and `rescale_generator`) are kept as they were
written before they went through `SparseSeries.map_keys`: each term's
whole HSeries is multiplied by hbar^k (`HSeries.hbar`, `shift`) and the
result summed key by key.  `shift_taylor` is the only Taylor form of the
argument shift: `quantizer.shift_argument` computes the leg coaction
form, and the two must agree.

`cdybe_literal` is the classical dynamical Yang-Baxter residual in its
literal tensor form, CYB(rho) - Alt(d rho); `cdyb_dgla.cdybe_residual`
computes the DGLA form d(rho) + (1/2)[rho, rho], and the two must
vanish at the same leg degrees.
"""

import itertools
from fractions import Fraction

from dyntwist import linalg
from dyntwist.adt_dgla import AdtElement, adt_monomials
from dyntwist.errors import GradingMismatch, NoSolution
from dyntwist.hseries import HSeries, add_into
from dyntwist.lie_core import invariant_basis
from dyntwist.quantizer import FormalTwist, _star_mono
from dyntwist.tensor_spaces import CdybElement, sym_sort
from dyntwist.uea import coproduct_mono

_F1 = Fraction(1)


def _graded(E):
    leg = isinstance(E, FormalTwist)
    return sorted(
        ((k, c, c.valuation() + (len(k[-1]) if leg else 0))
         for k, c in E.terms.items()),
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
    return type(A)(uea, A.arity, out, order)


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
    for key, c in P.terms.items():
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
    for key, c in E.terms.items():
        for parts, mult in coproduct_mono(key[i], 2).items():
            add_into(out, key[:i] + parts + key[i + 1:], c * mult)
    return type(E)(E.uea, E.arity + 1, out, E.order)


def j_to_k(J):
    uea = J.uea
    out: dict = {}
    for key, c in J.terms.items():
        s = key[-1]
        coeff = c.shift(len(s))
        if coeff.is_zero():
            continue
        for m, d in uea.sym_mono(s).items():
            add_into(out, key[:-1] + (m,), coeff * d)
    return AdtElement(uea, J.arity, out, J.order)


def shift_coproduct(J):
    uea = J.uea
    order = J.order
    out: dict = {}
    for key, c in J.terms.items():
        gfac = key[:-1]
        s = key[-1]
        for positions in itertools.product((0, 1), repeat=len(s)):
            chosen = tuple(s[i] for i in range(len(s)) if positions[i] == 0)
            rest = tuple(s[i] for i in range(len(s)) if positions[i] == 1)
            coeff = c * HSeries.hbar(order, len(chosen))
            for m, d in uea.sym_mono(chosen).items():
                add_into(out, gfac + (m, rest), coeff * d)
    return FormalTwist(uea, J.arity + 1, out, order)


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
    for key, c in J.terms.items():
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
    return FormalTwist(uea, J.arity + 1, out, order)


def rescale_generator(q, order):
    terms = {}
    for (w, s), c in q.terms.items():
        shifted = c.truncate(order).shift(len(s))
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
    for (w, s), c in rho.terms.items():
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
    terms = dict(A.terms)
    for k, c in B.terms.items():
        c = _hs_neg(c) if negate else c
        old = terms.get(k)
        if old is not None:
            c = _hs_add(old, c)
        if c:
            terms[k] = c
        elif old is not None:
            del terms[k]
    return A._like(terms, min(A.order, B.order))


def sparse_neg(A):
    return A._like({k: _hs_neg(c) for k, c in A.terms.items()}, A.order)


def sparse_scale(A, c):
    order = min(A.order, c.order) if isinstance(c, HSeries) else A.order
    return A._like({k: _hs_scale(v, c) for k, v in A.terms.items()}, order)


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
