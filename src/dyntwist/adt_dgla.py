"""The twist-side dgla on T^*(U g) (x) U h.

Keys are tuples of k+1 PBW monomials: k tensor factors in U g followed by
one factor in U h (the leg).  The differential is the Hochschild-style
coboundary of Eq-free description: a unit is inserted on the left, the
coproduct is applied to each tensor factor in turn, and finally the leg
is split by the coaction (U g part first).  All of these preserve the
total PBW length, so every computation decomposes into finite slices.

Every key an element holds is a tuple of PBW monomials, weakly
increasing words: `schema.parse_twist` straightens what it reads, and
every kernel here returns straightened keys.  The kernels rely on it.
The coproduct splits a monomial into monomials without straightening
(`coproduct_mono`), so b of a key is a sum of keys.  cup and brace
join PBW words p + q, which is PBW exactly when one is empty or
p[-1] <= q[0]: they add a key whose joins all pass as it stands, and
straighten the others from the first slot whose join fails.
"""

from __future__ import annotations

import itertools
import math
import weakref
from bisect import bisect_left, bisect_right
from operator import add, itemgetter

from . import linalg
from .errors import GradingMismatch, NoSolution, TruncationTooSmall
from .hseries import SparseSeries, add_into, canonical, quotient
from .lie_core import invariant_basis
from .tensor_spaces import CdybElement, wedge_sort
from .uea import (
    UEnvelope,
    UmSplitter,
    all_monomials,
    all_monomials_from,
    compositions,
    coproduct_mono,
)


class AdtElement(SparseSeries):
    """Sparse element of (U g)^{(x) k} (x) U h over the hbar series."""

    __slots__ = ("uea", "arity")

    def __init__(self, uea: UEnvelope, arity: int, terms: dict, order: int):
        self.uea = uea
        self.arity = arity
        super().__init__(terms, order)

    def _space_values(self):
        return self.uea, self.arity

    def _set_space(self, uea, arity):
        self.uea = uea
        self.arity = arity

    def _key(self, key):
        if len(key) != self.arity + 1:
            raise GradingMismatch(
                f"key {key} has {len(key) - 1} factors, expected {self.arity}"
            )
        return tuple(map(tuple, key))

    @classmethod
    def zero(cls, uea, arity, order):
        return cls(uea, arity, {}, order)

    @classmethod
    def unit(cls, uea, arity, order):
        """1 (x) ... (x) 1."""
        return cls(uea, arity, {((),) * (arity + 1): 1}, order)

    # -- gradings and filtrations ------------------------------------------

    def total_lengths(self):
        return sorted({sum(len(m) for m in k) for k in self.keys()})

    def length_component(self, length: int) -> "AdtElement":
        return self.map_keys(
            lambda k: ((k, 0, 1),) if sum(map(len, k)) == length else (),
            AdtElement, self.uea, self.arity,
        )

    def filtration_degree(self) -> int:
        """Largest leg length appearing (0 for the zero element)."""
        return max((len(k[-1]) for k in self.keys()), default=0)

    def __repr__(self):
        if self.is_zero():
            return f"{type(self).__name__}(0; arity={self.arity})"
        names = self.uea.lie.basis_names
        bits = []
        for key in sorted(self.keys()):
            slot_strs = [
                ".".join(names[i] for i in m) or "1" for m in key
            ]
            bits.append(f"({self.series_repr(key)})*["
                        + " | ".join(slot_strs) + "]")
        return f"{type(self).__name__}(" + " + ".join(bits) + ")"


def ad_adt_key(uea: UEnvelope, x: int, key) -> dict:
    """Derivation action of basis element x on all factors and the leg."""
    out = {}
    for slot in range(len(key)):
        for m, c in uea.ad_mono(x, key[slot]).items():
            add_into(out, key[:slot] + (m,) + key[slot + 1 :], c)
    return out


# -- slot embeddings and the slotwise product --------------------------------
#
# These serve every element with `arity` group slots followed by one leg:
# AdtElement (leg in U h) and quantizer.FormalTwist (leg in S h).


def coproduct_at(E, i: int):
    """Coproduct on slot i, which becomes two adjacent slots.

    Slot i = arity is the leg: its coaction puts the first half into a
    new last group factor and keeps the second half as the leg.
    """
    def image(key):
        for parts, mult in coproduct_mono(key[i], 2).items():
            yield key[:i] + parts + key[i + 1 :], 0, mult

    return E.map_keys(image, type(E), E.uea, E.arity + 1)


def unit_at(E, i: int):
    """Insert a unit as the new slot i."""
    return E.map_keys(
        lambda key: ((key[:i] + ((),) + key[i:], 0, 1),),
        type(E), E.uea, E.arity + 1,
    )


def slotwise_product(A, B, leg_mul):
    """PBW products slot by slot; leg_mul(s, t) yields (leg, rational).

    The product of two layer terms lies in the layer of the sum of their
    powers, and is truncated to the smaller order N: a pair whose powers
    add up to more than N is never expanded.  Summed on ints, like b.
    """
    if A.arity != B.arity:
        raise GradingMismatch("arity mismatch in product")
    uea = A.uea
    order = min(A.order, B.order)
    outs = [{} for _ in range(order + 1)]
    den_a, terms_a = A.int_layer_terms()
    den_b, terms_b = B.int_layer_terms()
    for k1, a1, n1 in terms_a:
        for k2, a2, n2 in terms_b:
            if n1 + n2 > order:
                break
            slots = [((), a1 * a2)]
            for i in range(A.arity):
                exp = uea.mul_mono(k1[i], k2[i]).items()
                slots = [(pre + (m,), c * d) for pre, c in slots
                         for m, d in exp]
            acc = outs[n1 + n2]
            for leg, d in leg_mul(k1[-1], k2[-1]):
                for pre, c in slots:
                    add_into(acc, pre + (leg,), c * d)
    return type(A).from_layers(uea, A.arity, outs, den=den_a * den_b)


# -- differential ----------------------------------------------------------


def differential_b(P: AdtElement) -> AdtElement:
    """Coboundary raising the arity by one; squares to zero.

    Terms: unit inserted in slot 1 (positive), then alternating coproducts
    on each U g factor, and finally the coaction splitting of the leg with
    its U g part becoming the new last tensor factor.  b carries no hbar,
    so it maps each layer to the same layer, key by key (`b_key`), summed
    on ints (`SparseSeries.int_layer_terms`).  Its multiplicities are
    ints, so the sums of an input with integral values are the output's
    layers as they stand (`from_layers(..., integral=True)`).
    """
    outs = [{} for _ in range(P.order + 1)]
    den, items = P.int_layer_terms()
    for key, a, n in items:
        terms = outs[n]
        for new, mult in b_key(key):
            v = terms.get(new, 0) + a * mult
            if v:
                terms[new] = v
            else:
                del terms[new]
    return AdtElement.from_layers(P.uea, P.arity + 1, outs, den=den,
                                  integral=True)


_b_memo: dict = {}


def b_key(key) -> tuple:
    """b of one key, as ((key, int multiplicity), ...) with no zero.

    The coproduct and the coaction split monomials without straightening,
    so b of a key depends on the key alone.  The result (`_b_terms`) is
    memoized, like `coproduct_mono`, and shared between calls: callers
    must not mutate it.
    """
    out = _b_memo.get(key)
    if out is None:
        _b_memo[key] = out = _b_terms(key)
    return out


def _b_terms(key) -> tuple:
    """b of one key, generating only the terms that survive.

    A nonempty word w has (w, ()) first and ((), w) last among the parts
    of Delta(w) (`coproduct_mono`).  Both put an empty word beside a
    neighbour: ((), w) at slot i gives the key that (f_(i-1), ()) of the
    slot before gives with the opposite sign, or the unit insertion when
    i is the first slot, and (f_k, ()) gives the key that ((), leg) of
    the leg's coaction gives.  Between two nonempty words, every empty
    word adds its one part to that same key, so the key's coefficient is
    the alternating sum over the run, 0 or +-1 (`net`).  The other parts
    give keys that no other part gives, each once.  The keys come in the
    order in which summing every term in turn into a dict leaves them:
    the parts in slot order, and a run's key where the last word to
    reach it, the ((), w) of the nonempty word after the run, puts it.
    """
    gfac = key[:-1]
    leg = key[-1]
    out = []
    net = 1  # the unit insertion on the left
    sgn = 1
    for i, w in enumerate(gfac):
        sgn = -sgn  # the coproduct on factor i + 1 has sign (-1)^(i+1)
        if not w:
            net += sgn
            continue
        head, tail = gfac[:i], gfac[i + 1 :] + (leg,)
        parts = tuple(coproduct_mono(w, 2).items())
        for p, mult in parts[1:-1]:
            out.append((head + p + tail, sgn * mult))
        net += sgn
        if net:
            out.append((head + ((), w) + tail, net))
        net = sgn
    # the coaction on the leg, sign (-1)^(k+1); an empty leg has one
    # part, ((), ()), which ends the last run
    sgn = -sgn
    if leg:
        for p, mult in tuple(coproduct_mono(leg, 2).items())[:-1]:
            out.append((gfac + p, sgn * mult))
    net += sgn
    if net:
        out.append((gfac + ((), leg), net))
    return tuple(out)


# -- cup product -----------------------------------------------------------


def cup(P: AdtElement, Q: AdtElement) -> AdtElement:
    """Associative product of arities k and l with arity k + l.

    P's factors occupy the first k slots; its leg is spread by the
    iterated coaction over the last l slots and the leg, multiplying in
    front of Q's content.  The result is truncated to the smaller order
    N; layer-term pairs whose hbar powers add up to more than N are
    skipped.  Summed on ints, like b, and kept as it stands when both
    factors have integral values over an integral envelope
    (`UEnvelope.integral`).

    Slot k + j joins the PBW word parts[j] of the coaction in front of
    Q's word q_j.  The join is PBW exactly when one of them is empty or
    the last letter of parts[j] is at most the first of q_j, so a key
    whose joins all pass is added as it stands, and any other goes to
    `_straight_key` from its first failing slot.  An empty leg spreads
    as 1 (x) ... (x) 1: the key is P's factors followed by Q's key.
    """
    if P.uea is not Q.uea:
        raise GradingMismatch("cup of elements over different algebras")
    k, l = P.arity, Q.arity
    order = min(P.order, Q.order)
    outs = [{} for _ in range(order + 1)]
    straighten = P.uea.straighten
    den_p, terms_p = P.int_layer_terms()
    den_q, terms_q = Q.int_layer_terms()
    for keyP, aP, nP in terms_p:
        gP = keyP[:-1]
        if not keyP[-1]:
            for keyQ, aQ, nQ in terms_q:
                if nP + nQ > order:
                    break
                acc = outs[nP + nQ]
                slots = gP + keyQ
                v = acc.get(slots, 0) + aP * aQ
                if v:
                    acc[slots] = v
                else:
                    del acc[slots]
            continue
        for parts, mult in coproduct_mono(keyP[-1], l + 1).items():
            aPm = aP * mult
            # the last letter of each nonempty part, by slot past k
            ends = [(j, p[-1]) for j, p in enumerate(parts) if p]
            for keyQ, aQ, nQ in terms_q:
                if nP + nQ > order:
                    break
                # parts[j] multiplies in front of Q's factor j, the last
                # part in front of Q's leg
                slots = gP + tuple(map(add, parts, keyQ))
                acc = outs[nP + nQ]
                c = aPm * aQ
                for j, a in ends:
                    q = keyQ[j]
                    if q and a > q[0]:
                        _straight_key(straighten, slots, acc, c, k + j)
                        break
                else:
                    v = acc.get(slots, 0) + c
                    if v:
                        acc[slots] = v
                    else:
                        del acc[slots]
    return AdtElement.from_layers(P.uea, k + l, outs, den=den_p * den_q,
                                  integral=P.uea.integral)


def _straight_key(straighten, slots, acc, coeff, start):
    """Straighten the slot words and accumulate coeff times them into acc.

    slots[start] is the first word that is not a PBW monomial: the
    caller read that off the boundary letters of the PBW words it
    joined (a join p + q of PBW words is PBW exactly when one is empty
    or p[-1] <= q[0]), so the words before it are kept as they are.
    Each later word is looked up and expanded only when it is not PBW.
    coeff is a nonzero int (or a Fraction), multiplied through
    `straighten`, whose integral coefficients are ints.
    """
    partial = [(slots[:start] + (m,), coeff * c)
               for m, c in straighten(slots[start]).items()]
    done = start + 1  # slots[:done] are in every prefix of partial
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


# -- brace insertions ------------------------------------------------------


def brace(P: AdtElement, Qs) -> AdtElement:
    """Brace operation inserting Q_1, ..., Q_m into P's inputs in order.

    Sums over strictly increasing input positions of P.  The consumed
    factor of P is spread by the iterated coproduct across the inserted
    block (counit for arity-zero insertions); each inserted element's leg
    is spread by the iterated coaction over everything to its right.
    The sign of a placement is (-1)^{sum_s (arity(Q_s)-1) i_s} where i_s
    is the 0-based output slot at which the s-th block starts; this is
    the convention under which the brace relations hold exactly.  Note
    that it entails {1x1x1|P,Q} = (-1)^{(|Q|-1)|P|} P cup Q.

    The result is truncated to the smallest order N among P and the Q_s;
    a choice of layer terms whose hbar powers add up to more than N is
    skipped.  A P term whose power exceeds N minus the sum of the Q_s's
    lowest powers meets no such choice, so it is dropped before any
    placement spreads it.  Summed on ints, like b, and kept as it stands
    when every factor has integral values over an integral envelope
    (`UEnvelope.integral`).  The placements of one arity signature are
    laid out once (`_placements`), and each Q_s's terms are read once
    per call.
    """
    k = P.arity
    order = P.order
    den, terms_p = P.int_layer_terms()
    ks = []
    views = []  # per Q_s: (hbar power, value, factors, leg) of each term
    floor = 0  # the lowest hbar power of a choice of Q_s terms
    for Q in Qs:
        ks.append(Q.arity)
        if Q.order < order:
            order = Q.order
        den_q, terms = Q.int_layer_terms()
        den *= den_q
        views.append([(vQ, cQ, keyQ[:-1], keyQ[-1])
                      for keyQ, cQ, vQ in terms])
        # an empty Q_s meets no choice: every P term is dropped
        floor += terms[0][2] if terms else P.order + 1
    m = len(ks)
    n = k + sum(ks) - m
    if m > k or n < 0:
        return AdtElement.zero(P.uea, max(n, 0), order)
    outs = [{} for _ in range(order + 1)]
    terms_p = terms_p[:bisect_right(terms_p, order - floor,
                                    key=itemgetter(2))]
    for layout, blocks, sgn in _placements(k, tuple(ks)):
        _brace_placement(P.uea.straighten, terms_p, views, layout, blocks,
                         sgn, n, outs)
    return AdtElement.from_layers(P.uea, n, outs, den=den,
                                  integral=P.uea.integral)


# (k, Q arities) -> the placements of a brace, bounded by the arity
# signatures met
_placement_memo: dict = {}


def _placements(k: int, ks: tuple) -> tuple:
    """(layout, blocks, sign) of each placement, by increasing positions.

    layout holds the output slot of each input of P, with the width of
    its block when it is consumed (None when it is not); blocks holds
    (start, width) per Q_s, in order of s; the sign exponent is
    sum_s (arity(Q_s) - 1) * (start of block s).
    """
    out = _placement_memo.get((k, ks))
    if out is not None:
        return out
    out = []
    for positions in itertools.combinations(range(1, k + 1), len(ks)):
        layout = []
        blocks = []
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
        out.append((tuple(layout), tuple(blocks), sgn))
    _placement_memo[k, ks] = out = tuple(out)
    return out


def _brace_placement(straighten, terms_p, views, layout, blocks, sgn, n,
                     outs):
    """Add D_P D_Q1 ... D_Qm times the placement's terms to outs.

    A term is a tuple of n + 1 slot words, each word a tuple extended by
    concatenation as P's factor (or a part of its coproduct) and then
    the Q_s contents, in order of s, fill it.  P's words each land in a
    slot of their own.  A Q_s term joins its factors behind the words of
    its block and its leg's coaction parts behind the words to the right
    of the block.  Every word joined is PBW, and a join p + q of PBW
    words is PBW exactly when one is empty or p[-1] <= q[0]: each term
    carries the first slot where a join failed, from which
    `_straight_key` starts, and a term with none (n + 1) is added as it
    stands.  An empty consumed factor and an empty leg spread as
    1 (x) ... (x) 1 and join nothing.
    """
    top = len(outs) - 1
    # each Q_s term with its leg's coaction over the slots to the right
    # of its block (None for an empty leg)
    plan = [
        (start, start + w, [
            (vQ, cQ, gQ, coproduct_mono(leg, n - start - w + 1) if leg
             else None)
            for vQ, cQ, gQ, leg in view
        ])
        for (start, w), view in zip(blocks, views)
    ]
    for keyP, aP, nP in terms_p:
        # distribute P's factors; nonempty consumed ones wait for their
        # coproduct
        base = [()] * (n + 1)
        base[n] = keyP[-1]
        spread = []  # (start, factor, width) of the consumed factors
        for (slot, w), f in zip(layout, keyP):
            if w is None:
                base[slot] = f
            elif not f:
                continue
            elif w:
                spread.append((slot, f, w))
            else:  # counit kills non-scalars
                break
        else:
            # each entry carries the hbar power of the terms chosen so
            # far and the first slot where a join failed
            stack = [(tuple(base), aP * sgn, nP, n + 1)]
            for start, f, w in spread:
                stack = [
                    (slots[:start] + parts + slots[start + w:], c0 * mult,
                     v0, d)
                    for slots, c0, v0, d in stack
                    for parts, mult in coproduct_mono(f, w).items()
                ]
            for start, mid, entries in plan:
                nxt = []
                for slots, c0, v0, d in stack:
                    head, block, tail = (slots[:start], slots[start:mid],
                                         slots[mid:])
                    # the last letter of each nonempty word a join can
                    # fail behind, by its offset in the block or tail
                    bends = [(u, p[-1]) for u, p in enumerate(block)
                             if p] if any(block) else ()
                    tends = [(u, p[-1]) for u, p in enumerate(tail)
                             if p] if any(tail) else ()
                    for vQ, cQ, gQ, coaction in entries:
                        if v0 + vQ > top:
                            break
                        pre = head + tuple(map(add, block, gQ))
                        c1 = c0 * cQ
                        d1 = d
                        for u, a in bends:
                            q = gQ[u]
                            if q and a > q[0]:
                                d1 = min(d, start + u)
                                break
                        if coaction is None:
                            nxt.append((pre + tail, c1, v0 + vQ, d1))
                            continue
                        for parts, mult in coaction.items():
                            d2 = d1
                            for u, a in tends:
                                q = parts[u]
                                if q and a > q[0]:
                                    d2 = min(d1, mid + u)
                                    break
                            nxt.append((pre + tuple(map(add, tail, parts)),
                                        c1 * mult, v0 + vQ, d2))
                stack = nxt
            for slots, c, v0, d in stack:
                acc = outs[v0]
                if d <= n:
                    _straight_key(straighten, slots, acc, c, d)
                    continue
                v = acc.get(slots, 0) + c
                if v:
                    acc[slots] = v
                else:
                    del acc[slots]


def gerstenhaber_bracket(P: AdtElement, Q: AdtElement) -> AdtElement:
    """[P, Q] = {P|Q} - (-1)^{(|P|-1)(|Q|-1)} {Q|P}.

    A Lie bracket only on h-invariant elements; the arguments are not
    checked for invariance.
    """
    sgn = -1 if ((P.arity - 1) * (Q.arity - 1)) % 2 else 1
    return brace(P, [Q]) - brace(Q, [P]).scale(sgn)


# -- projections and embeddings --------------------------------------------


def p2_project(splitter: UmSplitter, P: AdtElement) -> AdtElement:
    """Factorwise projection onto sym(S m) tensor counit on the leg.

    This is where the U g = U g . h (+) sym(S m) splitting enters: each
    factor's U m part is a rational {monomial: value} dict, read from
    the splitter's memo (`UmSplitter.um_mono`), and applies to every
    hbar layer alike (`p2_image`).
    """
    return P.map_keys(lambda key: p2_image(splitter, key), AdtElement,
                      splitter.uea, P.arity)


def p2_image(splitter: UmSplitter, key):
    """p2 of one key, as ((key, 0, rational), ...) for `map_keys`."""
    if key[-1] != ():  # counit on the leg
        return ()
    partial = [((), 1)]
    for mfac in key[:-1]:
        um = splitter.um_mono(mfac)
        if not um:
            return ()
        partial = [(pref + (mono,), c0 * cc) for pref, c0 in partial
                   for mono, cc in um.items()]
    return [(pref + ((),), 0, c0) for pref, c0 in partial]


def alt_embed(uea: UEnvelope, elt: CdybElement) -> AdtElement:
    """Antisymmetrized tensor embedding with 1/k! so alt o alt_embed = id.

    All wedge monomials must share one exterior degree (the arity).
    """
    k = elt.exterior_degree()
    norm = quotient(1, math.factorial(k))

    def image(key):
        w, s = key
        leg = uea.sym_mono(s)
        for perm in itertools.permutations(range(k)):
            sign = wedge_sort(perm)[0]
            gkey = tuple((w[p],) for p in perm)
            for mono, lc in leg.items():
                yield gkey + (mono,), 0, sign * norm * lc

    return elt.map_keys(image, AdtElement, uea, k)


# -- basis enumeration and exact solving -----------------------------------


def adt_monomials(uea: UEnvelope, arity: int, total_length: int):
    """All keys of the given arity whose factor lengths sum to the total."""
    lie = uea.lie
    keys = []
    for comp in compositions(total_length, arity + 1):
        per_slot = []
        for slot in range(arity):
            per_slot.append(
                [
                    m
                    for m in all_monomials(lie.dim, comp[slot])
                    if len(m) == comp[slot]
                ]
            )
        per_slot.append(
            [
                m
                for m in all_monomials_from(lie.h_indices, comp[arity])
                if len(m) == comp[arity]
            ]
        )
        for combo in itertools.product(*per_slot):
            keys.append(tuple(combo))
    return keys


def _content(key):
    """The sorted tuple of all letters of a key, which b keeps."""
    return tuple(sorted(sum(key, ())))


class _Block:
    """The keys of one slice whose contents the h-action links.

    `index` holds the keys' positions in the slice.  The invariant basis
    of the block (`basis`, with `free` the slice position of each
    vector's free key, which is its last key) and the integer b-columns
    {basis index: (D, column)} are built when first asked for.

    An eigen-block (`eigen`) is one content with no moving letter: each
    ad x multiplies every key of it by the same scalar, the sum of its
    letters' eigenvalues, so its keys are all invariant or none is.
    """

    __slots__ = ("keys", "index", "eigen", "basis", "free", "columns")

    def __init__(self, keys, index, eigen):
        self.keys = keys
        self.index = index
        self.eigen = eigen
        self.basis = None
        self.free = None
        self.columns = {}


class _Slice:
    """The keys of one (arity, length) slice, split into content blocks.

    b keeps a key's content, and the h-action maps a key only into keys
    whose contents it joins, so both the invariant complex and every
    coboundary system are block-diagonal.  A letter i is moving when
    some base element x has [x, i] with a component other than i; a key
    without one is an eigenvector of every ad x and keeps its content.
    Only keys with a moving letter need their h-action to find the
    union-find closure of contents, which may pass through contents
    that no key of the slice has.  A content without a moving letter
    that no other content reaches is a block of its own, an eigen-block,
    whose invariants one key's h-action decides (`_in_slice_order`).
    """

    __slots__ = ("blocks", "block_of", "basis", "where")

    def __init__(self, uea: UEnvelope, arity: int, length: int):
        lie = uea.lie
        moving = {
            i for x in lie.h_indices for i in range(lie.dim)
            if any(k != i for k in lie.bracket_basis(x, i))
        }
        keys = adt_monomials(uea, arity, length)
        by_content: dict = {}
        for i, key in enumerate(keys):
            by_content.setdefault(_content(key), []).append(i)
        root = {c: c for c in by_content}

        def find(c):
            while root[c] != c:
                root[c] = c = root[root[c]]
            return c

        for c, index in by_content.items():
            if moving.isdisjoint(c):
                continue
            for i in index:
                for x in lie.h_indices:
                    for out in ad_adt_key(uea, x, keys[i]):
                        d = _content(out)
                        a, b = find(c), find(root.setdefault(d, d))
                        if a != b:
                            root[b] = a
        groups: dict = {}
        for c, index in by_content.items():
            groups.setdefault(find(c), []).append((c, index))
        blocks = {}
        for r, parts in groups.items():
            index = sorted(itertools.chain.from_iterable(i for _, i in parts))
            eigen = len(parts) == 1 and moving.isdisjoint(parts[0][0])
            blocks[r] = _Block([keys[i] for i in index], index, eigen)
        self.blocks = list(blocks.values())
        self.block_of = {c: blocks[find(c)] for c in by_content}
        self.basis = None
        self.where = None


# per algebra: {(arity, length): _Slice}.  A slice's blocks are found
# when the slice is first asked for; a block's invariant basis and each
# of its b-columns when first needed, and the merged basis of the slice
# (`invariant_adt_basis`) only when asked for
_slice_caches: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _slice(uea: UEnvelope, arity: int, total_length: int) -> _Slice:
    cache = _slice_caches.setdefault(uea, {})
    sl = cache.get((arity, total_length))
    if sl is None:
        cache[(arity, total_length)] = sl = _Slice(uea, arity, total_length)
    return sl


def _in_slice_order(uea: UEnvelope, blocks, keep=None):
    """(block, basis index) of the blocks' vectors, in slice order.

    A vector's place is the slice position of its free key, as in the
    kernel basis of the whole slice; keep(vector), when given, filters.
    An eigen-block's basis is read from its first key's h-action: every
    key, as {key: 1} in slice order, when each ad x kills it, else none.
    That is the kernel basis `invariant_basis` gives there.
    """
    tagged = []
    for block in blocks:
        if block.basis is None and block.eigen:
            key = block.keys[0]
            if any(ad_adt_key(uea, x, key) for x in uea.lie.h_indices):
                block.basis, block.free = [], []
            else:
                block.basis = [{k: 1} for k in block.keys]
                block.free = block.index
        elif block.basis is None:
            block.basis = invariant_basis(
                uea.lie, block.keys, lambda x, k: ad_adt_key(uea, x, k)
            )
            position = dict(zip(block.keys, block.index))
            block.free = [position[next(reversed(v))] for v in block.basis]
        tagged.extend(
            (f, block, i)
            for i, (f, v) in enumerate(zip(block.free, block.basis))
            if keep is None or keep(v)
        )
    tagged.sort(key=lambda t: t[0])
    return [(block, i) for _, block, i in tagged]


def b_vector(vec: dict):
    """(D, b(D v)) for a vector v = {key: rational} of hbar order 0.

    D is the lcm of v's denominators, so b(D v) is a dict of ints.  Its
    sums are D times those of b(v), so they vanish at the same steps and
    it has the key order of b(v).  Its callers keep each column they
    build, so it reads b of a key from the memo of `b_key` but does not
    store it there: on the solver's path no other caller asks for b of
    a column's keys again, and the memo would hold them for the life of
    the process.
    """
    den = math.lcm(*(c.denominator for c in vec.values()))
    acc: dict = {}
    for key, c in vec.items():
        a = c.numerator * (den // c.denominator)
        terms = _b_memo.get(key)
        for new, mult in terms if terms is not None else _b_terms(key):
            add_into(acc, new, a * mult)
    return den, acc


def _block_column(block: _Block, i: int):
    """(D, b(D v)) for the i-th basis vector v of the block (`b_vector`).

    Scaling a column by D > 0 keeps every pivot of an elimination, and
    its solution coefficient comes out divided by D.
    """
    col = block.columns.get(i)
    if col is None:
        block.columns[i] = col = b_vector(block.basis[i])
    return col


def invariant_adt_basis(uea: UEnvelope, arity: int, total_length: int):
    """Basis of the h-invariant span of a slice's keys, built block by block.

    The blocks' vectors are merged in the order of their free keys'
    positions in the slice, which is the order of the kernel basis of
    the whole slice: the vectors, their order and their key order are
    those of `invariant_basis` over all keys at once.
    """
    sl = _slice(uea, arity, total_length)
    if sl.basis is None:
        sl.where = _in_slice_order(uea, sl.blocks)
        sl.basis = [block.basis[i] for block, i in sl.where]
    return sl.basis


def kappa_solve(
    uea: UEnvelope,
    target: AdtElement,
    max_filtration: int | None = None,
):
    """Solve b(u) = target with u invariant, slice by slice.

    Every total-length slice is solved by one exact elimination, which
    serves all hbar levels, over the invariant basis vectors of the
    lower arity in the content blocks that the target's keys fall in;
    an optional leg-length bound restricts the solution space.  b keeps
    the blocks apart, and the columns keep the order of
    `invariant_adt_basis`, so pivots, solutions and key order are those
    of the elimination over the whole slice.  Raises NoSolution with the
    unreachable residual, the arity and the length of the slice when the
    target is not in the image.

    The columns go to `linalg.solve` as the integer columns b(D v) of
    `_block_column`; each solution coefficient is scaled back by D.
    """
    if target.arity == 0:
        raise GradingMismatch("cannot lower arity below zero")
    order = target.order
    arity = target.arity - 1
    keep = None
    if max_filtration is not None:
        def keep(v):
            return all(len(key[-1]) <= max_filtration for key in v)
    # the target's layers, split by total length
    slices: dict = {}
    for key, a, n in target.layer_terms():
        L = sum(map(len, key))
        layers = slices.get(L)
        if layers is None:
            slices[L] = layers = [{} for _ in range(order + 1)]
        layers[n][key] = a
    outs = [{} for _ in range(order + 1)]
    for L in sorted(slices):
        layers = slices[L]
        block_of = _slice(uea, arity, L).block_of
        # a key whose content no block has meets no column: no solution
        blocks = {block_of.get(_content(key))
                  for layer in layers for key in layer}
        kept = _in_slice_order(uea, blocks - {None}, keep)
        columns = [_block_column(block, i) for block, i in kept]
        sols = linalg.solve([col for _, col in columns], layers)
        if None in sols:
            raise NoSolution(
                f"target length-{L} slice not in the image of b",
                residual=target.length_component(L), arity=target.arity,
                length=L,
            )
        for sol, out in zip(sols, outs):
            for j, a in sol.items():
                block, i = kept[j]
                a *= columns[j][0]
                for key, c in block.basis[i].items():
                    add_into(out, key, a * c)
    return AdtElement.from_layers(uea, arity, outs)


def cohomology_dims(uea: UEnvelope, max_k: int, max_length: int):
    """dim H^k of the invariant complex for k = 0..max_k.

    b keeps the total PBW length, so each length slice up to max_length
    is finite and solved exactly; the two largest must contribute
    nothing, else TruncationTooSmall.  A rank ignores the positive
    scales of the integer columns b(D v).
    """
    if max_length < 2:
        raise TruncationTooSmall("need max_length >= 2")

    def columns(k, L):
        invariant_adt_basis(uea, k, L)
        return [_block_column(*w)[1] for w in _slice(uea, k, L).where]

    return linalg.cohomology_dims(
        columns, max_k, lambda k: range(max_length + 1)
    )


# -- the twist equation residual -------------------------------------------


def adte_residual(K: AdtElement) -> AdtElement:
    """Residual of the algebraic dynamical twist equation for arity-2 K.

    It is K^{12,3,4} K^{1,2,34} - K^{1,23,4} K^{2,3,4}, with slotwise
    products; `mc_residual` is the same element, computed another way.

    The residual is exact mod hbar^(N+1), N = K.order: a pair of layer
    terms whose hbar powers add up to more than N is skipped, as it
    contributes nothing there.  Truncation is a ring map, so the hbar^n
    layer of the residual is also the hbar^n layer of
    adte_residual(K.truncate(n)); `adte_residual_layer` computes that
    layer alone.
    """
    if K.arity != 2:
        raise GradingMismatch("twist residual requires arity 2")
    outs = [{} for _ in range(K.order + 1)]
    den = _adte_pairs(K, 0, outs)
    return AdtElement.from_layers(K.uea, 3, outs, den=den,
                                  integral=K.uea.integral)


def mc_residual(K: AdtElement) -> AdtElement:
    """-b(K - 1) + {K - 1 | K - 1}, with the keys and values of those sums.

    This is the Maurer-Cartan residual of K - 1 in the dgla whose
    differential is the negative coboundary; it equals adte_residual(K)
    identically (`props.check_adte_modes`).

    K - 1 shares K's layers but the first, a copy whose unit key is
    lowered by one: in place, appended when K has none, and dropped when
    it cancels.  The two terms then meet in one pass per layer: b's keys
    negated in their order, then the brace's added.
    """
    if K.arity != 2:
        raise GradingMismatch("twist residual requires arity 2")
    layers = list(K.layers)
    first = layers[0] = dict(layers[0])
    unit = ((),) * 3
    v = first.get(unit, 0) - 1
    if v:
        first[unit] = v
    else:
        del first[unit]
    Kt = K._same_space(layers)
    out = []
    for bl, rl in zip(differential_b(Kt).layers, brace(Kt, [Kt]).layers):
        acc = {key: -a for key, a in bl.items()}
        for key, c in rl.items():
            old = acc.get(key)
            if old is None:
                acc[key] = c
                continue
            c = old + c
            if c:
                acc[key] = c if type(c) is int else canonical(c)
            else:
                del acc[key]
        out.append(acc)
    return AdtElement._direct((K.uea, 3), out)


def adte_residual_layer(K: AdtElement, n: int) -> dict:
    """adte_residual(K).layer(n), from the layer pairs K_a, K_b, a + b = n.

    n is at most K.order, the highest layer K determines.  Values
    are canonical, as `layer` gives them.
    """
    outs = [{} for _ in range(n + 1)]
    den = _adte_pairs(K, n, outs)
    return {key: quotient(a, den) for key, a in outs[n].items()}


def _adte_pairs(K, lo, outs):
    """Residual terms of K's layer-term pairs, by the sum of their powers.

    Every pair whose hbar powers a, b have lo <= a + b < len(outs) adds
    its terms to outs[a + b], summed on ints: returns the scale D^2 of
    the sums, D that of `K.int_layer_terms()`.

    The terms are read in factored form.  For the pair of keys
    k1 = (f1, f2, leg) and k2 = (g1, g2, legg),

        K^{12,3,4} K^{1,2,34} = X(f1; g1, g2) (x) Y(f2, leg; legg),
        K^{1,23,4} K^{2,3,4}  = f1 (x) X(f2; g1, g2) (x) S(leg legg),

    with X(f; g1, g2) = sum Delta(f) (g1 (x) g2) and
    Y(f2, leg; legg) = sum (f2 (x) leg) Delta(legg), each straightened
    slot by slot, and S the straightening.  Each factor depends on its
    keys alone and is built once per algebra, as a tuple of (monomial
    pair, rational) items, in the memos `UEnvelope._adte_factors` (X by
    (f, g1, g2), Y by (f2, leg, legg), S by (leg, legg)).  They live as
    long as the envelope, like its straightening cache, and every
    residual over it shares them: callers must not mutate them.  The
    first term runs over the pairs grouped by f1 and the second over
    them grouped by f2; the sums are exact, so their order changes no
    value.
    """
    uea = K.uea
    straighten = uea.straighten
    X, Y, S = uea._adte_factors
    top = len(outs) - 1
    den, items = K.int_layer_terms()
    by_f1: dict = {}  # f1 -> entries of K with that first factor
    by_f2: dict = {}
    for k1, a1, n1 in items:
        if n1 > top:
            break
        # the second entries of the pairs run from `start` on
        start = bisect_left(items, lo - n1, key=lambda t: t[2])
        by_f1.setdefault(k1[0], []).append((k1, a1, n1, start))
        by_f2.setdefault(k1[1], []).append((k1, a1, n1, start))

    def pairs(firsts):
        for k1, a1, n1, start in firsts:
            for k2, a2, n2 in itertools.islice(items, start, None):
                if n1 + n2 > top:
                    break
                yield k1, k2, a1 * a2, outs[n1 + n2]

    # K^{12,3,4} K^{1,2,34}
    for f1, firsts in by_f1.items():
        for (_, f2, leg), (g1, g2, legg), a, out in pairs(firsts):
            x = X.get((f1, g1, g2))
            if x is None:
                X[f1, g1, g2] = x = _factor(straighten, f1, (), (), g1, g2)
            y = Y.get((f2, leg, legg))
            if y is None:
                Y[f2, leg, legg] = y = _factor(straighten, legg, f2, leg,
                                               (), ())
            _add_products(out, x, y, a)
    # - K^{1,23,4} K^{2,3,4}
    for f2, firsts in by_f2.items():
        for (f1, _, leg), (g1, g2, legg), a, out in pairs(firsts):
            x = X.get((f2, g1, g2))
            if x is None:
                X[f2, g1, g2] = x = _factor(straighten, f2, (), (), g1, g2)
            sl = S.get((leg, legg))
            if sl is None:
                S[leg, legg] = sl = tuple(
                    ((m,), c) for m, c in straighten(leg + legg).items())
            # S(f1) (x) X (x) S, the three factors in one loop
            for m1, c1 in straighten(f1).items():
                c1 *= -a
                for kx, cx in x:
                    kl = (m1,) + kx
                    cl = c1 * cx
                    for kr, cr in sl:
                        key = kl + kr
                        v = out.get(key, 0) + cl * cr
                        if v:
                            out[key] = v
                        else:
                            del out[key]
    return den * den


def _factor(straighten, w, l1, l2, r1, r2):
    """Sum over Delta(w) = p1 (x) p2 of S(l1 p1 r1) (x) S(l2 p2 r2), as
    a tuple of ((m1, m2), rational) items."""
    acc: dict = {}
    for (p1, p2), mult in coproduct_mono(w, 2).items():
        for m1, c1 in straighten(l1 + p1 + r1).items():
            c1 *= mult
            for m2, c2 in straighten(l2 + p2 + r2).items():
                add_into(acc, (m1, m2), c1 * c2)
    return tuple(acc.items())


def _add_products(out, lefts, rights, a):
    """out[l + r] += a cl cr for each (l, cl) of lefts and (r, cr) of rights.

    Every coefficient is nonzero, so a sum that vanishes had a key before.
    """
    for kl, cl in lefts:
        cl *= a
        for kr, cr in rights:
            key = kl + kr
            v = out.get(key, 0) + cl * cr
            if v:
                out[key] = v
            else:
                del out[key]
