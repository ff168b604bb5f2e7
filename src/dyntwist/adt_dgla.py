"""The twist-side dgla on T^*(U g) (x) U h.

Keys are tuples of k+1 PBW monomials: k tensor factors in U g followed by
one factor in U h (the leg).  The differential is the Hochschild-style
coboundary of Eq-free description: a unit is inserted on the left, the
coproduct is applied to each tensor factor in turn, and finally the leg
is split by the coaction (U g part first).  All of these preserve the
total PBW length, so every computation decomposes into finite slices.
"""

from __future__ import annotations

import itertools
import math
import weakref
from bisect import bisect_left

from . import linalg
from .errors import GradingMismatch, NoSolution, NotInvariant, TruncationTooSmall
from .hseries import SparseSeries, add_into, quotient
from .lie_core import invariant_basis
from .tensor_spaces import CdybElement, wedge_sort
from .uea import (
    UEnvelope,
    UmSplitter,
    all_monomials,
    all_monomials_from,
    coproduct_mono,
)


class AdtElement(SparseSeries):
    """Sparse element of (U g)^{(x) k} (x) U h over HSeries."""

    __slots__ = ("uea", "arity")
    _space = ("uea", "arity")

    def __init__(self, uea: UEnvelope, arity: int, terms: dict, order: int):
        self.uea = uea
        self.arity = arity
        super().__init__(terms, order)

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
        return sorted({sum(len(m) for m in k) for k in self.terms})

    def length_component(self, length: int) -> "AdtElement":
        return self.map_keys(
            lambda k: ((k, 0, 1),) if sum(map(len, k)) == length else (),
            AdtElement, self.uea, self.arity,
        )

    def filtration_degree(self) -> int:
        """Largest leg length appearing (0 for the zero element)."""
        return max((len(k[-1]) for k in self.terms), default=0)

    # -- h action ----------------------------------------------------------

    def ad(self, x: int) -> "AdtElement":
        uea = self.uea
        return self.map_keys(
            lambda k: ((o, 0, c) for o, c in ad_adt_key(uea, x, k).items()),
            AdtElement, uea, self.arity,
        )

    def is_invariant(self) -> bool:
        return all(self.ad(x).is_zero() for x in self.uea.lie.h_indices)

    def __repr__(self):
        if not self.terms:
            return f"{type(self).__name__}(0; arity={self.arity})"
        names = self.uea.lie.basis_names
        bits = []
        for key, c in sorted(self.terms.items()):
            slot_strs = [
                ".".join(names[i] for i in m) or "1" for m in key
            ]
            bits.append(f"({c!r})*[" + " | ".join(slot_strs) + "]")
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
    """PBW products slot by slot; leg_mul(s, t) yields (leg, power, rational).

    The legs multiply into hbar^power times leg.  The product is
    truncated to the smaller order N: a pair of layer terms whose weights
    (hbar powers, or for formal twists hbar power plus leg degree) add up
    to more than N is never expanded.  Summed on ints, like b.
    """
    if A.arity != B.arity:
        raise GradingMismatch("arity mismatch in product")
    uea = A.uea
    order = min(A.order, B.order)
    outs = [{} for _ in range(order + 1)]
    den_a, terms_a = A.int_layer_terms()
    den_b, terms_b = B.int_layer_terms()
    for k1, a1, n1, w1 in terms_a:
        for k2, a2, n2, w2 in terms_b:
            if w1 + w2 > order:
                break
            slots = [((), a1 * a2)]
            for i in range(A.arity):
                exp = uea.mul_mono(k1[i], k2[i]).items()
                slots = [(pre + (m,), c * d) for pre, c in slots
                         for m, d in exp]
            for leg, q, d in leg_mul(k1[-1], k2[-1]):
                n = n1 + n2 + q
                if n > order:
                    continue
                acc = outs[n]
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
    on ints (`SparseSeries.int_layer_terms`).
    """
    outs = [{} for _ in range(P.order + 1)]
    den, items = P.int_layer_terms()
    for key, a, n, _ in items:
        terms = outs[n]
        for new, mult in b_key(key):
            add_into(terms, new, a * mult)
    return AdtElement.from_layers(P.uea, P.arity + 1, outs, den=den)


_b_memo: dict = {}


def b_key(key) -> tuple:
    """b of one key, as ((key, int multiplicity), ...) with no zero.

    The coproduct and the coaction split monomials without straightening,
    so b of a key depends on the key alone.  The result is memoized, like
    `coproduct_mono`, and shared between calls: callers must not mutate
    it.
    """
    out = _b_memo.get(key)
    if out is None:
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
        _b_memo[key] = out = tuple(terms.items())
    return out


# -- cup product -----------------------------------------------------------


def cup(P: AdtElement, Q: AdtElement) -> AdtElement:
    """Associative product of arities k and l with arity k + l.

    P's factors occupy the first k slots; its leg is spread by the
    iterated coaction over the last l slots and the leg, multiplying in
    front of Q's content.  The result is truncated to the smaller order
    N; layer-term pairs whose hbar powers add up to more than N are
    skipped.  Summed on ints, like b.
    """
    if P.uea is not Q.uea:
        raise GradingMismatch("cup of elements over different algebras")
    k, l = P.arity, Q.arity
    order = min(P.order, Q.order)
    outs = [{} for _ in range(order + 1)]
    den_p, terms_p = P.int_layer_terms()
    den_q, terms_q = Q.int_layer_terms()
    for keyP, aP, nP, _ in terms_p:
        gP, legP = keyP[:-1], keyP[-1]
        for parts, mult in coproduct_mono(legP, l + 1).items():
            aPm = aP * mult
            for keyQ, aQ, nQ, _ in terms_q:
                if nP + nQ > order:
                    break
                gQ, legQ = keyQ[:-1], keyQ[-1]
                slots = list(gP)
                for j in range(l):
                    slots.append(parts[j] + gQ[j])
                slots.append(parts[l] + legQ)
                _straight_key(P.uea, tuple(slots), outs[nP + nQ], aPm * aQ)
    return AdtElement.from_layers(P.uea, k + l, outs, den=den_p * den_q)


def _straight_key(uea, slots, acc, coeff):
    """Straighten every slot word and accumulate coeff times it into acc.

    coeff is an int (or a Fraction), multiplied through `straighten`,
    whose integral coefficients are ints.
    """
    partial = [((), coeff)]
    done = 0  # slots[:done] are in every prefix of partial
    for i, w in enumerate(slots):
        exp = uea.straighten(w)
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
    skipped.  Summed on ints, like b.
    """
    Qs = list(Qs)
    m = len(Qs)
    k = P.arity
    ks = [Q.arity for Q in Qs]
    n = k + sum(ks) - m
    if m > k or n < 0:
        return AdtElement.zero(P.uea, max(n, 0), P.order)
    order = min([P.order] + [Q.order for Q in Qs])
    outs = [{} for _ in range(order + 1)]
    uea = P.uea
    for positions in itertools.combinations(range(1, k + 1), m):
        _brace_placement(uea, P, Qs, positions, n, outs)
    den = math.prod(E.int_layer_terms()[0] for E in [P] + Qs)
    return AdtElement.from_layers(uea, n, outs, den=den)


def _brace_placement(uea, P, Qs, positions, n, outs):
    """Add D_P D_Q1 ... D_Qm times the placement's terms to outs."""
    ks = [Q.arity for Q in Qs]
    consumed = {j: s for s, j in enumerate(positions)}  # input -> insertion idx
    # slot layout: for each input of P, a block of width 1 or ks[s]; the
    # sign exponent is sum_s (arity(Q_s) - 1) * (start of block s)
    starts = {}
    cursor = 0
    sgn = 1
    for t in range(1, P.arity + 1):
        if t in consumed:
            s = consumed[t]
            starts[s] = cursor
            if (ks[s] - 1) * cursor % 2:
                sgn = -sgn
            cursor += ks[s]
        else:
            cursor += 1
    assert cursor == n
    top = len(outs) - 1
    for keyP, aP, nP, _ in P.int_layer_terms()[1]:
        if nP > top:
            break
        gP, legP = keyP[:-1], keyP[-1]
        # distribute P's factors
        base: list = [[] for _ in range(n + 1)]
        cursor = 0
        dead = False
        delta_choices = []  # (slot range, factor, width) needing coproduct
        for t in range(1, P.arity + 1):
            f = gP[t - 1]
            if t in consumed:
                s = consumed[t]
                w = ks[s]
                if w == 0:
                    if f != ():  # counit kills non-scalars
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
        # expand coproducts of consumed factors and Q contents recursively;
        # each entry carries the hbar power of the terms chosen so far
        stack = [(base, aP, nP)]
        for start, f, w in delta_choices:
            nxt = []
            for slots, c0, v0 in stack:
                for parts, mult in coproduct_mono(f, w).items():
                    s2 = [list(x) for x in slots]
                    for u in range(w):
                        s2[start + u].append(parts[u])
                    nxt.append((s2, c0 * mult, v0))
            stack = nxt
        # insert the Q_s contents, in order of s (legs spread to the right)
        for s, Q in enumerate(Qs):
            start = starts[s]
            w = ks[s]
            spread = n - (start + w)  # slots to the right of the block
            nxt = []
            terms_q = Q.int_layer_terms()[1]
            for slots, c0, v0 in stack:
                for keyQ, cQ, vQ, _ in terms_q:
                    if v0 + vQ > top:
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
        for slots, c0, v0 in stack:
            words = tuple(
                tuple(itertools.chain.from_iterable(slot)) for slot in slots
            )
            _straight_key(uea, words, outs[v0], c0 * sgn)


def gerstenhaber_bracket(
    P: AdtElement, Q: AdtElement, check_invariance: bool = True
) -> AdtElement:
    """[P, Q] = {P|Q} - (-1)^{(|P|-1)(|Q|-1)} {Q|P}.

    A Lie bracket only on h-invariant elements; by default both arguments
    are checked and NotInvariant is raised otherwise.
    """
    if check_invariance:
        for name, E in (("first", P), ("second", Q)):
            if not E.is_invariant():
                raise NotInvariant(f"{name} bracket argument is not h-invariant")
    sgn = -1 if ((P.arity - 1) * (Q.arity - 1)) % 2 else 1
    return brace(P, [Q]) - brace(Q, [P]).scale(sgn)


# -- projections and embeddings --------------------------------------------


def p2_project(splitter: UmSplitter, P: AdtElement) -> AdtElement:
    """Factorwise projection onto sym(S m) tensor counit on the leg.

    This is where the U g = U g . h (+) sym(S m) splitting enters: each
    factor's U m part is a rational {monomial: value} dict, read from
    the splitter's memo (`UmSplitter.um_mono`), and applies to every
    hbar layer alike.
    """

    def image(key):
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

    return P.map_keys(image, AdtElement, splitter.uea, P.arity)


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
    for comp in _compositions(total_length, arity + 1):
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


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _content(key):
    """The sorted tuple of all letters of a key, which b keeps."""
    return tuple(sorted(sum(key, ())))


class _Block:
    """The keys of one slice whose contents the h-action links.

    `index` holds the keys' positions in the slice.  The invariant basis
    of the block (`basis`, with `free` the slice position of each
    vector's free key, which is its last key) and the integer b-columns
    {basis index: (D, column)} are built when first asked for.
    """

    __slots__ = ("keys", "index", "basis", "free", "columns")

    def __init__(self, keys, index):
        self.keys = keys
        self.index = index
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
    that no key of the slice has.
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
            groups.setdefault(find(c), []).append(index)
        blocks = {}
        for r, parts in groups.items():
            index = sorted(itertools.chain.from_iterable(parts))
            blocks[r] = _Block([keys[i] for i in index], index)
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
    """
    tagged = []
    for block in blocks:
        if block.basis is None:
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


def _block_column(block: _Block, i: int):
    """(D, b(D v)) for the i-th basis vector v of the block.

    D is the lcm of v's denominators, so b(D v) is a column of ints.  Its
    sums are D times those of b(v), so they vanish at the same steps and
    the column has the key order of b(v).  Scaling a column by D > 0
    keeps every pivot of an elimination, and its solution coefficient
    comes out divided by D.
    """
    col = block.columns.get(i)
    if col is None:
        vec = block.basis[i]
        den = math.lcm(*(c.denominator for c in vec.values()))
        acc: dict = {}
        for key, c in vec.items():
            a = c.numerator * (den // c.denominator)
            for new, mult in b_key(key):
                add_into(acc, new, a * mult)
        block.columns[i] = col = (den, acc)
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
    for key, a, n, _ in target.layer_terms():
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


def adte_residual(K: AdtElement, mode: str = "direct") -> AdtElement:
    """Residual of the algebraic dynamical twist equation for arity-2 K.

    mode "direct" computes K^{12,3,4} K^{1,2,34} - K^{1,23,4} K^{2,3,4}
    with slotwise products; mode "mc" computes the Maurer-Cartan residual
    -b(K-1) + {K-1 | K-1} of K-1 for the dgla whose differential is the
    negative coboundary.  The two modes agree identically.

    The residual is exact mod hbar^(N+1), N = K.order: a pair of layer
    terms whose hbar powers add up to more than N is skipped, as it
    contributes nothing there.  Truncation is a ring map, so the hbar^n
    layer of the residual is also the hbar^n layer of
    adte_residual(K.truncate(n)); `adte_residual_layer` computes that
    layer alone.
    """
    if K.arity != 2:
        raise GradingMismatch("twist residual requires arity 2")
    if mode == "mc":
        Kt = K - AdtElement.unit(K.uea, 2, K.order)
        return -differential_b(Kt) + brace(Kt, [Kt])
    if mode != "direct":
        raise ValueError(f"unknown mode {mode!r}")
    outs = [{} for _ in range(K.order + 1)]
    den = _adte_pairs(K, 0, outs)
    return AdtElement.from_layers(K.uea, 3, outs, den=den)


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
    its `_adte_pair` terms to outs[a + b], summed on ints: returns the
    scale D^2 of the sums, D that of `K.int_layer_terms()`.
    """
    uea = K.uea
    top = len(outs) - 1
    den, items = K.int_layer_terms()
    for k1, a1, n1, _ in items:
        if n1 > top:
            break
        start = bisect_left(items, lo - n1, key=lambda t: t[2])
        for k2, a2, n2, _ in itertools.islice(items, start, None):
            if n1 + n2 > top:
                break
            _adte_pair(uea, k1, k2, a1 * a2, outs[n1 + n2])
    return den * den


def _adte_pair(uea, k1, k2, a, out):
    """Add the residual terms of the pair (k1, k2) of K, times a, to out."""
    f1, f2, leg = k1
    g1, g2, legg = k2
    # K^{12,3,4} K^{1,2,34}
    for p1, m1 in coproduct_mono(f1, 2).items():
        for p2, m2 in coproduct_mono(legg, 2).items():
            slots = (p1[0] + g1, p1[1] + g2, f2 + p2[0], leg + p2[1])
            _straight_key(uea, slots, out, a * (m1 * m2))
    # - K^{1,23,4} K^{2,3,4}
    for p1, m1 in coproduct_mono(f2, 2).items():
        slots = (f1, p1[0] + g1, p1[1] + g2, leg + legg)
        _straight_key(uea, slots, out, -(a * m1))
