"""PBW arithmetic in the universal enveloping algebra.

Monomials are weakly increasing tuples of basis indices (declaration
order).  Straightening replaces x_j x_i (j > i) by x_i x_j + [x_j, x_i]
recursively; every result is cached per algebra, and so is the adjoint
action `ad_mono(x, mono)` of a basis element on a monomial.  Cached dicts
are shared by every caller, which must not mutate them.

Values follow the package's one number convention (see `hseries`): an
integral value is an int, any other rational a Fraction.  The structure
constants are stored that way, and so is every cached straightening and
symmetrization, so the integer kernels of `adt_dgla` multiply through
the same caches as every rational caller.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from operator import add

from . import linalg
from .errors import NoSolution, NotInImage
from .hseries import add_into, canonical, quotient
from .lie_core import LieData


class UEnvelope:
    """Straightening context for U(g) of a fixed Lie algebra."""

    def __init__(self, lie: LieData):
        self.lie = lie
        # every structure constant an int: then so is every coefficient
        # of a straightening, and a kernel's integer sums stay ints
        self.integral = all(
            type(c) is int
            for i in range(lie.dim) for j in range(i + 1, lie.dim)
            for c in lie.bracket_basis(i, j).values()
        )
        self._straight_cache: dict = {(): {(): 1}}
        self._sym_cache: dict = {}
        self._ad_cache: dict = {}
        self._star_cache: dict = {}  # filled by quantizer._star_mono
        # the X, Y and S factors of the twist residual, filled by
        # adt_dgla._adte_pairs
        self._adte_factors: tuple = ({}, {}, {})

    # -- straightening -----------------------------------------------------

    def straighten(self, word) -> dict:
        """A word in the PBW basis: {monomial: rational}, canonical."""
        try:  # a hit on a tuple is one dict lookup
            return self._straight_cache[word]
        except (KeyError, TypeError):  # a miss, or an unhashable list
            word = tuple(word)
        out = self._straight_cache.get(word)
        if out is None:
            self._straight_cache[word] = out = {
                m: canonical(c)
                for m, c in self._straighten_uncached(word).items()
            }
        return out

    def _straighten_uncached(self, word) -> dict:
        for pos in range(len(word) - 1):
            a, b = word[pos], word[pos + 1]
            if a > b:
                swapped = word[:pos] + (b, a) + word[pos + 2 :]
                out = dict(self.straighten(swapped))
                for k, c in self.lie.bracket_basis(a, b).items():
                    lower = word[:pos] + (k,) + word[pos + 2 :]
                    for mono, d in self.straighten(lower).items():
                        add_into(out, mono, c * d)
                return out
        return {word: 1}

    def mul_mono(self, m1, m2) -> dict:
        return self.straighten(m1 + m2)

    def ad_mono(self, x: int, mono) -> dict:
        """[x, mono] in PBW coordinates (a derivation of degree 0).

        Cached per (x, mono) like `straighten`: the dict is shared between
        calls, so callers must not mutate it.
        """
        memo_key = (x, mono)
        out = self._ad_cache.get(memo_key)
        if out is not None:
            return out
        out = {}
        for pos in range(len(mono)):
            for k, c in self.lie.bracket_basis(x, mono[pos]).items():
                for m, d in self.straighten(
                    mono[:pos] + (k,) + mono[pos + 1 :]
                ).items():
                    add_into(out, m, c * d)
        self._ad_cache[memo_key] = out
        return out

    # -- symmetrization ----------------------------------------------------

    def sym_mono(self, mono) -> dict:
        """sym(x_1 ... x_k) = (1/k!) sum over orderings, straightened."""
        mono = tuple(sorted(mono))
        cached = self._sym_cache.get(mono)
        if cached is not None:
            return cached
        out = {}
        # each distinct word of the multiset arises from |stab| position
        # permutations, where |stab| is the product of letter multiplicities
        stab = 1
        for v in Counter(mono).values():
            stab *= math.factorial(v)
        norm = quotient(stab, math.factorial(len(mono)))
        for p in set(itertools.permutations(mono)):
            for m, c in self.straighten(p).items():
                add_into(out, m, c * norm)
        self._sym_cache[mono] = out = {m: canonical(c)
                                       for m, c in out.items()}
        return out

    def sym_preimage(self, coeffs: dict, allowed=None) -> dict:
        """Preimage under sym of {PBW monomial: coefficient}.

        sym is unitriangular for the length filtration, so back-substitute
        from the top length down.  With `allowed` set, every monomial met
        along the way must use only those indices, else NotInImage.
        """
        work = dict(coeffs)
        out = {}
        while work:
            top = max(len(m) for m in work)
            layer = {m: c for m, c in work.items() if len(m) == top}
            for m, c in layer.items():
                if allowed is not None and any(i not in allowed for i in m):
                    raise NotInImage(
                        f"monomial {m} uses indices outside the allowed set"
                    )
                add_into(out, m, c)
                for mm, d in self.sym_mono(m).items():
                    add_into(work, mm, -(c * d))
        return out


# -- coproduct and coaction ------------------------------------------------


_coproduct_memo: dict = {}


def coproduct_mono(mono, slots: int = 2) -> dict:
    """Iterated coproduct of a PBW monomial of primitives.

    Splitting a weakly increasing word keeps every part weakly increasing,
    so no straightening occurs.  Returns {tuple of monomials: multiplicity},
    shared between calls: callers must not mutate it.

    A run of a equal letters puts c_t of them into part t in
    a! / (c_0! ... c_(slots-1)!) of the slots^a ways to place them, so
    the parts are counted run by run, not position by position.  The
    keys come in the order in which placing each letter in turn would
    first reach them: runs from the left, and within a run the counts
    (`compositions`) in decreasing lexicographic order.

    The memo is a plain module dict, not `functools.lru_cache`: a cache
    wrapper carries `__wrapped__`, the attribute by which the benchmark's
    tracer (`perfbench/tracer.py`) marks a function it has wrapped, so
    the untraced function would pass for a traced one.
    """
    memo_key = (tuple(mono), slots)
    out = _coproduct_memo.get(memo_key)
    if out is None:
        partial = [(((),) * slots, 1)]
        for letter, run in itertools.groupby(memo_key[0]):
            a = len(tuple(run))
            splits = [
                (tuple((letter,) * c for c in counts),
                 math.factorial(a) // math.prod(map(math.factorial, counts)))
                for counts in reversed(compositions(a, slots))
            ]
            partial = [(tuple(map(add, parts, new)), mult * m)
                       for parts, mult in partial for new, m in splits]
        out = {}
        for key, mult in partial:
            out[key] = out.get(key, 0) + mult
        _coproduct_memo[memo_key] = out
    return out


def compositions(total: int, parts: int):
    """Every tuple of `parts` naturals summing to total, lexicographic."""
    if parts == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total + 1)
            for rest in compositions(total - first, parts - 1)]


# -- the U g = U g . h  (+)  U m splitting ---------------------------------


class UmSplitter:
    """Solves the filtered splitting of U g into U g . h and sym(S m).

    It works on {PBW monomial: rational} dicts.  The U m part of each
    PBW monomial is solved once and memoized (`um_mono`); the dicts are
    shared by every caller, which must not mutate them.
    """

    def __init__(self, uea: UEnvelope):
        self.uea = uea
        self._cache: dict = {}
        self._um_memo: dict = {}

    def _generators(self, max_len: int):
        """(kind, expansion) of every spanning element up to max_len."""
        cached = self._cache.get(max_len)
        if cached is not None:
            return cached
        lie = self.uea.lie
        generators = []
        for w in all_monomials(lie.dim, max_len - 1):
            for h in lie.h_indices:
                exp = self.uea.straighten(w + (h,))
                if exp:
                    generators.append(("ideal", exp))
        for s in all_monomials_from(lie.m_indices, max_len):
            generators.append(("um", self.uea.sym_mono(s)))
        self._cache[max_len] = generators
        return generators

    def split(self, coeffs: dict):
        """(ideal, um) with coeffs = ideal + um, all {monomial: rational}.

        ideal lies in U g . h and um in sym(S m); one elimination over
        the spanning elements up to the longest monomial of coeffs.
        """
        if not coeffs:
            return {}, {}
        if not self.uea.lie.h_indices:
            return {}, dict(coeffs)
        generators = self._generators(max(len(m) for m in coeffs))
        [sol] = linalg.solve([exp for _, exp in generators], [coeffs])
        if sol is None:
            raise NoSolution("splitting system inconsistent",
                             residual=coeffs)
        ideal: dict = {}
        um: dict = {}
        for j, coeff in sol.items():
            kind, exp = generators[j]
            target = ideal if kind == "ideal" else um
            for m, c in exp.items():
                add_into(target, m, coeff * c)
        return ideal, um

    def um_mono(self, mono) -> dict:
        """The U m part of one PBW monomial as {monomial: rational}."""
        out = self._um_memo.get(mono)
        if out is None:
            self._um_memo[mono] = out = self.split({mono: 1})[1]
        return out


def all_monomials(dim: int, max_len: int):
    """All weakly increasing index tuples of length <= max_len."""
    return all_monomials_from(tuple(range(dim)), max_len)


@lru_cache(maxsize=None)
def all_monomials_from(indices, max_len: int):
    indices = tuple(indices)
    out = [()]
    for length in range(1, max_len + 1):
        out.extend(itertools.combinations_with_replacement(indices, length))
    return tuple(out)
