"""Sparse elements of wedge^* g (x) S h over the truncated hbar ring.

Monomial keys are pairs (wedge, sym): `wedge` a strictly increasing tuple
of g-basis indices, `sym` a weakly increasing tuple of h-basis indices.
Zero coefficients are pruned eagerly.
"""

from __future__ import annotations

import itertools
import weakref

from .errors import GradingMismatch, SpaceMismatch
from .hseries import SparseSeries, add_into
from .lie_core import LieData, invariant_basis


def wedge_sort(indices):
    """Canonicalize a wedge word: (sign, sorted tuple) or None if repeated."""
    idx = list(indices)
    sign = 1
    # insertion sort; counts transpositions exactly
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None
    return sign, tuple(idx)


def sym_sort(indices):
    return tuple(sorted(indices))


class CdybElement(SparseSeries):
    """Sparse element of wedge^* g (x) S h over the hbar series."""

    __slots__ = ()

    def __init__(self, terms, order: int):
        # defined on the class itself so that profilers can count
        # CdybElement constructions apart from the other element types
        super().__init__(terms, order)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "CdybElement":
        return cls({}, order)

    @classmethod
    def monomial(cls, wedge, sym, coeff, order: int) -> "CdybElement":
        ws = wedge_sort(wedge)
        if ws is None:
            return cls.zero(order)
        sign, wedge = ws
        key = (wedge, sym_sort(sym))
        return cls({key: sign * coeff}, order)

    # -- gradings ----------------------------------------------------------

    def exterior_degrees(self):
        return sorted({len(w) for (w, _) in self.keys()})

    def sh_degrees(self):
        return sorted({len(s) for (_, s) in self.keys()})

    def exterior_degree(self) -> int:
        degs = self.exterior_degrees()
        if len(degs) > 1:
            raise GradingMismatch(f"mixed exterior degrees {degs}")
        return degs[0] if degs else 0

    def component(self, *, exterior=None, sh=None) -> "CdybElement":
        def image(key):
            w, s = key
            if (exterior is not None and len(w) != exterior
                    or sh is not None and len(s) != sh):
                return ()
            return ((key, 0, 1),)

        return self.map_keys(image, CdybElement)

    # -- h-action ----------------------------------------------------------

    def ad(self, lie: LieData, x: int) -> "CdybElement":
        return self.map_keys(
            lambda k: ((o, 0, c) for o, c in ad_cdyb_key(lie, x, k).items()),
            CdybElement,
        )

    def is_invariant(self, lie: LieData) -> bool:
        return all(self.ad(lie, x).is_zero() for x in lie.h_indices)

    # -- display -----------------------------------------------------------

    def __repr__(self):
        if self.is_zero():
            return "CdybElement(0)"
        bits = []
        for w, s in sorted(self.keys()):
            # indices, not names: an empty wedge or leg is "()", since
            # "1" would read as basis index 1
            mono = "^".join(str(i) for i in w) or "()"
            leg = "*".join(str(i) for i in s) or "()"
            bits.append(f"({self.series_repr((w, s))})*[{mono}|{leg}]")
        return "CdybElement(" + " + ".join(bits) + ")"

    def pretty(self, lie: LieData) -> str:
        bits = []
        for w, s in sorted(self.keys()):
            mono = "^".join(lie.name_of(i) for i in w) or "1"
            leg = "*".join(lie.name_of(i) for i in s) or "1"
            bits.append(f"({self.series_repr((w, s))}) {mono} | {leg}")
        return " + ".join(bits) if bits else "0"


def ad_cdyb_key(lie: LieData, x: int, key) -> dict:
    """Action of basis element x on a (wedge, sym) monomial, by derivations.

    Returns {key: rational}.  The S h leg is only acted on when x is in h
    (the leg lives in S h, so the action must stay there).
    """
    wedge, sym = key
    out = {}
    for pos, y in enumerate(wedge):
        for z, c in lie.bracket_basis(x, y).items():
            new = wedge[:pos] + (z,) + wedge[pos + 1 :]
            ws = wedge_sort(new)
            if ws is None:
                continue
            sign, w = ws
            add_into(out, (w, sym), sign * c)
    if sym:
        if not lie.is_h(x) and any(
            lie.bracket_basis(x, y) for y in set(sym)
        ):
            raise SpaceMismatch(
                "action of a non-h element does not preserve the S h leg"
            )
        for pos, y in enumerate(sym):
            for z, c in lie.bracket_basis(x, y).items():
                new = sym_sort(sym[:pos] + (z,) + sym[pos + 1 :])
                add_into(out, (wedge, new), c)
    return out


def cdyb_monomials(lie: LieData, exterior: int, sh: int):
    """All (wedge, sym) keys of the given bidegree, lexicographically."""
    wedges = itertools.combinations(range(lie.dim), exterior)
    syms = list(
        itertools.combinations_with_replacement(lie.h_indices, sh)
    )
    return [(w, s) for w in wedges for s in syms]


# per algebra: {(exterior, sh): invariant basis}
_basis_caches: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def invariant_cdyb_basis(lie: LieData, exterior: int, sh: int):
    """Basis of the invariant (wedge, sym) keys of the given bidegree.

    Built once per algebra and bidegree; callers share the list and its
    rows, and must not mutate them.
    """
    cache = _basis_caches.setdefault(lie, {})
    basis = cache.get((exterior, sh))
    if basis is None:
        keys = cdyb_monomials(lie, exterior, sh)
        cache[(exterior, sh)] = basis = invariant_basis(
            lie, keys, lambda x, k: ad_cdyb_key(lie, x, k)
        )
    return basis
