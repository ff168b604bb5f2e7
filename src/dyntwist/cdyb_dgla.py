"""The classical dynamical graded Lie algebra on wedge^* g (x) S h.

The differential moves one factor of the symmetric leg into the wedge
part (with a global minus sign); the bracket extends the Lie bracket as a
biderivation of the wedge product, with the symmetric legs acting as
scalars.  The degree of an element is its exterior degree.
"""

from __future__ import annotations

import weakref
from fractions import Fraction

from . import linalg
from .errors import TruncationTooSmall
from .hseries import add_into, quotient
from .lie_core import LieData
from .tensor_spaces import (
    CdybElement,
    ad_cdyb_key,
    invariant_cdyb_basis,
    sym_sort,
    wedge_sort,
)


_bracket_caches: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def differential(elt: CdybElement) -> CdybElement:
    """d(w (x) h_1...h_l) = - sum_i h_i ^ w (x) h_1...(h_i dropped)...h_l."""
    def image(key):
        w, s = key
        for pos in range(len(s)):
            ws = wedge_sort((s[pos],) + w)
            if ws is not None:
                sign, new_w = ws
                yield (new_w, s[:pos] + s[pos + 1 :]), 0, -sign

    return elt.map_keys(image, CdybElement)


def _wedge_cache(lie: LieData) -> dict:
    cache = _bracket_caches.get(lie)
    if cache is None:
        cache = {}
        _bracket_caches[lie] = cache
    return cache


def bracket_wedge(lie: LieData, w1, w2) -> dict:
    """Bracket of two wedge monomials: {wedge tuple: rational}.

    Degree-zero monomials are central; a single generator acts as a
    derivation of the wedge product (`ad_cdyb_key` on an empty leg);
    higher degrees reduce by graded antisymmetry, peeling the leading
    factor of the first argument.
    """
    cache = _wedge_cache(lie)
    key = (w1, w2)
    cached = cache.get(key)
    if cached is not None:
        return cached
    out = _bracket_wedge_uncached(lie, w1, w2)
    cache[key] = out
    return out


def _bracket_wedge_uncached(lie: LieData, w1, w2) -> dict:
    p, q = len(w1), len(w2)
    out: dict = {}
    if p == 0 or q == 0:
        return out
    if p == 1:
        ad = ad_cdyb_key(lie, w1[0], (w2, ()))
        return {w: c for (w, _), c in ad.items()}
    # [P, Q] = -(-1)^{(p-1)(q-1)} [Q, P], then peel P = x ^ P'
    flip = -(_sign((p - 1) * (q - 1)))
    x = w1[0]
    rest = w1[1:]
    # [Q, x] ^ P'   with [Q, x] = -[x, Q]
    for w, c in bracket_wedge(lie, (x,), w2).items():
        ws = wedge_sort(w + rest)
        if ws is None:
            continue
        sign, ww = ws
        add_into(out, ww, flip * (-c) * sign)
    # (-1)^{q-1} x ^ [Q, P']
    inner = bracket_wedge(lie, w2, rest)
    for w, c in inner.items():
        ws = wedge_sort((x,) + w)
        if ws is None:
            continue
        sign, ww = ws
        add_into(out, ww, flip * _sign(q - 1) * c * sign)
    return out


def _sign(n: int) -> int:
    return -1 if n % 2 else 1


def bracket(lie: LieData, a: CdybElement, b: CdybElement) -> CdybElement:
    """Graded bracket; symmetric legs multiply as scalars."""
    order = min(a.order, b.order)
    outs = [{} for _ in range(order + 1)]
    terms_b = b.layer_terms()
    for (w1, s1), a1, n1, _ in a.layer_terms():
        for (w2, s2), a2, n2, _ in terms_b:
            if n1 + n2 > order:
                break
            c = a1 * a2
            leg = sym_sort(s1 + s2)
            for w, coeff in bracket_wedge(lie, w1, w2).items():
                add_into(outs[n1 + n2], (w, leg), c * coeff)
    return CdybElement.from_layers(outs)


def cdybe_residual(lie: LieData, rho: CdybElement) -> CdybElement:
    """Residual of the classical dynamical Yang-Baxter equation.

    d(rho) + (1/2)[rho, rho] in wedge^3 g (x) S h.
    """
    return differential(rho) + bracket(lie, rho, rho).scale(Fraction(1, 2))


def p1_project(lie: LieData, elt: CdybElement) -> CdybElement:
    """Projection onto wedge^* m (x) S^0: empty leg, wedge inside m only."""
    def image(key):
        w, s = key
        if s or any(lie.is_h(i) for i in w):
            return ()
        return ((key, 0, 1),)

    return elt.map_keys(image, CdybElement)


def delta_homotopy(lie: LieData, elt: CdybElement) -> CdybElement:
    """Contracting homotopy for the differential.

    Sort each wedge monomial into its m-part followed by its h-part (p and
    q factors, sign from the shuffle), with an S-leg of length l.  Terms
    with q + l = 0 map to zero; otherwise each h-factor of the wedge is
    moved back to the symmetric leg with weight 1/(q + l) and alternating
    signs, and a global factor -(-1)^p.
    """
    def image(key):
        w, s = key
        m_part = tuple(i for i in w if not lie.is_h(i))
        h_part = tuple(i for i in w if lie.is_h(i))
        sign = _shuffle_sign(lie, w)
        p, q, l = len(m_part), len(h_part), len(s)
        if q + l == 0:
            return
        outer = -_sign(p) * quotient(1, q + l)
        for i in range(q):
            ws = wedge_sort(m_part + h_part[:i] + h_part[i + 1 :])
            if ws is None:
                continue
            s2, new_w = ws
            yield ((new_w, sym_sort(s + (h_part[i],))), 0,
                   sign * s2 * _sign(i) * outer)

    return elt.map_keys(image, CdybElement)


def _shuffle_sign(lie: LieData, wedge) -> int:
    """Sign of sorting a wedge monomial into (m factors, h factors)."""
    flags = [lie.is_h(i) for i in wedge]
    sign = 1
    for i in range(len(flags)):
        for j in range(i + 1, len(flags)):
            if flags[i] and not flags[j]:
                sign = -sign
    return sign


# -- cohomology ------------------------------------------------------------


def cohomology_dims(lie: LieData, max_k: int, shdeg: int):
    """dim H^k for k = 0..max_k, each summed over total weights.

    The weight of a (wedge, leg) monomial is its exterior plus its leg
    degree, which d keeps.  Weights k..k+shdeg-1 are computed exactly;
    the two highest must contribute zero, otherwise the truncation is
    too small to claim stabilization.
    """
    if shdeg < 3:
        raise TruncationTooSmall("need shdeg >= 3 to check stabilization")

    def columns(k, weight):
        return [
            differential(CdybElement(dict(vec), 0)).layer(0)
            for vec in invariant_cdyb_basis(lie, k, weight - k)
        ]

    return linalg.cohomology_dims(
        columns, max_k, lambda k: range(k, k + shdeg)
    )
