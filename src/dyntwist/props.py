"""Seeded invariant suites shared by the command line and the test bed.

Each check returns (ok, detail).  Sampling is deterministic in the seed;
all comparisons are exact.
"""

from __future__ import annotations

import random

from . import cdyb_dgla
from .adt_dgla import (
    AdtElement,
    adt_monomials,
    adte_residual,
    brace,
    cup,
    differential_b,
    invariant_adt_basis,
    kappa_solve,
    mc_residual,
)
from .errors import NoSolution
from .lie_core import LieData, invariant_basis
from .linfinity import quantum_contraction
from .tensor_spaces import (
    CdybElement,
    ad_cdyb_key,
    cdyb_monomials,
    invariant_cdyb_basis,
)
from .uea import UEnvelope


def _sign(n):
    return -1 if n % 2 else 1


def _cdyb_from(vec, order=0):
    return CdybElement(dict(vec), order)


def check_d_squared(lie: LieData, max_k=3, max_sh=2):
    """d squared vanishes on every invariant basis element."""
    for k in range(max_k + 1):
        for sh in range(max_sh + 1):
            for vec in invariant_cdyb_basis(lie, k, sh):
                elt = _cdyb_from(vec)
                if not cdyb_dgla.differential(
                    cdyb_dgla.differential(elt)
                ).is_zero():
                    return False, f"d^2 != 0 at exterior {k}, leg {sh}"
    return True, "d^2 = 0 on all invariant basis elements"


def check_d_leibniz(lie: LieData, max_k=3, max_l=2, max_sh=2):
    """d[a,b] = [da,b] + (-1)^(deg a) [a,db] on all invariant basis pairs."""
    count = 0
    for k in range(1, max_k + 1):
        for l in range(1, max_l + 1):
            for sh_a in range(max_sh + 1):
                for sh_b in range(max_sh + 1):
                    for va in invariant_cdyb_basis(lie, k, sh_a):
                        a = _cdyb_from(va)
                        for vb in invariant_cdyb_basis(lie, l, sh_b):
                            b = _cdyb_from(vb)
                            lhs = cdyb_dgla.differential(
                                cdyb_dgla.bracket(lie, a, b)
                            )
                            rhs = cdyb_dgla.bracket(
                                lie, cdyb_dgla.differential(a), b
                            ) + cdyb_dgla.bracket(
                                lie, a, cdyb_dgla.differential(b)
                            ).scale(_sign(k - 1))
                            if lhs != rhs:
                                return False, (
                                    f"Leibniz fails at ({k},{sh_a}) x "
                                    f"({l},{sh_b})"
                                )
                            count += 1
    return True, f"Leibniz holds on {count} invariant pairs"


def check_b_squared(uea: UEnvelope, max_arity=2, max_len=2):
    """b squared vanishes on all basis elements of bounded size."""
    for arity in range(max_arity + 1):
        for L in range(max_len + 1):
            for key in adt_monomials(uea, arity, L):
                elt = AdtElement(uea, arity, {key: 1}, 0)
                if not differential_b(differential_b(elt)).is_zero():
                    return False, f"b^2 != 0 on {key}"
    return True, "b^2 = 0 on all bounded basis elements"


def _rand_adt(uea, rng, arity, max_len, order=0, terms=2, pools=None):
    """A random element on the keys of total length at most max_len.

    pools, a dict that a check keeps for one run, holds each key pool
    once; without it the pool is built for this draw alone.  The pool
    keys come from `adt_monomials`, valid as they are, and the values
    ints: without a value that two draws cancelled, the draws are the
    element's layer 0 as they stand (`from_layers(..., integral=True)`).
    """
    pools = {} if pools is None else pools
    pool = pools.get((arity, max_len))
    if pool is None:
        pools[arity, max_len] = pool = [
            key for L in range(max_len + 1)
            for key in adt_monomials(uea, arity, L)
        ]
    out: dict = {}
    for _ in range(terms):
        key = pool[rng.randrange(len(pool))]
        out[key] = out.get(key, 0) + rng.choice([-2, -1, 1, 2])
    out = {key: v for key, v in out.items() if v}
    return AdtElement.from_layers(uea, arity,
                                  [out] + [{} for _ in range(order)],
                                  den=1, integral=True)


def check_cup_leibniz(uea: UEnvelope, seed=0, samples=200, max_len=2):
    """b(P cup Q) = bP cup Q + (-1)^arity(P) P cup bQ on seeded pairs."""
    rng = random.Random(seed)
    pools: dict = {}
    for _ in range(samples):
        ka = rng.randrange(0, 3)
        kb = rng.randrange(0, 3)
        P = _rand_adt(uea, rng, ka, max_len, pools=pools)
        Q = _rand_adt(uea, rng, kb, max_len, pools=pools)
        lhs = differential_b(cup(P, Q))
        rhs = cup(differential_b(P), Q) + cup(
            P, differential_b(Q)
        ).scale(_sign(ka))
        if lhs != rhs:
            return False, f"cup Leibniz fails on arities ({ka},{kb})"
    return True, f"cup Leibniz holds on {samples} seeded pairs"


def check_brace_relations(uea: UEnvelope, seed=0, samples=100, max_len=2):
    """Brace against the product element reproduces cup and b.

    With m the two-slot unit: {m|P,Q} = (-1)^((arity Q - 1) arity P) P cup Q
    and bP = (-1)^(arity P - 1) ([m,P] Gerstenhaber, unchecked invariance).
    """
    rng = random.Random(seed)
    m = AdtElement.unit(uea, 2, 0)
    pools: dict = {}
    for _ in range(samples):
        ka = rng.randrange(1, 3)
        kb = rng.randrange(1, 3)
        P = _rand_adt(uea, rng, ka, max_len, pools=pools)
        Q = _rand_adt(uea, rng, kb, max_len, pools=pools)
        lhs = brace(m, [P, Q])
        rhs = cup(P, Q).scale(_sign((kb - 1) * ka))
        if lhs != rhs:
            return False, f"brace/cup identity fails on ({ka},{kb})"
        bP = brace(m, [P]) - brace(P, [m]).scale(_sign(ka - 1))
        if differential_b(P) != bP.scale(_sign(ka - 1)):
            return False, f"b vs bracket-with-product fails on arity {ka}"
    return True, f"brace identities hold on {samples} seeded pairs"


def check_delta_homotopy(lie: LieData, max_k=3, max_sh=2):
    """delta d + d delta = id - p1 and delta^2 = 0 on basis monomials."""
    for k in range(max_k + 1):
        for sh in range(max_sh + 1):
            for key in cdyb_monomials(lie, k, sh):
                x = CdybElement({key: 1}, 0)
                lhs = cdyb_dgla.delta_homotopy(
                    lie, cdyb_dgla.differential(x)
                ) + cdyb_dgla.differential(cdyb_dgla.delta_homotopy(lie, x))
                rhs = x - cdyb_dgla.p1_project(lie, x)
                if lhs != rhs:
                    return False, f"homotopy identity fails on {key}"
                dd = cdyb_dgla.delta_homotopy(
                    lie, cdyb_dgla.delta_homotopy(lie, x)
                )
                if not dd.is_zero():
                    return False, f"delta^2 != 0 on {key}"
    return True, "contracting homotopy identities hold on all monomials"


def check_kappa(uea: UEnvelope, seed=0, samples=20, max_len=3):
    """kappa_solve outputs solve their equation; contraction identity holds."""
    rng = random.Random(seed)
    C = quantum_contraction(uea, 0)
    solved = 0
    for _ in range(samples):
        arity = rng.randrange(1, 3)
        # an invariant random element: its coboundary is a solvable target
        u = AdtElement.zero(uea, arity, 0)
        for _ in range(2):
            L = rng.randrange(1, max_len + 1)
            basis = invariant_adt_basis(uea, arity, L)
            if basis:
                vec = basis[rng.randrange(len(basis))]
                u = u + AdtElement(uea, arity, dict(vec), 0).scale(
                    rng.choice([-2, -1, 1, 2])
                )
        target = differential_b(u)
        if target.is_zero():
            continue
        try:
            sol = kappa_solve(uea, target)
        except NoSolution:
            return False, "coboundary target reported unsolvable"
        if differential_b(sol) != target:
            return False, "kappa_solve output fails its equation"
        if not C.check_identity(u):
            return False, "contraction identity fails on a sample"
        solved += 1
    return True, f"kappa recomputation passed on {solved} samples"


def check_adte_modes(uea: UEnvelope, seed=0, samples=100, order=2,
                     max_len=2):
    """The direct and Maurer-Cartan residuals agree on seeded 1 + O(hbar) K."""
    rng = random.Random(seed)
    pools: dict = {}
    for _ in range(samples):
        K = AdtElement.unit(uea, 2, order)
        for n in range(1, order + 1):
            K = K + _rand_adt(uea, rng, 2, max_len, order,
                              pools=pools).shift(n)
        if adte_residual(K) != mc_residual(K):
            return False, "residual modes disagree"
    return True, f"residual modes agree on {samples} seeded twists"


def check_cohomology(lie: LieData, uea: UEnvelope, max_k=3, shdeg=4,
                     max_length=4):
    """Both complexes compute the invariant-complement exterior algebra."""
    from itertools import combinations

    dims_c = cdyb_dgla.cohomology_dims(lie, max_k, shdeg)
    from .adt_dgla import cohomology_dims as adt_dims

    dims_q = adt_dims(uea, max_k, max_length)
    # the invariant part of the exterior algebra on m, in either mode
    expected = [
        len(invariant_basis(
            lie, [(w, ()) for w in combinations(lie.m_indices, k)],
            lambda x, key: ad_cdyb_key(lie, x, key),
        ))
        for k in range(max_k + 1)
    ]
    if dims_c != expected or dims_q != expected:
        return False, (
            f"cohomology dims {dims_c} / {dims_q} vs expected {expected}"
        )
    return True, f"cohomology dims {expected} match on both complexes"


def standard_suite(lie: LieData, seed=0, shdeg=4):
    """The full battery; returns a list of (name, ok, detail)."""
    uea = UEnvelope(lie)
    results = []
    for name, fn in (
        ("d_squared", lambda: check_d_squared(lie)),
        ("d_leibniz", lambda: check_d_leibniz(lie)),
        ("b_squared", lambda: check_b_squared(uea)),
        ("cup_leibniz", lambda: check_cup_leibniz(uea, seed=seed)),
        ("brace_relations", lambda: check_brace_relations(uea, seed=seed)),
        ("delta_homotopy", lambda: check_delta_homotopy(lie)),
        ("kappa", lambda: check_kappa(uea, seed=seed)),
        ("adte_modes", lambda: check_adte_modes(uea, seed=seed)),
        ("cohomology", lambda: check_cohomology(lie, uea, shdeg=shdeg)),
    ):
        ok, detail = fn()
        results.append((name, ok, detail))
    return results
