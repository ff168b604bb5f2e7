"""Sparse exact linear algebra over Fraction.

Callers hand in a matrix as a list of sparse columns, one per unknown in
unknown order.  A column is a dict {row key: Fraction} whose row keys
are any hashables (monomials, basis indices, ...); a key missing from a
column is a zero entry.  Only the order of the columns matters: the
reduced row echelon form, the pivots, the particular solutions and the
kernel basis are functions of it alone, so callers never number rows.

`solve(columns, targets)` eliminates the system once for all of its
right-hand sides.  A target is a dict keyed like the columns; its answer
is the particular solution {unknown index: Fraction} with every free
unknown zero, or None when the target is not in the column span (a
target key that no column carries makes it inconsistent).

Internally `rref` reduces rows {column index: Fraction} with pivots
chosen left to right, which keeps every derived basis deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .hseries import add_into

_F0 = Fraction(0)
_F1 = Fraction(1)


def rref(rows, ncols):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_cols).  Pivots are chosen left to right
    among the first `ncols` columns; entries at later column indices are
    carried along by every row operation.  Rows of the input are consumed
    in order, so the result is a function of the input alone.
    """
    rows = [dict(r) for r in rows if r]
    reduced = []
    pivots = []
    for col in range(ncols):
        pivot_row = None
        for i, r in enumerate(rows):
            if r.get(col, _F0) != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        r = rows.pop(pivot_row)
        inv = _F1 / r[col]
        r = {c: v * inv for c, v in r.items() if v != 0}
        for other in chain(rows, reduced):
            f = other.get(col)
            if f:
                for c, v in r.items():
                    nv = other.get(c, _F0) - f * v
                    if nv == 0:
                        other.pop(c, None)
                    else:
                        other[c] = nv
        reduced.append(r)
        pivots.append(col)
        rows = [x for x in rows if x]
        if not rows:
            break
    return reduced, pivots


def _rows(columns):
    """The rows {column index: Fraction} of a list of keyed columns."""
    rows: dict = {}
    for j, col in enumerate(columns):
        for key, v in col.items():
            rows.setdefault(key, {})[j] = v
    return list(rows.values())


def pivots(columns):
    """Indices of the columns independent of every earlier column."""
    return rref(_rows(columns), len(columns))[1]


def rank(columns) -> int:
    return len(pivots(columns))


def kernel_basis(columns):
    """Basis of the kernel, as dicts {unknown index: Fraction}.

    One basis vector per free unknown, in increasing order, with the free
    coordinate normalized to 1.
    """
    ncols = len(columns)
    reduced, pivot_cols = rref(_rows(columns), ncols)
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = {free: _F1}
        for r, p in zip(reduced, pivot_cols):
            c = r.get(free, _F0)
            if c != 0:
                vec[p] = -c
        basis.append(vec)
    return basis


def solve(columns, targets):
    """One particular solution per target, or None where inconsistent.

    The targets ride along as extra columns of a single elimination; each
    answer is checked by recomputing its image, which is how an
    inconsistent target shows.
    """
    ncols = len(columns)
    reduced, pivot_cols = rref(_rows(list(columns) + list(targets)), ncols)
    sols = []
    for t, target in enumerate(targets):
        sol = {}
        for r, p in zip(reduced, pivot_cols):
            b = r.get(ncols + t, _F0)
            if b != 0:
                sol[p] = b
        image: dict = {}
        for p, a in sol.items():
            for key, v in columns[p].items():
                add_into(image, key, a * v)
        consistent = image == {k: v for k, v in target.items() if v != 0}
        sols.append(sol if consistent else None)
    return sols
