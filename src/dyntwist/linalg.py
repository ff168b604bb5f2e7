"""Sparse exact linear algebra over the rationals.

Every value in and out follows the package's one number convention (see
`hseries`): an integral value is an int, any other rational a Fraction,
never a float.  Integer columns (the b-columns of `adt_dgla`) go in as
ints, which need no scaling, and every reduced row, solution and kernel
vector comes out canonical.

Callers hand in a matrix as a list of sparse columns, one per unknown in
unknown order.  A column is a dict {row key: rational} whose row keys
are any hashables (monomials, basis indices, ...); a key missing from a
column is a zero entry.  Only the order of the columns matters: the
reduced row echelon form, the pivots, the particular solutions and the
kernel basis are functions of it alone, so callers never number rows.

`solve(columns, targets)` eliminates the system once for all of its
right-hand sides.  A target is a dict keyed like the columns; its answer
is the particular solution {unknown index: rational} with every free
unknown zero, or None when the target is not in the column span (a
target key that no column carries makes it inconsistent).

`Factorization(columns)` serves a system that meets its targets one at
a time: it eliminates the columns once and answers every later target
by substitution, as `solve` would.  It is still the one elimination:
each row carries a tag column of its own through `_eliminate`, so the
reduced rows record the row operations that reached each pivot.

Internally `_eliminate` reduces rows {column index: value}, pivot
columns left to right.  A column's pivot row is the remaining row with a
nonzero entry there and the fewest stored entries, the first in input
order among equals (Markowitz's rule on rows: a short pivot row fills in
little).  The rule cannot change `solve`, `pivots`, `rank`,
`kernel_basis` or `Factorization`: over the unknowns the reduced row
echelon form is unique, and a consistent target's carried entries are
its unique solution.  Only `rref`'s key order and the carried entries of
an inconsistent system follow it.  It computes on integers: each input
row is scaled by the lcm of its denominators (1 for a row of ints), a
row update clears an entry by an integer combination with the pivot row
and divides the row by the gcd of its entries.  `pivots` and `rank` read
its pivots alone; `rref` divides each reduced row by its pivot entry,
exactly.  It keeps an index from each column still to come to the rows
with a nonzero entry in it, updated as fill-in appears and cancels, so
the work follows the nonzeros instead of rows x columns.
Neither the integer rows nor the index change what is computed: the
reduced rows (down to their key order), pivots, solutions and kernel
vectors are those of the rational elimination with the same rule, and
`solve` still checks every solution by recomputing its image.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd, lcm

from .errors import TruncationTooSmall
from .hseries import add_into, quotient


def rref(rows, ncols):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_cols).  Pivots are chosen left to right
    among the first `ncols` columns; entries at later column indices are
    carried along by every row operation.  The pivot row of a column is
    the shortest remaining row with a nonzero entry there (explicit
    zeros and carried entries count), the first in input order among
    equals, so the result is a function of the input alone (the module
    docstring says what the rule can change).  Each reduced row is
    `_eliminate`'s integer row divided by its pivot entry, in canonical
    form.
    """
    reduced, pivot_cols = _eliminate(rows, ncols)
    return [
        {c: quotient(v, r[p]) for c, v in r.items()}
        for r, p in zip(reduced, pivot_cols)
    ], pivot_cols


def _eliminate(rows, ncols):
    """(integer reduced rows, pivot columns) of `rref`, pivot entries > 0.

    The rows are eliminated fraction-free: each input row is scaled to
    integers, a row update is `other <- (a/g) other - (f/g) pivot_row`
    (a the pivot, f the entry to clear, g = gcd(a, f)) followed by
    division by the gcd of the row's entries.  Every row is a nonzero
    multiple of the row the rational elimination would hold, so the zero
    tests, the key order, the row lengths and the pivots are the same.

    `where` maps each column still to come to the rows (remaining or
    reduced) with a nonzero entry in it, so neither the pivot search nor
    the elimination visits a row that does not meet the column.  Explicit
    zero entries of the input stay in their rows, where they fix the key
    order, but are never indexed: they are neither pivots nor divisors.
    """
    rows = [_integer_row(r) for r in rows if r]
    where = defaultdict(set)
    for i, r in enumerate(rows):
        for c, v in r.items():
            if v and c < ncols:
                where[c].add(i)
    done = [False] * len(rows)
    reduced = []
    pivots = []
    for col in range(ncols):
        hits = where.pop(col, ())
        p = min((i for i in hits if not done[i]),
                key=lambda i: (len(rows[i]), i), default=None)
        if p is None:
            continue
        r = rows[p]
        a = r[col]
        sign = -1 if a < 0 else 1
        r = {c: sign * v for c, v in r.items() if v}
        a *= sign
        for i in hits:
            if i == p:
                continue
            other = rows[i]
            f = other[col]
            g = gcd(a, f)
            s, t = a // g, f // g
            if s != 1:
                for c in other:
                    other[c] *= s
            for c, v in r.items():
                old = other.get(c)
                if old:
                    nv = old - t * v
                    if nv:
                        other[c] = nv
                    else:
                        del other[c]
                        if col < c < ncols:
                            where[c].discard(i)
                else:
                    # fill-in, or an explicit zero overwritten in place
                    other[c] = -t * v
                    if col < c < ncols:
                        where[c].add(i)
            d = gcd(*other.values())
            if d > 1:
                for c in other:
                    other[c] //= d
        rows[p] = r
        done[p] = True
        reduced.append(r)
        pivots.append(col)
    return reduced, pivots


def _integer_row(row):
    """The row times the lcm of its denominators, over its content."""
    den = 1
    for v in row.values():
        if v.denominator != 1:
            den = lcm(den, v.denominator)
    if den == 1:
        out = {c: v.numerator for c, v in row.items()}
    else:
        out = {c: v.numerator * (den // v.denominator)
               for c, v in row.items()}
    d = gcd(*out.values())
    if d > 1:
        for c in out:
            out[c] //= d
    return out


def _rows(columns):
    """The rows {column index: rational} of a list of keyed columns."""
    rows: dict = {}
    for j, col in enumerate(columns):
        for key, v in col.items():
            rows.setdefault(key, {})[j] = v
    return list(rows.values())


def pivots(columns):
    """Indices of the columns independent of every earlier column."""
    return _eliminate(_rows(columns), len(columns))[1]


def rank(columns) -> int:
    return len(pivots(columns))


def kernel_basis(columns):
    """Basis of the kernel, as dicts {unknown index: rational}.

    One basis vector per free unknown, in increasing order, with the free
    coordinate normalized to 1; built in one pass over the nonzeros of
    the reduced rows.
    """
    ncols = len(columns)
    reduced, pivot_cols = rref(_rows(columns), ncols)
    pivot_set = set(pivot_cols)
    basis = {j: {j: 1} for j in range(ncols) if j not in pivot_set}
    for r, p in zip(reduced, pivot_cols):
        for c, v in r.items():
            vec = basis.get(c)
            if vec is not None:
                vec[p] = -v
    return list(basis.values())


def solve(columns, targets):
    """One particular solution per target, or None where inconsistent.

    The targets ride along as extra columns of a single elimination; each
    answer is checked by recomputing its image, which is how an
    inconsistent target shows.
    """
    ncols = len(columns)
    reduced, pivot_cols = rref(_rows(list(columns) + list(targets)), ncols)
    sols = [{} for _ in targets]
    for r, p in zip(reduced, pivot_cols):
        for c, b in r.items():
            if c >= ncols:
                sols[c - ncols][p] = b
    return _checked(columns, sols, targets)


def _checked(columns, sols, targets):
    """Each solution whose image is its target, None in place of the rest."""
    out = []
    for sol, target in zip(sols, targets):
        image: dict = {}
        for p, a in sol.items():
            for key, v in columns[p].items():
                add_into(image, key, a * v)
        consistent = image == {k: v for k, v in target.items() if v != 0}
        out.append(sol if consistent else None)
    return out


class Factorization:
    """A column system eliminated once, solved for any later target.

    Building it hands `_eliminate` the system's rows, each tagged
    with one carried column of its own (entry 1 at index ncols + i for
    the i-th row).  Row operations carry the tags along, so the tags of
    a reduced row record the integer combination of input rows that
    reached it, and its pivot entry is the scale of that combination.
    A target riding along would pick up the same combination of its own
    entries: `solve` here sums it over the target's nonzeros and divides
    by the pivot entry.  A consistent target's answer is unique, so it
    is the one `solve` gives, and every answer is checked by recomputing
    its image as there.
    """

    __slots__ = ("columns", "row_of", "uses", "pivots", "scales")

    def __init__(self, columns):
        self.columns = columns = list(columns)
        ncols = len(columns)
        self.row_of = row_of = {}  # row key -> input row index
        rows = []
        for j, col in enumerate(columns):
            for key, v in col.items():
                i = row_of.get(key)
                if i is None:
                    row_of[key] = i = len(rows)
                    rows.append({})
                rows[i][j] = v
        for i, r in enumerate(rows):
            r[ncols + i] = 1
        reduced, self.pivots = _eliminate(rows, ncols)
        self.scales = [r[p] for r, p in zip(reduced, self.pivots)]
        # input row index -> [(reduced row number, tag weight)]
        self.uses = uses = [[] for _ in rows]
        for q, r in enumerate(reduced):
            for c, w in r.items():
                if c >= ncols:
                    uses[c - ncols].append((q, w))

    def solve(self, targets):
        """`solve(columns, targets)`, by substitution."""
        sols = []
        for target in targets:
            acc: dict = {}
            for key, t in target.items():
                i = self.row_of.get(key)
                # a key no column carries fails the image check
                if t and i is not None:
                    for q, w in self.uses[i]:
                        add_into(acc, q, w * t)
            sols.append({self.pivots[q]: quotient(acc[q], self.scales[q])
                         for q in sorted(acc)})
        return _checked(self.columns, sols, targets)


def cohomology_dims(columns, max_k: int, grades):
    """dim H^k for k = 0..max_k of a complex that splits into slices.

    The differential keeps a grade.  columns(k, g) lists the images of a
    basis of the degree-k, grade-g slice as keyed columns, and grades(k)
    the grades summed over in degree k.  Each slice with columns is
    ranked once per call: degree k + 1 reuses the ranks of degree k.
    The two highest grades must contribute zero, else
    TruncationTooSmall: the slices computed are too few to claim
    stabilization.
    """
    dims = []
    below: dict = {}
    for k in range(max_k + 1):
        ranks: dict = {}
        per_g = []
        for g in grades(k):
            cols = columns(k, g)
            ranks[g] = r = rank(cols) if cols else 0
            dim = len(cols) - r
            if cols and k:
                rb = below.get(g)
                if rb is None:
                    cols_b = columns(k - 1, g)
                    rb = rank(cols_b) if cols_b else 0
                dim -= rb
            per_g.append(dim)
        if per_g[-1] != 0 or per_g[-2] != 0:
            raise TruncationTooSmall(
                f"cohomology in degree {k} has not stabilized by grade "
                f"{g}: tail dims {per_g[-2:]}"
            )
        dims.append(sum(per_g))
        below = ranks
    return dims
