from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, strategies as st

from dyntwist import UEnvelope, adt_dgla, cdyb_dgla, linalg, schema
from dyntwist.hseries import add_into

from conftest import CORPUS, is_canonical

F = Fraction
_F0 = Fraction(0)
_F1 = Fraction(1)


# -- reference: the plain left-to-right elimination ------------------------
# The scan-every-row rref that the indexed one replaced, with kernel_basis
# and solve written over it as they were.  By default it pivots as
# `linalg` does: on the remaining row with the fewest stored entries
# (explicit zeros and carried entries count), the first in input order
# among equals.  The indexed rref must agree with it exactly, key order
# of every dict included.  With shortest=False it is the first-row rule
# that `linalg` used before; solve, pivots, rank and kernel_basis must
# agree with that one too, since the pivot row does not change them.


def reference_rref(rows, ncols, shortest=True):
    rows = [dict(r) for r in rows if r]
    reduced = []
    pivots = []
    for col in range(ncols):
        hits = [i for i, r in enumerate(rows) if r.get(col, _F0) != 0]
        if not hits:
            continue
        pivot_row = (min(hits, key=lambda i: len(rows[i])) if shortest
                     else hits[0])
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


def first_row_rref(rows, ncols):
    return reference_rref(rows, ncols, shortest=False)


def reference_kernel_basis(columns, rref=reference_rref):
    ncols = len(columns)
    reduced, pivot_cols = rref(linalg._rows(columns), ncols)
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


def reference_solve(columns, targets, rref=reference_rref):
    ncols = len(columns)
    reduced, pivot_cols = rref(
        linalg._rows(list(columns) + list(targets)), ncols
    )
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


def _ordered(dicts):
    """A list of dicts as item lists, so that key order is compared too."""
    return [None if d is None else list(d.items()) for d in dicts]


def _mat(rows):
    return [{j: F(v) for j, v in enumerate(r) if v} for r in rows]


def _cols(rows, ncols):
    """The keyed columns of an integer matrix given by rows."""
    return [{i: F(r[j]) for i, r in enumerate(rows) if r[j]}
            for j in range(ncols)]


def test_rref_simple():
    reduced, pivots = linalg.rref(_mat([[1, 2], [2, 4]]), 2)
    assert pivots == [0]
    assert reduced == [{0: F(1), 1: F(2)}]


def test_rank():
    assert linalg.rank(_cols([[1, 0], [0, 1]], 2)) == 2
    assert linalg.rank(_cols([[1, 1], [2, 2]], 2)) == 1
    assert linalg.rank([{}] * 5) == 0


def test_solve_particular():
    cols = _cols([[1, 1], [0, 1]], 2)
    [sol] = linalg.solve(cols, [{0: F(3), 1: F(1)}])
    assert sol == {0: F(2), 1: F(1)}


def test_solve_inconsistent():
    cols = _cols([[1, 1], [2, 2]], 2)
    assert linalg.solve(cols, [{0: F(1), 1: F(3)}]) == [None]


entries = st.integers(min_value=-5, max_value=5)


@given(
    st.lists(st.lists(entries, min_size=3, max_size=3),
             min_size=1, max_size=5)
)
def test_kernel_vectors_annihilate(rows_int):
    rows = _mat(rows_int)
    for vec in linalg.kernel_basis(_cols(rows_int, 3)):
        for row in rows:
            assert sum(row.get(j, F(0)) * v for j, v in vec.items()) == 0


@given(
    st.lists(st.lists(entries, min_size=4, max_size=4),
             min_size=1, max_size=4),
    st.lists(entries, min_size=4, max_size=4),
)
def test_solve_recomputes(rows_int, x_int):
    """A x is always solvable with some solution reproducing the product."""
    rows = _mat(rows_int)
    x = {j: F(v) for j, v in enumerate(x_int)}
    rhs = {}
    for i, row in enumerate(rows):
        s = sum(c * x.get(j, F(0)) for j, c in row.items())
        if s:
            rhs[i] = s
    [sol] = linalg.solve(_cols(rows_int, 4), [rhs])
    assert sol is not None
    for i, row in enumerate(rows):
        assert sum(c * sol.get(j, F(0)) for j, c in row.items()) == rhs.get(
            i, F(0)
        )


@given(
    st.lists(st.lists(entries, min_size=3, max_size=3),
             min_size=1, max_size=5)
)
def test_rank_nullity(rows_int):
    cols = _cols(rows_int, 3)
    assert linalg.rank(cols) + len(linalg.kernel_basis(cols)) == 3


# row keys are arbitrary hashables; a target may name a key no column has
row_keys = st.sampled_from(["a", "b", ("c", 1), 7])
vectors = st.dictionaries(row_keys, entries.map(F), max_size=4)


@given(st.lists(vectors, max_size=5), st.lists(vectors, max_size=4))
def test_multi_target_solve_equals_single_solves(columns, targets):
    assert linalg.solve(columns, targets) == [
        linalg.solve(columns, [t])[0] for t in targets
    ]


@given(st.lists(vectors, max_size=5), st.lists(vectors, max_size=4))
def test_solutions_satisfy_and_vanish_on_free_unknowns(columns, targets):
    pivots = set(linalg.pivots(columns))
    for target, sol in zip(targets, linalg.solve(columns, targets)):
        image = {}
        for j, a in (sol or {}).items():
            for key, v in columns[j].items():
                image[key] = image.get(key, F(0)) + a * v
        nonzero = {k: v for k, v in image.items() if v}
        if sol is None:
            # inconsistent: no combination of the columns hits the target
            augmented = columns + [target]
            assert linalg.rank(augmented) == linalg.rank(columns) + 1
        else:
            assert nonzero == {k: v for k, v in target.items() if v}
            assert set(sol) <= pivots


@given(st.lists(vectors, max_size=6))
def test_pivots_are_where_the_prefix_rank_rises(columns):
    rises = [
        j for j in range(len(columns))
        if linalg.rank(columns[: j + 1]) > linalg.rank(columns[:j])
    ]
    assert linalg.pivots(columns) == rises
    assert linalg.rank(columns) == len(rises)


# -- the indexed rref against the reference --------------------------------

# sparse systems: few distinct values, explicit zeros and empty columns
sparse_entries = st.sampled_from([0, 0, 1, -1, 2, -3, 5]).map(F)
row_pool = st.sampled_from(["a", "b", ("c", 1), 7, None, (), 2.5, "z"])
sparse_vectors = st.dictionaries(row_pool, sparse_entries, max_size=5)
sparse_rows = st.dictionaries(
    st.integers(min_value=0, max_value=9), sparse_entries, max_size=6
)


@given(st.lists(sparse_rows, max_size=8), st.integers(0, 10))
# an explicit zero is neither a pivot nor a divisor, and a zero that
# fill-in overwrites keeps its place in the row
@example([{0: F(0), 1: F(2)}, {0: F(3), 1: F(0)}, {1: F(0)}], 2)
@example([{0: F(1), 2: F(1)}, {2: F(0), 0: F(2), 1: F(5)}], 3)
# the integer elimination: negative pivots, a row with common factor 6,
# mixed denominators, entries near 10**30 (determinant -1), and rows that
# cancel to nothing or to an explicit zero alone
@example([{0: F(-2), 1: F(3)}, {0: F(4), 1: F(-1), 2: F(5)},
          {1: F(-7), 0: F(-1)}], 3)
@example([{0: F(6), 1: F(12), 2: F(-18)}, {0: F(3), 1: F(6), 2: F(9)},
          {1: F(6), 2: F(-6), 3: F(12)}], 3)
@example([{0: F(1, 3), 1: F(5, 7)}, {0: F(2, 7), 1: F(-1, 3), 2: F(1)},
          {2: F(5, 7), 3: F(-1, 3)}], 3)
@example([{0: F(10**30 + 1), 1: F(10**30)},
          {0: F(10**30), 1: F(10**30 - 1), 2: F(-(10**29))}], 2)
@example([{0: F(2), 1: F(4)}, {0: F(-3), 1: F(-6)}, {1: F(1)}], 2)
@example([{0: F(1, 2), 1: F(1)}, {0: F(3), 2: F(0), 1: F(6)},
          {2: F(0)}], 3)
# the pivot row decides the carried entries or the key order: the
# shortest row pivots, not the first; an explicit zero makes a row
# longer; among rows of one length the first pivots; and a rank-deficient
# system whose carried column is inconsistent
@example([{0: F(1), 1: F(1), 2: F(3)}, {0: F(2), 2: F(1)}], 2)
@example([{0: F(2), 2: F(1)}, {1: F(0), 0: F(1)}], 2)
@example([{0: F(1), 2: F(1)}, {0: F(1), 2: F(2)}], 1)
@example([{0: F(1), 1: F(1), 3: F(1)}, {0: F(1), 1: F(1), 3: F(2)},
          {0: F(2), 3: F(5)}], 3)
def test_rref_equals_reference(rows, ncols):
    """Same reduced rows, key order included, and the same pivots.

    Entries at column indices >= ncols are carried along, as the solve
    targets are.  Both pivot on the shortest row, the first among equals.
    """
    got_rows, got_pivots = linalg.rref(rows, ncols)
    ref_rows, ref_pivots = reference_rref(rows, ncols)
    assert got_pivots == ref_pivots
    assert _ordered(got_rows) == _ordered(ref_rows)
    assert all(is_canonical(v) for r in got_rows for v in r.values())


@given(st.lists(sparse_rows, max_size=8), st.integers(0, 10))
def test_rref_leaves_its_input_alone(rows, ncols):
    before = _ordered(rows)
    linalg.rref(rows, ncols)
    assert _ordered(rows) == before


@given(st.lists(sparse_vectors, max_size=8))
@example([{"a": F(-6), "b": F(12)}, {"a": F(1, 3), "b": F(-2, 3)},
          {"a": F(10**30), "c": F(5, 7)}, {"b": F(-(10**30))}])
def test_kernel_basis_and_pivots_equal_reference(columns):
    assert _ordered(linalg.kernel_basis(columns)) == _ordered(
        reference_kernel_basis(columns)
    )
    assert linalg.pivots(columns) == reference_rref(
        linalg._rows(columns), len(columns)
    )[1]


@given(st.lists(sparse_vectors, max_size=8),
       st.lists(sparse_vectors, max_size=4))
# mixed denominators and entries near 10**30, one target consistent and
# one not
@example([{"a": F(1, 3), "b": F(5, 7)}, {"a": F(-6), "b": F(10**30)},
          {"a": F(-2, 3), "b": F(-10, 7)}],
         [{"a": F(10**30 - 1), "b": F(1, 21)}, {"z": F(1)}])
def test_solve_equals_reference(columns, targets):
    assert _ordered(linalg.solve(columns, targets)) == _ordered(
        reference_solve(columns, targets)
    )


@given(st.lists(sparse_vectors, max_size=8),
       st.lists(sparse_vectors, max_size=4))
# row "a" is longer than row "b", so the two rules pivot column 0 on
# different rows; the second target is inconsistent
@example([{"a": F(1), "b": F(2)}, {"a": F(3)}, {"a": F(-1), "b": F(5)}],
         [{"a": F(4), "b": F(2)}, {"a": F(1), "b": F(1), 7: F(1)}])
@example([{"a": F(2), "b": F(1), "c": F(1)}, {"a": F(1), "c": F(0)},
          {"b": F(1), "c": F(1)}],
         [{"a": F(1), "b": F(1), "c": F(2)}, {"c": F(1)}])
def test_outputs_equal_the_first_row_rule(columns, targets):
    """solve, Factorization, pivots, rank and kernel_basis do not depend
    on the pivot row: they give what the first-row rule gives, key order
    included."""
    want = _ordered(reference_solve(columns, targets, first_row_rref))
    assert _ordered(linalg.solve(columns, targets)) == want
    assert _ordered(linalg.Factorization(columns).solve(targets)) == want
    assert _ordered(linalg.kernel_basis(columns)) == _ordered(
        reference_kernel_basis(columns, first_row_rref))
    pivots = first_row_rref(linalg._rows(columns), len(columns))[1]
    assert linalg.pivots(columns) == pivots
    assert linalg.rank(columns) == len(pivots)



@given(st.lists(sparse_vectors, max_size=8),
       st.lists(sparse_vectors, max_size=4),
       st.lists(sparse_vectors, max_size=3))
@example([{"a": F(1, 3), "b": F(5, 7)}, {"a": F(-6), "b": F(10**30)},
          {"a": F(-2, 3), "b": F(-10, 7)}],
         [{"a": F(10**30 - 1), "b": F(1, 21)}, {"z": F(1)}],
         [{"a": F(0), "b": F(1, 7)}, {}])
# a rank-deficient system with an explicit zero, and a target whose
# inconsistency shows only at a key the columns carry
@example([{"a": F(2), "b": F(0)}, {"a": F(-4)}, {"b": F(3), 7: F(1)}],
         [{"a": F(1), "b": F(1), 7: F(1)}, {7: F(2), "b": F(6)}],
         [{7: F(5)}])
def test_factored_solve_equals_solve(columns, targets, later):
    """One factorization answers every batch of targets as `solve` does.

    Same solutions, key order and number types included, and None for
    the same inconsistent targets.
    """
    system = linalg.Factorization(columns)
    for batch in (targets, later, targets):
        got = system.solve(batch)
        assert _ordered(got) == _ordered(reference_solve(columns, batch))
        assert all(is_canonical(v) for sol in got if sol
                   for v in sol.values())


# -- cohomology: each slice ranked once ---------------------------------------


@pytest.mark.parametrize("name, dims", [
    ("sl2", [1, 0, 1, 0]), ("affxc2", [1, 2, 1, 0]),
    ("abelian2", [1, 2, 1, 0]),
])
def test_cohomology_ranks_each_slice_once(monkeypatch, name, dims):
    lie = schema.parse_algebra(schema.load_file(CORPUS / f"{name}.alg"))
    uea = UEnvelope(lie)
    rank, cohomology_dims = linalg.rank, linalg.cohomology_dims
    slice_of = {}  # id of a live column list -> its (k, g)
    with_columns = set()
    ranked = []

    def counting_rank(cols):
        ranked.append(slice_of[id(cols)])
        return rank(cols)

    def recording_dims(columns, max_k, grades):
        def recorded(k, g):
            cols = columns(k, g)
            slice_of[id(cols)] = (k, g)
            if cols:
                with_columns.add((k, g))
            return cols
        return cohomology_dims(recorded, max_k, grades)

    monkeypatch.setattr(linalg, "rank", counting_rank)
    monkeypatch.setattr(linalg, "cohomology_dims", recording_dims)
    for compute in (lambda: cdyb_dgla.cohomology_dims(lie, 3, 4),
                    lambda: adt_dgla.cohomology_dims(uea, 3, 4)):
        with_columns.clear()
        ranked.clear()
        assert compute() == dims
        assert with_columns
        assert sorted(ranked) == sorted(with_columns)
