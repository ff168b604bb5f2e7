from fractions import Fraction

from hypothesis import given, strategies as st

from dyntwist import linalg

F = Fraction


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
