from fractions import Fraction

import pytest

from dyntwist import AlgebraError, DecompositionError, LieData, invariant_basis


def test_sl2_brackets(sl2):
    # [h,e] = 2e, [h,f] = -2f, [e,f] = h
    assert sl2.bracket_basis(1, 0) == {0: 2}
    assert sl2.bracket_basis(1, 2) == {2: -2}
    assert sl2.bracket_basis(0, 2) == {1: 1}
    assert sl2.bracket_basis(2, 0) == {1: -1}
    assert sl2.bracket_basis(0, 0) == {}


def test_antisymmetric_storage():
    lie = LieData(["x", "y"], {(1, 0): {0: 1}}, [])
    assert lie.bracket_basis(0, 1) == {0: -1}


def test_jacobi_rejected():
    # [x,y] = z, [y,z] = x, [x,z] = x leaves a residual -z
    with pytest.raises(AlgebraError):
        LieData(
            ["x", "y", "z"],
            {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {0: 1}},
            [],
        )


def test_base_must_be_closed():
    with pytest.raises(DecompositionError):
        LieData(["e", "h", "f"],
                {(0, 1): {0: -2}, (1, 2): {2: -2}, (0, 2): {1: 1}},
                [0, 1])


def test_reductive_mode_rejected_when_action_escapes():
    # [h, m] with an h-component
    with pytest.raises(DecompositionError):
        LieData(["x", "h"], {(0, 1): {1: 1}}, [1])


def test_abelian_base_mode(aff):
    assert aff.mode == "abelian_base"
    with pytest.raises(DecompositionError):
        LieData(["u", "v", "a", "b"], {(2, 3): {3: 1}}, [2, 3],
                mode="abelian_base")


def test_invariant_basis_sl2(sl2):
    # ad h on basis vectors: e -> 2e, h -> 0, f -> -2f
    def ad(x, k):
        return sl2.bracket_basis(x, k)

    inv = invariant_basis(sl2, range(3), ad)
    assert inv == [{1: Fraction(1)}]


def test_invariant_basis_trivial_h(ab2):
    inv = invariant_basis(ab2, range(2), lambda x, k: {})
    assert len(inv) == 2


def test_names(sl2):
    assert sl2.index_of("f") == 2
    assert sl2.name_of(0) == "e"
    with pytest.raises(AlgebraError):
        sl2.index_of("z")
