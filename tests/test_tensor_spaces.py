from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dyntwist import CdybElement, GradingMismatch
from dyntwist.tensor_spaces import sym_sort, wedge_sort

from ring import HSeries

N = 3
F1 = Fraction(1)


def test_wedge_sort():
    assert wedge_sort((0, 1)) == (1, (0, 1))
    assert wedge_sort((1, 0)) == (-1, (0, 1))
    assert wedge_sort((2, 0, 1)) == (1, (0, 1, 2))
    assert wedge_sort((0, 0)) is None
    assert wedge_sort(()) == (1, ())


@given(st.permutations(list(range(4))))
def test_wedge_sort_sign_is_permutation_parity(perm):
    sign, sorted_w = wedge_sort(tuple(perm))
    assert sorted_w == (0, 1, 2, 3)
    inversions = sum(
        1
        for a in range(4)
        for b in range(a + 1, 4)
        if perm[a] > perm[b]
    )
    assert sign == (-1) ** inversions


def test_sym_sort():
    assert sym_sort((2, 1, 1)) == (1, 1, 2)


def test_repr_tells_an_empty_wedge_or_leg_from_index_one():
    def shown(w, s):
        return repr(CdybElement({(w, s): 1}, N))

    assert shown((0, 2), ()) == "CdybElement((HSeries(1; N=3))*[0^2|()])"
    assert shown((0, 2), (1,)) == "CdybElement((HSeries(1; N=3))*[0^2|1])"
    assert shown((), (1,)) == "CdybElement((HSeries(1; N=3))*[()|1])"
    assert shown((1,), (1,)) == "CdybElement((HSeries(1; N=3))*[1|1])"


def test_monomial_normalizes():
    a = CdybElement.monomial((1, 0), (), F1, N)
    b = CdybElement.monomial((0, 1), (), F1, N)
    assert a == -b
    assert CdybElement.monomial((0, 0), (), F1, N).is_zero()


def test_component_and_hbar_layers():
    x = CdybElement.monomial((0,), (1,), HSeries.hbar(N, 2), N)
    y = CdybElement.monomial((0, 2), (), F1, N)
    z = x + y
    assert z.component(exterior=1) == x
    assert z.component(sh=0) == y
    assert z.hbar_component(2) == CdybElement.monomial((0,), (1,), F1, N)
    assert z.hbar_component(1).is_zero()


def test_mixed_exterior_degree_raises():
    x = CdybElement.monomial((0,), (), F1, N)
    y = CdybElement.monomial((0, 1), (), F1, N)
    with pytest.raises(GradingMismatch):
        (x + y).exterior_degree()


def test_ad_and_invariance(sl2):
    # e^f and h are invariant under ad h; e alone is not
    ef = CdybElement.monomial((0, 2), (), F1, N)
    assert ef.is_invariant(sl2)
    e = CdybElement.monomial((0,), (), F1, N)
    assert not e.is_invariant(sl2)
    # ad h e = 2e
    assert e.ad(sl2, 1) == e.scale(2)


def test_leg_action(sl2):
    # legs are acted on too: for the Cartan line the leg h is invariant
    x = CdybElement.monomial((0, 2), (1, 1), F1, N)
    assert x.is_invariant(sl2)
