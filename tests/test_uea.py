from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dyntwist import HSeries, PbwElement, UmSplitter
from dyntwist.uea import all_monomials, coproduct_mono, in_filtration_kernel

N = 3
F = Fraction


def test_straighten_fe(sl2_uea):
    # f.e = ef - h  (since [e,f] = h)
    assert sl2_uea.straighten((2, 0)) == {(0, 2): F(1), (1,): F(-1)}


def test_straighten_sorted_is_identity(sl2_uea):
    assert sl2_uea.straighten((0, 1, 2)) == {(0, 1, 2): F(1)}


def test_mul_mono(sl2_uea):
    # f . e again, via the product
    assert sl2_uea.mul_mono((2,), (0,)) == {(0, 2): F(1), (1,): F(-1)}


def test_sym_ef(sl2_uea):
    # sym(ef) = (ef + fe)/2 = ef - h/2
    assert sl2_uea.sym_mono((0, 2)) == {(0, 2): F(1), (1,): F(-1, 2)}


def test_sym_inverse_round_trip(sl2_uea):
    elt = sl2_uea.sym({(1, 1): F(1), (1,): F(2)}, N)
    back = sl2_uea.sym_inverse(elt)
    assert back == {(1, 1): HSeries.one(N), (1,): HSeries.constant(2, N)}


def test_coproduct_h_squared():
    # Delta(h^2) = h^2 (x) 1 + 2 h (x) h + 1 (x) h^2
    out = coproduct_mono((1, 1), 2)
    assert out == {
        ((1, 1), ()): 1,
        ((1,), (1,)): 2,
        ((), (1, 1)): 1,
    }


def test_coproduct_counts():
    out = coproduct_mono((0, 1), 2)
    assert sum(out.values()) == 4


@settings(max_examples=40)
@given(st.data())
def test_filtration_degree_matches_kernel_definition(sl2_uea, data):
    monos = [m for m in all_monomials(3, 3) if m]
    mono = data.draw(st.sampled_from(monos))
    elt = PbwElement(sl2_uea, {mono: HSeries.one(N)}, N)
    d = elt.degree()
    assert d == len(mono)
    assert in_filtration_kernel(elt, d)
    assert not in_filtration_kernel(elt, d - 1)


def test_split_ef(sl2_uea):
    # U g = U g . h (+) sym(S m): ef = (h/2) + sym(ef)
    splitter = UmSplitter(sl2_uea)
    elt = PbwElement(sl2_uea, {(0, 2): HSeries.one(N)}, N)
    ideal, um = splitter.split(elt)
    assert ideal + um == elt
    assert ideal == PbwElement(
        sl2_uea, {(1,): HSeries.constant(F(1, 2), N)}, N
    )
    assert um == PbwElement(
        sl2_uea,
        {(0, 2): HSeries.one(N), (1,): HSeries.constant(F(-1, 2), N)},
        N,
    )


def test_split_trivial_base(ab2_uea):
    splitter = UmSplitter(ab2_uea)
    elt = PbwElement(ab2_uea, {(0, 1): HSeries.one(N)}, N)
    ideal, um = splitter.split(elt)
    assert ideal.is_zero() and um == elt


def test_split_idempotent(nonab_uea):
    splitter = UmSplitter(nonab_uea)
    elt = PbwElement(nonab_uea, {(0, 2, 3): HSeries.one(N)}, N)
    ideal, um = splitter.split(elt)
    assert ideal + um == elt
    # the um part projects to itself
    assert splitter.um_project(um) == um
    assert splitter.um_project(ideal).is_zero()


def test_ad_derivation(sl2_uea):
    # ad h (ef) = [h,e]f + e[h,f] = 2ef - 2ef = 0
    assert sl2_uea.ad_mono(1, (0, 2)) == {}
    assert sl2_uea.ad_mono(1, (0,)) == {(0,): F(2)}
