from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dyntwist import UEnvelope, UmSplitter, schema
from dyntwist.hseries import add_into
from dyntwist.uea import all_monomials, coproduct_mono

import reference_kernels
from conftest import CORPUS, sl2half_data

F = Fraction


def _sum(*parts):
    out: dict = {}
    for part in parts:
        for m, c in part.items():
            add_into(out, m, c)
    return out


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
    coeffs = {(1, 1): F(1), (1,): F(2)}
    image: dict = {}
    for s, c in coeffs.items():
        for m, d in sl2_uea.sym_mono(s).items():
            add_into(image, m, c * d)
    assert sl2_uea.sym_preimage(image) == coeffs


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


def test_coproduct_counts_runs_as_placements_would():
    # same parts, multiplicities and key order as placing every letter
    # position into a part, for monomials up to length 6 over three
    # letters and up to four parts (a word out of PBW order too)
    words = [m for m in all_monomials(3, 6)] + [(1, 0, 1), (2, 0, 2, 1)]
    for mono in words:
        for slots in (1, 2, 3, 4):
            if slots == 4 and len(mono) > 5:
                continue
            want = reference_kernels.coproduct_by_position(mono, slots)
            assert list(coproduct_mono(mono, slots).items()) == list(
                want.items())


@settings(max_examples=40)
@given(st.data())
def test_filtration_degree_matches_kernel_definition(data):
    monos = [m for m in all_monomials(3, 3) if m]
    mono = data.draw(st.sampled_from(monos))

    def in_kernel(n):
        # ker (id - unit counit)^{(n+1)} o Delta^{(n)}: every term of the
        # coproduct has an empty part (multiplicities are positive, so
        # the surviving terms cannot cancel)
        return not any(all(key) for key in coproduct_mono(mono, n + 1))

    d = len(mono)
    assert in_kernel(d)
    assert not in_kernel(d - 1)


def test_split_ef(sl2_uea):
    # U g = U g . h (+) sym(S m): ef = (h/2) + sym(ef)
    splitter = UmSplitter(sl2_uea)
    ideal, um = splitter.split({(0, 2): F(1)})
    assert _sum(ideal, um) == {(0, 2): F(1)}
    assert ideal == {(1,): F(1, 2)}
    assert um == {(0, 2): F(1), (1,): F(-1, 2)}


def test_split_trivial_base(ab2_uea):
    splitter = UmSplitter(ab2_uea)
    ideal, um = splitter.split({(0, 1): F(1)})
    assert ideal == {} and um == {(0, 1): F(1)}


def test_split_idempotent(nonab_uea):
    splitter = UmSplitter(nonab_uea)
    ideal, um = splitter.split({(0, 2, 3): F(1)})
    assert _sum(ideal, um) == {(0, 2, 3): F(1)}
    # the um part projects to itself
    assert splitter.split(um) == ({}, um)
    assert splitter.split(ideal) == (ideal, {})


def _algebra(name):
    if name == "sl2half":
        return sl2half_data()
    return schema.parse_algebra(schema.load_file(CORPUS / f"{name}.alg"))


@pytest.mark.parametrize(
    "name", ["sl2", "nonab", "affxc2", "abelian2", "sl2half"])
def test_split_every_short_monomial(name):
    uea = UEnvelope(_algebra(name))
    splitter = UmSplitter(uea)
    m_indices = set(uea.lie.m_indices)
    for mono in all_monomials(uea.lie.dim, 3):
        ideal, um = splitter.split({mono: F(1)})
        assert _sum(ideal, um) == {mono: F(1)}
        # sym_preimage back-substitutes on its own, and raises NotInImage
        # unless um is the symmetrization of a polynomial in m alone
        uea.sym_preimage(um, allowed=m_indices)
        assert splitter.split(um) == ({}, um)
        assert splitter.split(ideal) == (ideal, {})


def test_ad_derivation(sl2_uea):
    # ad h (ef) = [h,e]f + e[h,f] = 2ef - 2ef = 0
    assert sl2_uea.ad_mono(1, (0, 2)) == {}
    assert sl2_uea.ad_mono(1, (0,)) == {(0,): F(2)}
