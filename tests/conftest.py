import pathlib
from fractions import Fraction

import pytest

from dyntwist import (
    AdtElement, CdybElement, FormalTwist, HSeries, LieData, RMatrix,
    UEnvelope,
)
from dyntwist.adt_dgla import ad_adt_key, adt_monomials
from dyntwist.hseries import add_into

ORDER = 3
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def is_canonical(a) -> bool:
    """Whether a follows the one number convention: an int when the
    denominator is 1, else a Fraction (so never a float, and never an
    integral Fraction)."""
    return type(a) is int or type(a) is Fraction and a.denominator != 1


def same_layers(new, ref):
    """Two elements of one arity and order with the same layers: the
    same keys in the same order, equal values of the same types, each
    canonical."""
    assert (new.arity, new.order) == (ref.arity, ref.order)
    for got, want in zip(new.layers, ref.layers, strict=True):
        assert list(got.items()) == list(want.items())
        assert list(map(type, got.values())) == list(map(type, want.values()))
        assert all(map(is_canonical, got.values()))


def sl2_data() -> LieData:
    # [h,e] = 2e, [h,f] = -2f, [e,f] = h; base = Cartan line
    return LieData(
        ["e", "h", "f"],
        {(0, 1): {0: -2}, (1, 2): {2: -2}, (0, 2): {1: 1}},
        [1],
    )


def sl2half_data() -> LieData:
    # sl2 in the basis x = e/2: [h,x] = 2x, [h,f] = -2f, [x,f] = h/2, a
    # structure constant with a denominator
    return LieData(
        ["x", "h", "f"],
        {(0, 1): {0: -2}, (1, 2): {2: -2}, (0, 2): {1: Fraction(1, 2)}},
        [1],
    )


def ab2_data() -> LieData:
    return LieData(["a", "b"], {}, [])


def aff_data() -> LieData:
    # aff(1) ([x,y] = y) times a central two-dimensional base
    return LieData(
        ["x", "y", "h1", "h2"], {(0, 1): {1: 1}}, [2, 3],
        mode="abelian_base",
    )


def nonab_data() -> LieData:
    # abelian complement, nonabelian base [a,b] = b
    return LieData(["u", "v", "a", "b"], {(2, 3): {3: 1}}, [2, 3])


def formal_twist(uea, arity, terms, order) -> FormalTwist:
    """The FormalTwist with coefficients {key: HSeries or rational} in
    hbar: the hbar^n coefficient of a key of leg degree d goes to layer
    n + d, and is dropped when that exceeds the order.  A series of lower
    order raises GradingMismatch, as in the constructor."""
    return FormalTwist(uea, arity, {
        k: HSeries.hbar(order, len(k[-1])) * c for k, c in terms.items()
    }, order)


def hbar_terms(J) -> dict:
    """J's coefficients in hbar, {key: HSeries of J's order}, read back
    from its layers: layer w holds the hbar^(w - d) coefficient of a key
    of leg degree d."""
    rows: dict = {}
    for w in range(J.order + 1):
        for k, a in J.layer(w).items():
            n = w - len(k[-1])
            assert n >= 0, f"{k} has leg degree above its layer {w}"
            rows.setdefault(k, [0] * (J.order + 1))[n] = a
    return {k: HSeries(row, J.order) for k, row in rows.items()}


def adt_is_invariant(E) -> bool:
    """Whether every h basis element kills E, acting by `ad_adt_key`."""
    for x in E.uea.lie.h_indices:
        image: dict = {}
        for key, c, n in E.layer_terms():
            for out, a in ad_adt_key(E.uea, x, key).items():
                add_into(image, (out, n), a * c)
        if image:
            return False
    return True


def geometric_body(wedge, leg_index, order, max_deg=None) -> CdybElement:
    """sum_d lambda^d on one wedge with a single-letter leg variable."""
    if max_deg is None:
        max_deg = order
    body = CdybElement.zero(order)
    for d in range(max_deg + 1):
        body = body + CdybElement.monomial(
            wedge, (leg_index,) * d, Fraction(1), order
        )
    return body


def mixed_element(uea, rng, arity, order, terms=7, max_len=2,
                  cls=AdtElement):
    """Seeded element whose terms start at every hbar valuation 0..order.

    Each coefficient is c hbar^v + c' hbar^(v+1), so products of two such
    elements have term pairs on both sides of any truncation below order.
    A formal twist is drawn in hbar and placed on its triangle
    (`formal_twist`).
    """
    pool = [key for L in range(max_len + 1)
            for key in adt_monomials(uea, arity, L)]
    out: dict = {}
    for i in range(terms):
        v = i % (order + 1)
        c = HSeries.hbar(order, v, rng.choice([-2, -1, 1, 2]))
        add_into(out, pool[rng.randrange(len(pool))],
                 c + HSeries.hbar(order, v + 1, rng.choice([-1, 1])))
    if cls is FormalTwist:
        return formal_twist(uea, arity, out, order)
    return cls(uea, arity, out, order)


@pytest.fixture(scope="session")
def sl2():
    return sl2_data()


@pytest.fixture(scope="session")
def sl2_uea(sl2):
    return UEnvelope(sl2)


@pytest.fixture(scope="session")
def sl2_rho(sl2):
    return RMatrix(sl2, geometric_body((0, 2), 1, ORDER))


@pytest.fixture(scope="session")
def sl2half_uea():
    return UEnvelope(sl2half_data())


@pytest.fixture(scope="session")
def ab2():
    return ab2_data()


@pytest.fixture(scope="session")
def ab2_uea(ab2):
    return UEnvelope(ab2)


@pytest.fixture(scope="session")
def ab2_rho(ab2):
    return RMatrix(
        ab2, CdybElement.monomial((0, 1), (), Fraction(1), ORDER)
    )


@pytest.fixture(scope="session")
def aff():
    return aff_data()


@pytest.fixture(scope="session")
def aff_uea(aff):
    return UEnvelope(aff)


@pytest.fixture(scope="session")
def aff_rho(aff):
    body = CdybElement.monomial((0, 1), (), Fraction(1), ORDER)
    body = body + geometric_body((2, 3), 2, ORDER)
    return RMatrix(aff, body)


@pytest.fixture(scope="session")
def nonab():
    return nonab_data()


@pytest.fixture(scope="session")
def nonab_uea(nonab):
    return UEnvelope(nonab)


@pytest.fixture(scope="session")
def sl2_pair(sl2_rho, sl2_uea):
    from dyntwist import solve_adte

    return solve_adte(sl2_rho, ORDER, uea=sl2_uea)


@pytest.fixture(scope="session")
def ab2_pair(ab2_rho, ab2_uea):
    from dyntwist import solve_adte

    return solve_adte(ab2_rho, ORDER, uea=ab2_uea)


@pytest.fixture(scope="session")
def aff_pair(aff_rho, aff_uea):
    from dyntwist import solve_adte

    return solve_adte(aff_rho, ORDER, uea=aff_uea)
