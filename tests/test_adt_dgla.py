import itertools
import random
from fractions import Fraction

import pytest

from dyntwist import (
    AdtElement,
    CdybElement,
    ContractFailure,
    LieData,
    NoSolution,
    RMatrix,
    UEnvelope,
    adte_residual,
    alt_embed,
    brace,
    cup,
    differential_b,
    gerstenhaber_bracket,
    kappa_solve,
    solve_adte,
)
from dyntwist import UmSplitter, adt_dgla, linalg, linfinity, props, schema
from dyntwist.adt_dgla import (
    adt_monomials,
    adte_residual_layer,
    cohomology_dims,
    coproduct_at,
    invariant_adt_basis,
    mc_residual,
    unit_at,
)
from dyntwist.gauge import adt_mul
from dyntwist.hseries import add_into
from dyntwist.lie_core import invariant_basis
from dyntwist.props import (
    _rand_adt,
    check_b_squared,
    check_brace_relations,
    check_cup_leibniz,
)
from dyntwist.uea import all_monomials

from ring import HSeries, ring_terms
import reference_kernels
from conftest import (
    CORPUS, ab2_data, aff_data, adt_is_invariant, is_canonical,
    mixed_element, nonab_data, same_layers, sl2_data, sl2half_data,
)
from oracles import alt

N = 3
F = Fraction


def test_b_squared_all_corpus(sl2_uea, ab2_uea, aff_uea, nonab_uea):
    for uea in (sl2_uea, ab2_uea, aff_uea, nonab_uea):
        ok, detail = check_b_squared(uea)
        assert ok, detail


def test_b_kills_primitives(sl2_uea):
    # primitive group factors with empty leg are cocycles in arity 1:
    # the padded copy cancels against the coproduct terms
    P = AdtElement(sl2_uea, 1, {((0,), ()): HSeries.constant(1, N)}, N)
    assert differential_b(P).is_zero()


def test_b_on_unit_and_leg(sl2_uea):
    # a pure leg letter: the pad and the leg part of the coaction cancel
    # one copy, leaving the group part of the coaction plus the leg copy
    P = AdtElement(sl2_uea, 1, {((), (1,)): HSeries.constant(1, N)}, N)
    b = differential_b(P)
    expected = AdtElement(
        sl2_uea, 2,
        {((), (1,), ()): HSeries.constant(1, N), ((), (), (1,)): HSeries.constant(1, N)},
        N,
    )
    assert b == expected


@pytest.mark.parametrize("uea_name", ["sl2_uea", "nonab_uea"])
def test_b_is_the_alternating_sum_of_slot_embeddings(request, uea_name):
    # b(P) = 1 (x) P + sum_{i=1}^{k} (-1)^i Delta_i P + (-1)^{k+1} Delta_leg P
    # rebuilt from the slot embeddings, against the single-pass coboundary
    uea = request.getfixturevalue(uea_name)
    rng = random.Random(17)
    for _ in range(100):
        k = rng.randrange(3)
        P = _rand_adt(uea, rng, k, 3, order=N, terms=3).scale(
            HSeries([1, rng.choice([-1, 2])], N)
        )
        expected = unit_at(P, 0)
        for i in range(1, k + 2):
            expected = expected + coproduct_at(P, i - 1).scale((-1) ** i)
        assert differential_b(P) == expected


def test_cup_and_brace_identities(sl2_uea, nonab_uea):
    for uea in (sl2_uea, nonab_uea):
        ok, detail = check_cup_leibniz(uea, seed=3, samples=60)
        assert ok, detail
        ok, detail = check_brace_relations(uea, seed=3, samples=40)
        assert ok, detail


def _rand_invariant(uea, rng, arity):
    u = AdtElement.zero(uea, arity, 0)
    for _ in range(2):
        basis = invariant_adt_basis(uea, arity, rng.randrange(1, 3))
        if basis:
            vec = basis[rng.randrange(len(basis))]
            u = u + AdtElement(uea, arity, dict(vec), 0).scale(
                F(rng.choice([-2, -1, 1, 2]))
            )
    return u


def test_gerstenhaber_graded_jacobi(sl2_uea):
    rng = random.Random(5)
    for _ in range(20):
        ka, kb, kc = (rng.randrange(1, 3) for _ in range(3))
        P = _rand_invariant(sl2_uea, rng, ka)
        Q = _rand_invariant(sl2_uea, rng, kb)
        R = _rand_invariant(sl2_uea, rng, kc)
        a, b, c = ka - 1, kb - 1, kc - 1

        def gb(x, y):
            return gerstenhaber_bracket(x, y)

        lhs = gb(P, gb(Q, R)).scale((-1) ** (a * c))
        mid = gb(Q, gb(R, P)).scale((-1) ** (b * a))
        rhs = gb(R, gb(P, Q)).scale((-1) ** (c * b))
        assert (lhs + mid + rhs).is_zero()


def test_kappa_recomputation(sl2_uea, nonab_uea):
    # every kappa_solve output is re-checked against its equation
    rng = random.Random(9)
    for uea in (sl2_uea, nonab_uea):
        for _ in range(10):
            arity = rng.randrange(1, 3)
            u = AdtElement.zero(uea, arity, 0)
            for _ in range(2):
                basis = invariant_adt_basis(uea, arity, rng.randrange(1, 3))
                if basis:
                    vec = basis[rng.randrange(len(basis))]
                    u = u + AdtElement(uea, arity, dict(vec), 0).scale(
                        F(rng.choice([-2, -1, 1, 2]))
                    )
            target = differential_b(u)
            if target.is_zero():
                continue
            sol = kappa_solve(uea, target)
            assert (differential_b(sol) - target).is_zero()
            assert adt_is_invariant(sol)


def test_kappa_no_solution(sl2_uea):
    # an invariant cocycle that is not a coboundary: the alternating
    # embedding of e^f spans the arity-2 cohomology
    target = alt_embed(
        sl2_uea, CdybElement.monomial((0, 2), (), F(1), 0)
    )
    assert differential_b(target).is_zero()
    slices = []
    for solve in (kappa_solve, reference_kernels.kappa_solve):
        with pytest.raises(NoSolution) as exc:
            solve(sl2_uea, target)
        slices.append((exc.value.arity, exc.value.length))
    assert slices[0] == slices[1]


def test_invariant_basis_is_invariant(sl2_uea):
    for L in range(1, 4):
        for vec in invariant_adt_basis(sl2_uea, 2, L):
            elt = AdtElement(sl2_uea, 2, dict(vec), 0)
            assert adt_is_invariant(elt)
    # e in one slot has h-weight 2, e.f in one slot weight 0
    e = AdtElement(sl2_uea, 1, {((0,), ()): 1}, N)
    assert not adt_is_invariant(e)
    assert not adt_is_invariant(e.shift(2) + e.shift(1))
    assert adt_is_invariant(AdtElement(sl2_uea, 1, {((0, 2), ()): 1}, N))


def test_alt_embed_round_trip(sl2_uea):
    x = CdybElement.monomial((0, 2), (1,), F(1), N)
    emb = alt_embed(sl2_uea, x)
    assert alt(emb) == x


def test_cohomology_dims_quantum(sl2_uea):
    assert cohomology_dims(sl2_uea, 3, 4) == [1, 0, 1, 0]


def test_adte_residual_of_unit(sl2_uea):
    K = AdtElement.unit(sl2_uea, 2, N)
    assert adte_residual(K).is_zero()
    assert mc_residual(K).is_zero()


# -- truncation oracles ------------------------------------------------------
#
# Every product skips the term pairs whose valuations add up to more than
# its order N.  Built at order N + 2 and truncated, the same product has
# those pairs inside its range, so the two agree only if nothing below
# the truncation was skipped.


def _truncation_agrees(product, *factors):
    low = product(*(E.truncate(N) for E in factors))
    high = product(*factors)
    assert low.order == N
    assert low == high.truncate(N)
    return low


@pytest.mark.parametrize("residual", [adte_residual, mc_residual],
                         ids=["direct", "mc"])
def test_adte_residual_truncation_oracle(sl2_uea, residual):
    rng = random.Random(11)
    for _ in range(3):
        K = AdtElement.unit(sl2_uea, 2, N + 2) + mixed_element(
            sl2_uea, rng, 2, N + 2, terms=6)
        res = _truncation_agrees(residual, K)
        assert res.layer(N)  # nonzero at the truncation: not vacuous


@pytest.mark.parametrize("uea_name", ["sl2_uea", "nonab_uea"])
def test_adt_mul_truncation_oracle(request, uea_name):
    uea = request.getfixturevalue(uea_name)
    rng = random.Random(12)
    for arity in (1, 2):
        A = mixed_element(uea, rng, arity, N + 2)
        B = mixed_element(uea, rng, arity, N + 2)
        assert _truncation_agrees(adt_mul, A, B).layer(N)


def test_cup_truncation_oracle(sl2_uea):
    rng = random.Random(13)
    for k, l in ((1, 1), (1, 2), (2, 1)):
        P = mixed_element(sl2_uea, rng, k, N + 2)
        Q = mixed_element(sl2_uea, rng, l, N + 2)
        assert _truncation_agrees(cup, P, Q).layer(N)


def test_brace_truncation_oracle(sl2_uea):
    rng = random.Random(14)
    P = mixed_element(sl2_uea, rng, 2, N + 2)
    for ks in ((1,), (2,), (1, 2)):
        Qs = [mixed_element(sl2_uea, rng, k, N + 2, terms=5) for k in ks]
        braced = _truncation_agrees(lambda P, *Qs: brace(P, Qs), P, *Qs)
        assert braced.layer(N)


def test_brace_with_too_many_inserts_has_the_smallest_order(sl2_uea):
    # more inserted elements than inputs leaves no placement, and the
    # zero result still has the smallest order among P and the Q_s
    rng = random.Random(15)
    P = mixed_element(sl2_uea, rng, 1, N + 2)
    Qs = [mixed_element(sl2_uea, rng, 1, order) for order in (N + 1, N)]
    out = brace(P, Qs)
    assert out.is_zero() and out.order == N


@pytest.mark.parametrize("arity", [1, 2])
def test_order_zero_b_column_is_layer_zero(sl2_uea, aff_uea, arity):
    # kappa_solve builds its columns from order-0 elements: b carries no
    # hbar, so they must equal layer 0 of the order-N columns, key order
    # included
    rng = random.Random(arity)
    for uea in (sl2_uea, aff_uea):
        for length in range(4):
            basis = invariant_adt_basis(uea, arity, length)
            picks = rng.sample(basis, min(3, len(basis)))
            combo: dict = {}
            for v in picks:
                c = F(rng.randint(-5, 5), rng.randint(1, 4))
                for key, a in v.items():
                    combo[key] = combo.get(key, F(0)) + c * a
            for v in picks + [combo]:
                low = differential_b(AdtElement(uea, arity, v, 0)).layer(0)
                full = differential_b(AdtElement(uea, arity, v, N)).layer(0)
                assert list(low.items()) == list(full.items())


def test_b_columns_are_cached_images_of_the_basis(sl2_uea):
    for arity, length in ((1, 2), (2, 3)):
        basis = invariant_adt_basis(sl2_uea, arity, length)
        where = adt_dgla._slice(sl2_uea, arity, length).where
        for (block, i), v in zip(where, basis):
            den, scaled = adt_dgla._block_column(block, i)
            col = {k: F(s, den) for k, s in scaled.items()}
            assert col == differential_b(
                AdtElement(sl2_uea, arity, v, N)).layer(0)


# -- shared caches against uncached references -----------------------------
#
# `UEnvelope.straighten`, `UEnvelope.ad_mono`, `invariant_adt_basis` and
# the blocks' b-columns hand the same cached dict to every caller.  After
# a full solve, every cached value must still equal its recomputation: a
# caller that mutated one (even by adding an explicit zero entry, which
# changes no result) shows here.


def _solved_uea(name):
    lie = schema.parse_algebra(schema.load_file(CORPUS / f"{name}.alg"))
    body = schema.parse_rmatrix(
        schema.load_file(CORPUS / f"{name}.rmat"), lie, N)
    uea = UEnvelope(lie)
    solve_adte(RMatrix(lie, body), N, uea=uea)
    return uea


@pytest.mark.parametrize("name", ["sl2", "nonab", "affxc2"])
def test_cached_h_action_is_unchanged_by_its_callers(name):
    uea = _solved_uea(name)
    assert uea._ad_cache
    for (x, mono), got in uea._ad_cache.items():
        assert list(got.items()) == list(
            reference_kernels.ad_mono(uea, x, mono).items())


@pytest.mark.parametrize("name", ["sl2", "nonab", "affxc2", "sl2half"])
def test_cached_straightening_is_unchanged_by_its_callers(name):
    # the integer kernels and the Fraction callers share one cache: each
    # entry is the Fraction straightening, key order included, with an
    # int exactly where the denominator is 1
    if name == "sl2half":  # rational structure constants
        uea = UEnvelope(sl2half_data())
        for w in all_monomials(3, 4):
            for word in set(itertools.permutations(w)):
                uea.straighten(word)
    else:
        uea = _solved_uea(name)
    memo: dict = {}
    kinds = set()
    for word, got in uea._straight_cache.items():
        ref = reference_kernels.straighten(uea.lie, word, memo)
        assert list(got.items()) == list(ref.items())
        for c, r in zip(got.values(), ref.values()):
            assert type(c) is (int if r.denominator == 1 else F)
            kinds.add(type(c))
    assert int in kinds and (F in kinds) == (name == "sl2half")


@pytest.mark.parametrize("name", ["sl2", "nonab", "affxc2"])
def test_cached_slices_are_unchanged_by_their_callers(name):
    uea = _solved_uea(name)
    cache = adt_dgla._slice_caches[uea]
    assert any(block.columns for sl in cache.values() for block in sl.blocks)
    for (arity, length), sl in cache.items():
        built = [block for block in sl.blocks if block.basis is not None]
        if not built:
            continue
        ref = reference_kernels.invariant_adt_basis(uea, arity, length)
        for block in built:
            # the reference vectors of the block, in slice order
            ref_block = [v for v in ref if set(block.keys).issuperset(v)]
            basis = block.basis
            assert [list(v.items()) for v in basis] == [
                list(v.items()) for v in ref_block]
            # a cached column is (D, b(D v)) on ints
            for j, (den, scaled) in block.columns.items():
                assert all(type(s) is int for s in scaled.values())
                col = {k: F(s, den) for k, s in scaled.items()}
                assert col == reference_kernels.b_column(
                    uea, arity, ref_block[j])


@pytest.mark.parametrize("name", ["sl2", "affxc2", "nonab"])
def test_only_blocks_with_a_moving_letter_need_a_kernel_basis(monkeypatch,
                                                              name):
    # an eigen-block's invariants are read from one h-action.  No letter
    # of sl2 or affxc2 moves under the base, so neither a solve nor the
    # whole-slice bases call `invariant_basis`; nonab's base letter a
    # moves under b, so its blocks with an a in them still do
    calls = []

    def counting(lie, keys, ad_apply):
        calls.append(keys)
        return invariant_basis(lie, keys, ad_apply)

    monkeypatch.setattr(adt_dgla, "invariant_basis", counting)
    uea = _solved_uea(name)
    for arity in range(3):
        for length in range(5):
            invariant_adt_basis(uea, arity, length)
    blocks = [block for sl in adt_dgla._slice_caches[uea].values()
              for block in sl.blocks if block.basis is not None]
    assert any(block.basis for block in blocks if block.eigen)
    assert {id(keys) for keys in calls} == {
        id(block.keys) for block in blocks if not block.eigen}
    assert len(calls) == len({id(keys) for keys in calls})
    assert bool(calls) == (name == "nonab")


def test_kappa_solve_builds_only_the_blocks_it_touches():
    # the order-3 targets on affxc2 fall in few content blocks of their
    # slices: neither the other invariant vectors nor their b-columns
    # are built
    uea = _solved_uea("affxc2")
    cache = adt_dgla._slice_caches[uea]
    solved = [key for key, sl in cache.items()
              if any(block.columns for block in sl.blocks)]
    assert solved
    blocks = [block for key in solved for block in cache[key].blocks]
    columns = sum(len(block.columns) for block in blocks)
    built = sum(len(block.basis) for block in blocks
                if block.basis is not None)
    full = sum(len(invariant_adt_basis(uea, *key)) for key in solved)
    assert columns <= built < full
    assert 2 * columns < full


# -- content blocks against the whole-slice references -----------------------
#
# `invariant_adt_basis` and `kappa_solve` work block by block; the
# references in reference_kernels.py build and eliminate every slice
# whole.  The two must agree exactly, key order included.

def sl2_over_itself():
    # every letter moves: the arity-1 invariant e|f + f|e + h|h/2 spans
    # three contents, which only the h-action joins into one block
    return LieData(["e", "h", "f"],
                   {(0, 1): {0: -2}, (1, 2): {2: -2}, (0, 2): {1: 1}},
                   [0, 1, 2])


BLOCK_ALGEBRAS = [sl2_data, sl2half_data, aff_data, nonab_data, ab2_data,
                  sl2_over_itself]


@pytest.mark.parametrize("data", BLOCK_ALGEBRAS)
def test_invariant_basis_merges_its_blocks(data):
    uea = UEnvelope(data())
    for arity in range(4):
        for length in range(5):
            got = invariant_adt_basis(uea, arity, length)
            ref = reference_kernels.invariant_adt_basis(uea, arity, length)
            assert [list(v.items()) for v in got] == [
                list(v.items()) for v in ref]


def _layered_invariant(uea, rng, arity, order):
    """An invariant element with random basis vectors on every layer."""
    outs = [{} for _ in range(order + 1)]
    for out in outs:
        for _ in range(2):
            basis = invariant_adt_basis(uea, arity, rng.randrange(4))
            if basis:
                c = F(rng.choice([-2, -1, 1, 2]), rng.choice([1, 3]))
                for key, a in basis[rng.randrange(len(basis))].items():
                    add_into(out, key, c * a)
    return AdtElement.from_layers(uea, arity, outs)


def _kappa_outcome(solve, uea, target, bound):
    """Every layer of the solution, or the slice of the NoSolution."""
    try:
        sol = solve(uea, target, max_filtration=bound)
    except NoSolution as exc:
        return exc.arity, exc.length
    return [list(sol.layer(n).items()) for n in range(sol.order + 1)]


@pytest.mark.parametrize("data", BLOCK_ALGEBRAS)
def test_kappa_solve_matches_the_whole_slice_solve(data):
    uea = UEnvelope(data())
    rng = random.Random(21)
    solved = 0
    for _ in range(6):
        arity = rng.randrange(1, 3)
        target = differential_b(_layered_invariant(uea, rng, arity, 2))
        if target.is_zero():
            continue
        for t, bound in itertools.product((target, target.truncate(1)),
                                          (None, 0, 1, 2)):
            got = _kappa_outcome(kappa_solve, uea, t, bound)
            assert got == _kappa_outcome(
                reference_kernels.kappa_solve, uea, t, bound)
            solved += isinstance(got, list) and any(got)
    assert solved


# -- layered kernels against their HSeries references ------------------------
#
# Every kernel computes on (key, Fraction, hbar power) terms.  The
# references in reference_kernels.py multiply whole HSeries; the two must
# agree exactly, coefficient orders included, on order-0 elements, on
# elements with several hbar layers per key, and on their truncations to
# a lower order, alone and mixed with the untruncated ones.
#
# b, cup, brace and the residual sum on ints scaled by the lcm D of their
# inputs' denominators.  Each test also draws inputs with coefficients
# over 2 and 3 (D > 1), from a second random stream so that the integer
# draws stay as they were, and sl2half has the structure constant 1/2.

ORACLE_ALGEBRAS = ["sl2_uea", "nonab_uea", "aff_uea", "sl2half_uea"]


def _draws(seed):
    """(rng, rational): the integer draws of the seed, then rational ones."""
    return [(random.Random(seed), False), (random.Random(seed + 100), True)]


def _oracle_inputs(uea, rng, arity, unit=False, terms=7, rational=False):
    """[order 0, layered at order N, the layered one truncated to N-1]."""
    def draw(order):
        A = mixed_element(uea, rng, arity, order, terms)
        B = mixed_element(uea, rng, arity, order, terms)
        if rational:
            A, B = A.scale(F(1, 2)), B.scale(F(-2, 3))
        E = A + B
        return E + AdtElement.unit(uea, arity, order) if unit else E

    layered = draw(N)
    assert any(len(c.coeffs) - c.coeffs.count(0) > 1
               for c in layered.terms.values())
    if rational:
        assert layered.int_layer_terms()[0] > 1
    return [draw(0), layered, layered.truncate(N - 1)]


def _agree(new, ref, top_layer=None):
    assert new.value_key() == ref.value_key()
    # value_key cannot tell an int from an equal Fraction
    assert all(is_canonical(a) for c in new.terms.values() for a in c.coeffs)
    if top_layer is not None:  # not vacuous: the top layer is reached
        assert new.layer(top_layer)


@pytest.mark.parametrize("uea_name", ORACLE_ALGEBRAS)
def test_layered_b_matches_hseries_reference(request, uea_name):
    uea = request.getfixturevalue(uea_name)
    for rng, rational in _draws(31):
        for arity in (0, 1, 2):
            inputs = _oracle_inputs(uea, rng, arity, rational=rational)
            for i, P in enumerate(inputs):
                _agree(differential_b(P), reference_kernels.differential_b(P),
                       N if i == 1 else None)


@pytest.mark.parametrize("uea_name", ORACLE_ALGEBRAS)
def test_layered_cup_matches_hseries_reference(request, uea_name):
    uea = request.getfixturevalue(uea_name)
    for rng, rational in _draws(32):
        for k, l in ((0, 1), (1, 1), (1, 2), (2, 1)):
            Ps = _oracle_inputs(uea, rng, k, rational=rational)
            Qs = _oracle_inputs(uea, rng, l, rational=rational)
            pairs = list(zip(Ps, Qs)) + [(Ps[2], Qs[1]), (Ps[1], Qs[2])]
            for i, (P, Q) in enumerate(pairs):
                _agree(cup(P, Q), reference_kernels.cup(P, Q),
                       N if i == 1 else None)


@pytest.mark.parametrize("uea_name", ORACLE_ALGEBRAS)
def test_layered_brace_matches_hseries_reference(request, uea_name):
    uea = request.getfixturevalue(uea_name)
    for rng, rational in _draws(33):
        Ps = _oracle_inputs(uea, rng, 2, terms=5, rational=rational)
        for ks in ((1,), (2,), (1, 2)):
            Qss = [_oracle_inputs(uea, rng, k, terms=4, rational=rational)
                   for k in ks]
            for i, P in enumerate(Ps):
                Qs = [inputs[i] for inputs in Qss]
                _agree(brace(P, Qs), reference_kernels.brace(P, Qs))
            # an order-N P with truncated Q_s and the other way round
            for P, Qs in ((Ps[1], [inputs[2] for inputs in Qss]),
                          (Ps[2], [inputs[1] for inputs in Qss])):
                _agree(brace(P, Qs), reference_kernels.brace(P, Qs))


# -- kernels that skip work whose outcome is known ---------------------------
#
# b generates only the terms that survive; cup and brace add a key in
# which no product joins two nonempty words as it stands, and straighten
# the others only from the first slot a product reaches; brace drops a P
# term that the truncation would drop before spreading it.
# `expanded_b_key`, `expanded_cup` and `expanded_brace` in
# reference_kernels.py are the kernels as they were before: the two must
# agree in values, value types and the key order of every layer.


def _empty_runs(key):
    """The lengths of the maximal runs of empty factors of a key."""
    return {len(list(run)) for nonempty, run in
            itertools.groupby(key[:-1], bool) if not nonempty}


@pytest.mark.parametrize("uea_name", ORACLE_ALGEBRAS)
def test_b_key_matches_the_expansion_on_every_small_key(request, uea_name):
    """Every key of arity <= 4 and total length <= 5, with runs of 1 to 4
    empty factors among them: the terms, their int values and their
    order.  `_b_terms` is called directly, so the memo of b stays as it
    is."""
    uea = request.getfixturevalue(uea_name)
    runs = set()
    for arity in range(5):
        for length in range(6):
            for key in adt_monomials(uea, arity, length):
                got = adt_dgla._b_terms(key)
                assert got == reference_kernels.expanded_b_key(key)
                assert {type(c) for _, c in got} <= {int}
                runs |= _empty_runs(key)
    assert runs == {1, 2, 3, 4}


def _shaped_element(uea, arity, lowest, rng, rational=False):
    """One term at each hbar power from `lowest` to N for every pattern of
    empty and nonempty slot words (factors and leg), keys of total length
    at most 3: empty and nonempty legs and consumed factors, for every
    fast path of cup and brace and its miss."""
    by_shape: dict = {}
    for length in range(4):
        for key in adt_monomials(uea, arity, length):
            by_shape.setdefault(tuple(map(bool, key)), []).append(key)
    assert len(by_shape) == 2 ** (arity + 1)
    terms: dict = {}
    for n in range(lowest, N + 1):
        for shape in sorted(by_shape):
            c = rng.choice([-2, -1, 1, 3])
            if rational:
                c = F(c, rng.choice([2, 3]))
            add_into(terms, rng.choice(by_shape[shape]),
                     HSeries.hbar(N, n, c))
    return AdtElement(uea, arity, terms, N)


@pytest.mark.parametrize("uea_name", ORACLE_ALGEBRAS)
def test_cup_and_brace_match_the_expanded_kernels(request, uea_name):
    """The oracle inputs, and shaped elements whose lowest power is 0 or
    1: with inserted elements of lowest power 1, the P terms at N minus
    their number are the last that a choice of Q_s terms keeps, and the
    P terms above are dropped."""
    uea = request.getfixturevalue(uea_name)
    for rng, rational in _draws(37):
        oracle = {k: _oracle_inputs(uea, rng, k, terms=5, rational=rational)
                  for k in (0, 1, 2)}
        shaped = {(k, low): _shaped_element(uea, k, low, rng, rational)
                  for k in (0, 1, 2) for low in (0, 1)}
        for k, l in ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)):
            Ps, Qs = oracle[k], oracle[l]
            pairs = list(zip(Ps, Qs)) + [(Ps[2], Qs[1]), (Ps[1], Qs[2])]
            pairs += [(shaped[k, 0], shaped[l, low]) for low in (0, 1)]
            pairs.append((shaped[k, 1], shaped[l, 0]))
            for P, Q in pairs:
                same_layers(cup(P, Q), reference_kernels.expanded_cup(P, Q))
        for k, ks in ((1, (0,)), (1, (1,)), (1, (2,)), (2, (0,)), (2, (1,)),
                      (2, (2,)), (2, (1, 2)), (2, (0, 1))):
            runs = [[oracle[k][i], [oracle[j][i] for j in ks]]
                    for i in range(3)]
            runs.append([oracle[k][1], [oracle[j][2] for j in ks]])
            runs += [[shaped[k, 0], [shaped[j, low] for j in ks]]
                     for low in (0, 1)]
            for P, Qs in runs:
                same_layers(brace(P, Qs),
                             reference_kernels.expanded_brace(P, Qs))


def test_brace_spreads_no_p_term_above_the_truncation_floor(
        sl2_uea, monkeypatch):
    """With Q of lowest power 1, a P term at power N - 1 is spread and
    one at power N never reaches a coproduct."""
    rng = random.Random(38)
    kept, dropped = (0, 0, 0, 0), (2, 2, 2, 2)  # words no shaped key has
    P = _shaped_element(sl2_uea, 2, 0, rng) + AdtElement(sl2_uea, 2, {
        (kept, kept, ()): HSeries.hbar(N, N - 1, 1),
        (dropped, dropped, ()): HSeries.hbar(N, N, 1),
    }, N)
    Q = _shaped_element(sl2_uea, 1, 1, rng)
    spread = []
    real = adt_dgla.coproduct_mono

    def recording(mono, slots=2):
        spread.append(mono)
        return real(mono, slots)

    monkeypatch.setattr(adt_dgla, "coproduct_mono", recording)
    brace(P, [Q])
    assert kept in spread and dropped not in spread


def _is_pbw(E):
    return all(list(w) == sorted(w) for key in E.keys() for w in key)


@pytest.mark.parametrize("uea_name", ORACLE_ALGEBRAS)
def test_kernel_outputs_have_pbw_words(request, uea_name):
    """b, cup and brace of elements with PBW keys, and `parse_twist` of
    words written in any order, hold only PBW monomials."""
    uea = request.getfixturevalue(uea_name)
    rng = random.Random(39)
    P = _shaped_element(uea, 2, 0, rng)
    Q = _shaped_element(uea, 1, 0, rng)
    R = _shaped_element(uea, 0, 1, rng)
    assert all(map(_is_pbw, (P, Q, R)))
    for E in (differential_b(P), differential_b(Q), differential_b(R),
              cup(P, Q), cup(Q, P), cup(R, Q), brace(P, [Q]),
              brace(P, [Q, Q]), brace(Q, [P]), brace(P, [R, Q])):
        assert _is_pbw(E) and not E.is_zero()
    names = uea.lie.basis_names
    lines = ["twist", "arity 2", f"order {N}"]
    unsorted = 0
    for n in range(N + 1):
        lines.append(f"hbar {n}")
        for key, a in P.layer(n).items():
            words = [w[::-1] for w in key]
            unsorted += sum(w != v for w, v in zip(words, key))
            slots = " | ".join(".".join(names[i] for i in w) or "1"
                               for w in words)
            lines.append(f"term {a} * ({slots})")
    lines.append("end")
    K = schema.parse_twist("\n".join(lines) + "\n", uea)
    assert unsorted and _is_pbw(K) and not K.is_zero()


def test_b_vector_reads_the_memo_of_b_but_does_not_fill_it(sl2_uea,
                                                           monkeypatch):
    monkeypatch.setattr(adt_dgla, "_b_memo", {})
    for arity, length in ((1, 3), (2, 4)):
        for v in invariant_adt_basis(sl2_uea, arity, length):
            den, col = adt_dgla.b_vector(v)
            assert not adt_dgla._b_memo
            want = differential_b(AdtElement(sl2_uea, arity, v, 0)).layer(0)
            assert list(want.items()) == [(k, F(a, den))
                                          for k, a in col.items()]
            assert adt_dgla._b_memo  # differential_b fills it
            assert adt_dgla.b_vector(v) == (den, col)
            adt_dgla._b_memo.clear()


def _unstraight_leg_pairs(K):
    """Pairs of K's layer terms within its order whose legs multiply to
    a word that is not a PBW monomial, so that S(leg legg) straightens."""
    terms = K.layer_terms()
    return sum(
        1 for k1, _, n1 in terms for k2, _, n2 in terms
        if n1 + n2 <= K.order
        and k1[-1] + k2[-1] not in K.uea.straighten(k1[-1] + k2[-1])
    )


@pytest.mark.parametrize("uea_name", ORACLE_ALGEBRAS)
def test_layered_residual_matches_hseries_reference(request, uea_name):
    uea = request.getfixturevalue(uea_name)
    unstraight = 0
    for rng, rational in _draws(34):
        inputs = _oracle_inputs(uea, rng, 2, unit=True, rational=rational)
        for i, K in enumerate(inputs):
            ref = reference_kernels.adte_residual(K)
            _agree(adte_residual(K), ref, N if i == 1 else None)
            for n in range(K.order + 1):
                layer = adte_residual_layer(K, n)
                assert layer == ref.layer(n)
                assert all(map(is_canonical, layer.values()))
            unstraight += _unstraight_leg_pairs(K)
    # the base of nonab is not abelian: some leg products straighten
    if uea_name == "nonab_uea":
        assert unstraight


def test_residual_matches_reference_on_the_solved_sl2_twist():
    # the solver's order-4 twist has legs up to h^3; its residual is
    # zero, and changing its top layers gives nonzero rational ones
    lie = schema.parse_algebra(schema.load_file(CORPUS / "sl2.alg"))
    body = schema.parse_rmatrix(schema.load_file(CORPUS / "sl2.rmat"),
                                lie, 4)
    uea = UEnvelope(lie)
    K = solve_adte(RMatrix(lie, body), 4, uea=uea).K
    assert max(len(key[-1]) for key in K.terms) == 3
    changed = [
        K,
        K + K.hbar_component(4).shift(4),
        K + K.hbar_component(3).shift(3).scale(F(1, 2)),
    ]
    for i, Ki in enumerate(changed):
        ref = reference_kernels.adte_residual(Ki)
        assert ref.is_zero() == (i == 0)
        _agree(adte_residual(Ki), ref)
        for n in range(Ki.order + 1):
            assert adte_residual_layer(Ki, n) == ref.layer(n)


# -- the residual's factor memo ---------------------------------------------
#
# `_adte_pairs` keeps its X, Y and S factors per algebra, in
# `UEnvelope._adte_factors`, so every residual over one envelope reads
# the factors earlier residuals built.  Each entry must be the factor of
# its keys, whatever residual built it, and a residual must not depend
# on what the memo holds.


@pytest.mark.parametrize("name", ["sl2", "sl2half", "affxc2"])
def test_residual_matches_reference_with_a_cold_or_warm_factor_memo(name):
    uea = UEnvelope(_lie(name))
    inputs = []
    for rng, rational in _draws(35):
        inputs += _oracle_inputs(uea, rng, 2, unit=True, rational=rational)
    assert not any(uea._adte_factors)
    for _ in range(2):  # with the memo cold, then warm
        for K in inputs:
            ref = reference_kernels.adte_residual(K)
            _agree(adte_residual(K), ref)
            for n in range(K.order + 1):
                assert adte_residual_layer(K, n) == ref.layer(n)
        assert all(uea._adte_factors)


def _reference_factor(lie, memo, w, l1, l2, r1, r2):
    """X or Y from the Fraction straightening and the positional coproduct."""
    acc: dict = {}
    for (p1, p2), mult in reference_kernels.coproduct_by_position(
            w, 2).items():
        for m1, c1 in reference_kernels.straighten(
                lie, l1 + p1 + r1, memo).items():
            for m2, c2 in reference_kernels.straighten(
                    lie, l2 + p2 + r2, memo).items():
                add_into(acc, (m1, m2), mult * c1 * c2)
    return acc


@pytest.mark.parametrize("name", ["sl2", "affxc2"])
def test_factor_memo_holds_fresh_factors_after_suite_and_solve(
        name, monkeypatch):
    # the suite's envelope, then a solve over the same envelope
    made = []

    def envelope(lie):
        made.append(UEnvelope(lie))
        return made[-1]

    lie = _lie(name)
    monkeypatch.setattr(props, "UEnvelope", envelope)
    assert all(ok for _, ok, _ in props.standard_suite(lie, seed=3))
    [uea] = made
    body = schema.parse_rmatrix(
        schema.load_file(CORPUS / f"{name}.rmat"), lie, N)
    solve_adte(RMatrix(lie, body), N, uea=uea)
    X, Y, S = uea._adte_factors
    assert X and Y and S
    memo: dict = {}

    def same(got, want):
        assert dict(got) == want
        assert all(c and is_canonical(c) for _, c in got)

    for (f, g1, g2), got in X.items():
        same(got, _reference_factor(lie, memo, f, (), (), g1, g2))
    for (f2, leg, legg), got in Y.items():
        same(got, _reference_factor(lie, memo, legg, f2, leg, (), ()))
    for (leg, legg), got in S.items():
        same(got, {(m,): c for m, c in reference_kernels.straighten(
            lie, leg + legg, memo).items() if c})


@pytest.mark.parametrize("uea_name", ORACLE_ALGEBRAS)
def test_layered_adt_mul_matches_hseries_reference(request, uea_name):
    uea = request.getfixturevalue(uea_name)
    for rng, rational in _draws(35):
        for arity in (1, 2):
            As = _oracle_inputs(uea, rng, arity, rational=rational)
            Bs = _oracle_inputs(uea, rng, arity, rational=rational)
            pairs = list(zip(As, Bs)) + [(As[2], Bs[1])]
            for i, (A, B) in enumerate(pairs):
                _agree(adt_mul(A, B), reference_kernels.adt_mul(A, B),
                       N if i == 1 else None)


@pytest.mark.parametrize("uea_name", ORACLE_ALGEBRAS)
def test_every_stored_coefficient_is_canonical(request, uea_name):
    """Each kernel stores an int when a value is integral, else a Fraction.

    Never a float, and never a Fraction with denominator 1: b, cup,
    brace, the residual and its layers, adt_mul on the oracle inputs
    (integer and rational draws), and kappa_solve and the quantum
    homotopy on layered invariant elements with rational coefficients.
    Every stored coefficient series has exactly its element's order.
    """
    uea = request.getfixturevalue(uea_name)
    values = []

    def stored(E):
        assert all(c.order == E.order for c in E.terms.values())
        values.extend(a for c in E.terms.values() for a in c.coeffs)

    for rng, rational in _draws(36):
        Ps = _oracle_inputs(uea, rng, 2, terms=5, rational=rational)
        Qs = _oracle_inputs(uea, rng, 1, terms=4, rational=rational)
        Ks = _oracle_inputs(uea, rng, 2, unit=True, rational=rational)
        for P, Q, K in zip(Ps, Qs, Ks):
            for E in (differential_b(P), cup(P, Q), brace(P, [Q]),
                      adt_mul(P, P), adte_residual(K)):
                stored(E)
            for n in range(K.order + 1):
                values.extend(adte_residual_layer(K, n).values())
        # mixed orders truncate to the smaller one
        for P, Q in ((Ps[1], Qs[2]), (Ps[2], Qs[1])):
            for E in (cup(P, Q), brace(P, [Q])):
                stored(E)
        stored(adt_mul(Ps[1], Ps[2]))
    h = linfinity.quantum_contraction(uea, 0).h
    rng = random.Random(36)
    for arity in (1, 2, 1, 2):
        u = _layered_invariant(uea, rng, arity, N)
        stored(u)
        stored(kappa_solve(uea, differential_b(u)))
        stored(h(u))
    assert all(map(is_canonical, values))
    assert {type(a) for a in values} == {int, F}


# -- memos of the identities path ------------------------------------------
#
# `UmSplitter.um_mono` shares each monomial's U m part between the calls
# of `p2_project`, and the quantum homotopy keeps the columns of each
# decomposition system.  Each must stay what a fresh computation gives.


def _lie(name):
    if name == "sl2half":
        return sl2half_data()
    return schema.parse_algebra(schema.load_file(CORPUS / f"{name}.alg"))


def _fresh_um(uea, mono):
    return UmSplitter(uea).split({mono: F(1)})[1]


@pytest.mark.parametrize("name", ["sl2", "nonab", "affxc2", "sl2half"])
def test_memoized_um_part_is_a_fresh_split(name):
    uea = UEnvelope(_lie(name))
    splitter = UmSplitter(uea)
    monos = all_monomials(uea.lie.dim, 3)
    for mono in monos:
        splitter.um_mono(mono)
    for mono in monos:
        got = splitter.um_mono(mono)
        assert got is splitter._um_memo[mono]
        assert list(got.items()) == list(_fresh_um(uea, mono).items())


@pytest.mark.parametrize("name", ["sl2", "affxc2"])
def test_identities_memos_are_unchanged_by_the_suite(name, monkeypatch):
    made = []

    def contraction(uea, order):
        made.append(linfinity.quantum_contraction(uea, order))
        return made[-1]

    monkeypatch.setattr(props, "quantum_contraction", contraction)
    results = props.standard_suite(_lie(name), seed=3)
    assert all(ok for _, ok, _ in results), results
    h = made[0].h
    uea = h.uea
    assert h.splitter._um_memo
    for mono, got in h.splitter._um_memo.items():
        assert list(got.items()) == list(_fresh_um(uea, mono).items())
    complements = [key for key in h._cache if key[0] == "A"]
    assert complements
    for _, k, L in complements:
        A, images = h._cache["A", k, L]
        ref_A, ref_images = reference_kernels.complement(h, k, L)
        assert _items(A) == _items(a.layer(0) for a in ref_A)
        assert _items(images) == _items(ref_images)
    decomposed = [key for key in h._cache if key[0] == "D"]
    assert decomposed
    for _, k, L in decomposed:
        A_terms, system = h._cache["D", k, L]
        A_lower, ref = (reference_kernels.complement(h, k - 1, L) if k >= 1
                        else ([], []))
        ref += [a.layer(0) for a in reference_kernels.complement(h, k, L)[0]]
        assert _items(system.columns) == _items(ref)
        assert _items(A_terms) == _items(a.layer(0) for a in A_lower)
        fresh = linalg.Factorization(ref)
        for attr in ("row_of", "uses", "pivots", "scales"):
            assert getattr(system, attr) == getattr(fresh, attr)


def _items(dicts):
    """Each dict's (key, value, value type) items, in order."""
    return [[(k, v, type(v)) for k, v in d.items()] for d in dicts]


@pytest.mark.parametrize("name", ["sl2", "affxc2", "sl2half"])
def test_dict_built_complement_equals_the_element_built_one(name):
    # values and key order of x - p(x) and of its q1 image, at every
    # arity up to 3 and length up to 4
    uea = UEnvelope(_lie(name))
    h = linfinity.quantum_contraction(uea, 0).h
    nonzero = 0
    for k in range(4):
        for L in range(5):
            A, images = h._complement(k, L)
            ref_A, ref_images = reference_kernels.complement(h, k, L)
            assert _items(A) == _items(a.layer(0) for a in ref_A)
            assert _items(images) == _items(ref_images)
            nonzero += len(A)
    assert nonzero


def _homotopy_inputs(uea, name):
    """12 seeded invariant u, each followed by b(u)."""
    rng = random.Random(f"homotopy-{name}")
    for _ in range(12):
        arity = rng.randrange(1, 3)
        basis = invariant_adt_basis(uea, arity, rng.randrange(1, 4))
        if not basis:
            continue
        u = AdtElement(uea, arity, dict(rng.choice(basis)), 0).scale(
            F(rng.choice([-2, -1, 1, 2])))
        yield u
        yield differential_b(u)


@pytest.mark.parametrize("name", ["sl2", "affxc2", "sl2half"])
def test_memoized_quantum_homotopy_equals_a_recomputing_one(name):
    # the reference sees the same inputs but recomputes every U m part,
    # complement, q1 image, decomposition column and factorization on
    # every call, and solves each system by a whole elimination
    uea = UEnvelope(_lie(name))
    h = linfinity.quantum_contraction(uea, 0).h
    ref = linfinity.quantum_contraction(uea, 0).h
    checked = 0
    for x in _homotopy_inputs(uea, name):
        got = h(x)
        ref.splitter._um_memo.clear()
        want = reference_kernels.quantum_homotopy(ref, x)
        assert got.arity == want.arity
        assert list(ring_terms(got).items()) == list(ring_terms(want).items())
        checked += not got.is_zero()
    assert checked


@pytest.mark.parametrize("name", ["sl2", "affxc2"])
def test_decomposition_outside_the_columns_span_fails(name):
    # the factored systems still check each answer by its image: a key
    # in the image of p lies outside the kernel N that the columns span,
    # alone and in the hbar^1 layer of an input whose hbar^0 layer
    # decomposes
    uea = UEnvelope(_lie(name))
    h = linfinity.quantum_contraction(uea, 0).h
    m = uea.lie.m_indices[0]
    checked = 0
    for y in _homotopy_inputs(uea, name):
        yn = y - adt_dgla.p2_project(h.splitter, y)
        if yn.is_zero():
            continue
        k, L = yn.arity, max(yn.total_lengths())
        h._decompose(k, L, yn)  # in the span; factors the system
        outside = AdtElement(uea, k, {((m,),) + ((),) * k: 1}, 0)
        assert adt_dgla.p2_project(h.splitter, outside) == outside
        layered = (AdtElement(uea, k, yn.layer(0), 1)
                   + AdtElement(uea, k, outside.layer(0), 1).shift(1))
        for x in (outside, layered):
            with pytest.raises(ContractFailure):
                h._decompose(k, L, x)
        checked += 1
    assert checked


@pytest.mark.parametrize("name", ["sl2", "affxc2"])
def test_quantum_homotopy_is_one_linear_map(name):
    # a contraction that has seen the earlier inputs and a fresh one
    # give the same h(x) on every input
    uea = UEnvelope(_lie(name))
    used = linfinity.quantum_contraction(uea, 0).h
    checked = 0
    for x in _homotopy_inputs(uea, name):
        got = used(x)
        want = linfinity.quantum_contraction(uea, 0).h(x)
        assert got.arity == want.arity
        assert list(ring_terms(got).items()) == list(ring_terms(want).items())
        checked += not got.is_zero()
    assert checked


def test_quantum_homotopy_solves_every_hbar_order(sl2_uea):
    # the contraction's order sets its dgla, not how many hbar layers
    # of the input h solves: h(hbar (e.f | 1)) = hbar h / 2 at order 2
    x = AdtElement(sl2_uea, 1, {((0, 2), ()): HSeries.hbar(2, 1, F(1))}, 2)
    want = AdtElement(sl2_uea, 0, {((1,),): HSeries.hbar(2, 1, F(1, 2))}, 2)
    for order in (0, 2):
        got = linfinity.quantum_contraction(sl2_uea, order).h(x)
        assert got.order == 2
        assert got == want
