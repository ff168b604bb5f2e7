import random

import pytest

from dyntwist.props import _rand_adt, standard_suite

import reference_kernels

EXPECTED = [
    "d_squared",
    "d_leibniz",
    "b_squared",
    "cup_leibniz",
    "brace_relations",
    "delta_homotopy",
    "kappa",
    "adte_modes",
    "cohomology",
]


def test_standard_suite_passes(ab2):
    results = standard_suite(ab2, seed=5)
    assert [name for name, _, _ in results] == EXPECTED
    for name, ok, detail in results:
        assert ok, f"{name}: {detail}"


def test_suite_is_deterministic_in_the_seed(ab2):
    a = standard_suite(ab2, seed=5)
    b = standard_suite(ab2, seed=5)
    assert a == b


@pytest.mark.parametrize("uea_name", ["sl2_uea", "aff_uea", "sl2half_uea"])
def test_pooled_draws_equal_per_draw_pools(request, uea_name):
    # a check builds each key pool once; the draws must be those of a
    # pool enumerated for every draw
    uea = request.getfixturevalue(uea_name)
    for seed in range(3):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        pools: dict = {}
        for _ in range(30):
            arity = rng.randrange(0, 3)
            assert ref_rng.randrange(0, 3) == arity
            order = rng.randrange(0, 3)
            assert ref_rng.randrange(0, 3) == order
            got = _rand_adt(uea, rng, arity, 2, order, pools=pools)
            want = reference_kernels.rand_adt(uea, ref_rng, arity, 2, order)
            assert (got.arity, got.order) == (want.arity, want.order)
            assert list(got.terms.items()) == list(want.terms.items())
        assert sorted(pools) == [(0, 2), (1, 2), (2, 2)]
