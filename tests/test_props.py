import random

import pytest

from dyntwist import AdtElement, CdybElement, cdyb_dgla, props
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


def _suite(leibniz_pairs, kappa_samples, dims):
    return [
        ("d_squared", True, "d^2 = 0 on all invariant basis elements"),
        ("d_leibniz", True,
         f"Leibniz holds on {leibniz_pairs} invariant pairs"),
        ("b_squared", True, "b^2 = 0 on all bounded basis elements"),
        ("cup_leibniz", True, "cup Leibniz holds on 200 seeded pairs"),
        ("brace_relations", True, "brace identities hold on 100 seeded pairs"),
        ("delta_homotopy", True,
         "contracting homotopy identities hold on all monomials"),
        ("kappa", True,
         f"kappa recomputation passed on {kappa_samples} samples"),
        ("adte_modes", True, "residual modes agree on 100 seeded twists"),
        ("cohomology", True,
         f"cohomology dims {dims} match on both complexes"),
    ]


# sl2half has the rational structure constant 1/2, so its kernels keep
# the checked path of `from_layers`; nonab's base letters move.  The
# sl2 and affxc2 suites are pinned by their stdout digests in test_cli.
@pytest.mark.parametrize("name, seed, want", [
    ("sl2half", 0, _suite(54, 19, [1, 0, 1, 0])),
    ("sl2half", 7, _suite(54, 19, [1, 0, 1, 0])),
    ("nonab", 0, _suite(9, 20, [1, 2, 1, 0])),
    ("nonab", 7, _suite(9, 19, [1, 2, 1, 0])),
])
def test_suite_results_are_pinned(request, name, seed, want):
    uea = request.getfixturevalue(f"{name}_uea")
    assert uea.integral == (name == "nonab")
    assert standard_suite(uea.lie, seed=seed) == want


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


# -- a broken kernel makes its check fail -------------------------------------
#
# Each check compares two sides with `==`.  With one kernel that the
# check calls made to add a fixed nonzero term to its output, the check
# must report the failure.


def _plus_unit(kernel):
    """kernel with 1 (x) ... (x) 1 added to its AdtElement output."""
    def broken(*args, **kwargs):
        out = kernel(*args, **kwargs)
        return out + AdtElement.unit(out.uea, out.arity, out.order)
    return broken


def _plus_term(kernel):
    """kernel with the monomial ((0,), ()) added to its CdybElement output."""
    def broken(*args, **kwargs):
        out = kernel(*args, **kwargs)
        return out + CdybElement({((0,), ()): 1}, out.order)
    return broken


@pytest.mark.parametrize("check", [
    "cup_leibniz", "brace_relations", "adte_modes", "kappa", "d_leibniz",
    "delta_homotopy",
])
def test_a_broken_kernel_fails_its_check(monkeypatch, sl2, sl2_uea, check):
    if check == "cup_leibniz":
        monkeypatch.setattr(props, "cup", _plus_unit(props.cup))
        ok, detail = props.check_cup_leibniz(sl2_uea, samples=20)
    elif check == "brace_relations":
        monkeypatch.setattr(props, "brace", _plus_unit(props.brace))
        ok, detail = props.check_brace_relations(sl2_uea, samples=20)
    elif check == "adte_modes":
        # only the Maurer-Cartan residual breaks, so the two differ
        monkeypatch.setattr(props, "mc_residual",
                            _plus_unit(props.mc_residual))
        ok, detail = props.check_adte_modes(sl2_uea, samples=5)
    elif check == "kappa":
        monkeypatch.setattr(props, "kappa_solve",
                            _plus_unit(props.kappa_solve))
        ok, detail = props.check_kappa(sl2_uea, samples=5)
    elif check == "d_leibniz":
        monkeypatch.setattr(cdyb_dgla, "bracket",
                            _plus_term(cdyb_dgla.bracket))
        ok, detail = props.check_d_leibniz(sl2)
    else:
        monkeypatch.setattr(cdyb_dgla, "delta_homotopy",
                            _plus_term(cdyb_dgla.delta_homotopy))
        ok, detail = props.check_delta_homotopy(sl2)
    assert ok is False, detail
