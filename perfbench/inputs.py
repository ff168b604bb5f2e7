"""Seeded inputs for the benchmark workloads.

Every document is a pure function of the seed: `draw` picks the r-matrix
family members and gauge seeds with `random.Random(seed)`, and
`write_inputs` turns them into algebra, r-matrix and twist files.
Rationals are drawn from small fixed sets so that different seeds cost
alike.

The families are solutions by construction:

- sl2 with the Cartan line as base: rho = e^f / (a - lambda), expanded
  as the geometric series sum_d a^-(d+1) lambda^d e^f up to leg degree 4;
- aff(1) x C^2 with the central base: c x^y + p(h1, h2) h1^h2, where p is
  any polynomial of degree <= 4 (every term is closed and every square
  vanishes because the base is central).  p has one monomial per degree,
  of fixed shape (AFF_LEGS); only the coefficients are drawn.

The non-solution control is an sl2 member whose degree-1 coefficient is
doubled, which breaks the recursion a^-(d+1) below the truncation.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

SL2_ALG = """\
# sl2 with the Cartan line as base subalgebra.
algebra
dim 3
basis e h f
h_indices 1
mode reductive
bracket 0 1 -> (-2, 0)
bracket 1 2 -> (-2, 2)
bracket 0 2 -> (1, 1)
end
"""

AFF_ALG = """\
# aff(1) ([x,y] = y) times a central two-dimensional abelian base.
algebra
dim 4
basis x y h1 h2
h_indices 2 3
mode abelian_base
bracket 0 1 -> (1, 1)
end
"""

LEG_DEGREE = 4
# (h1 exponent, h2 exponent) of the monomial of each degree in p
AFF_LEGS = ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2))
SMALL = [Fraction(n, d) for n, d in
         ((1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2), (3, 2), (-3, 2))]
# a for the two sl2 members, drawn without replacement so they differ
SL2_A = [Fraction(n, d) for n, d in
         ((1, 1), (-1, 1), (2, 1), (-2, 1), (3, 2), (-3, 2), (1, 2), (-1, 2))]

# gauge elements: 1 + sum_n hbar^n q_n, where q_n is a combination with
# drawn SMALL coefficients of every invariant arity-1 basis vector of
# total length 1..GAUGE_LENGTHS[n - 1].  Using the full basis fixes the
# shape of Q, so that only coefficients change with the seed and seeds
# cost alike; the lengths size the classify workload.
GAUGE_LENGTHS = {"sl2": (1, 3, 1), "affxc2": (1, 1)}

SOLVE_ORDERS = {"sl2": 3, "affxc2": 2}
CLASSIFY_ORDERS = {"sl2": 3, "affxc2": 2, "noneq": 2}
REDUCE_ORDERS = {"sl2": 5, "affxc2": 6}


def _leg(word):
    return ".".join(word) or "1"


def sl2_rmatrix(a, broken=False):
    lines = ["# sl2 member rho = e^f / (a - lambda), a = %s" % a, "rmatrix"]
    for d in range(LEG_DEGREE + 1):
        c = 1 / a ** (d + 1)
        if broken and d == 1:
            c *= 2
        lines.append(f"term {c} * e^f * {_leg(['h'] * d)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def aff_rmatrix(c, poly):
    """poly: [(coefficient, h1 exponent, h2 exponent)]."""
    lines = ["# aff(1) x C^2 member c x^y + p(h1, h2) h1^h2", "rmatrix",
             f"term {c} * x^y * 1"]
    for coeff, i, j in poly:
        lines.append(f"term {coeff} * h1^h2 * {_leg(['h1'] * i + ['h2'] * j)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def draw(seed):
    """The seeded choices behind every document of one benchmark seed."""
    rng = random.Random(seed)
    a, a_other = rng.sample(SL2_A, 2)
    c = rng.choice(SMALL)
    poly = [(rng.choice(SMALL), i, j) for i, j in AFF_LEGS]
    return {
        "a": a,
        "a_other": a_other,
        "c": c,
        "poly": poly,
        "gauge_seed": {"sl2": rng.randrange(2**32),
                       "affxc2": rng.randrange(2**32)},
        "prop_seed": rng.randrange(1000),
    }


def rmatrix_documents(choice):
    return {
        "sl2.rmat": sl2_rmatrix(choice["a"]),
        "sl2_other.rmat": sl2_rmatrix(choice["a_other"]),
        "control.rmat": sl2_rmatrix(choice["a"], broken=True),
        "affxc2.rmat": aff_rmatrix(choice["c"], choice["poly"]),
    }


def gauge_element(uea, order, seed, lengths):
    """Q = 1 + O(hbar), seeded from the full arity-1 invariant basis."""
    from dyntwist import AdtElement, HSeries
    from dyntwist.adt_dgla import invariant_adt_basis

    rng = random.Random(seed)
    Q = AdtElement.unit(uea, 1, order)
    for n in range(1, order + 1):
        for length in range(1, lengths[n - 1] + 1):
            for vec in invariant_adt_basis(uea, 1, length):
                Q = Q + AdtElement(uea, 1, dict(vec), order).scale(
                    HSeries.hbar(order, n, rng.choice(SMALL))
                )
    return Q


def _quantize(alg_text, rmat_text, order):
    from dyntwist import RMatrix, UEnvelope, schema, solve_adte

    lie = schema.parse_algebra(alg_text)
    rho = RMatrix(lie, schema.parse_rmatrix(rmat_text, lie, order))
    uea = UEnvelope(lie)
    return uea, solve_adte(rho, order, uea=uea).K


def write_inputs(workload, seed, directory):
    """Write the documents `workload` needs; return (draws, {name: path}).

    For `classify` this quantizes the drawn members and applies the drawn
    gauge elements, which is the only solving done before timing.
    """
    from dyntwist import schema
    from dyntwist.gauge import gauge_act_algebraic

    choice = draw(seed)
    docs = {"sl2.alg": SL2_ALG, "affxc2.alg": AFF_ALG}
    docs.update(rmatrix_documents(choice))
    if workload == "classify":
        algs = {"sl2": SL2_ALG, "affxc2": AFF_ALG}
        for name in ("sl2", "affxc2"):
            order = CLASSIFY_ORDERS[name]
            uea, K = _quantize(algs[name], docs[f"{name}.rmat"], order)
            Q = gauge_element(uea, order, choice["gauge_seed"][name],
                              GAUGE_LENGTHS[name])
            docs[f"{name}_K.twist"] = schema.dump_twist(K)
            docs[f"{name}_KQ.twist"] = schema.dump_twist(
                gauge_act_algebraic(Q, K))
        order = CLASSIFY_ORDERS["noneq"]
        for name in ("sl2", "sl2_other"):
            _, K = _quantize(SL2_ALG, docs[f"{name}.rmat"], order)
            docs[f"noneq_{name}.twist"] = schema.dump_twist(K)
    paths = {}
    for name, text in docs.items():
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[name] = path
    return choice, paths
