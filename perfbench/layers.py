"""The dyntwist layers the traced run times, and how their metrics derive.

Each metric is `<module>.<function>.<stat>`: `calls`, `s` (inclusive, a
recursive call counted once) and `self_s` (minus wrapped children).
Constructors and cached helpers are counted only.  `derived` adds the
ratios, which need counters summed over every command first.
"""

from __future__ import annotations

from tracer import Target

PROPS_CHECKS = (
    "check_d_squared", "check_d_leibniz", "check_b_squared",
    "check_cup_leibniz", "check_brace_relations", "check_delta_homotopy",
    "check_kappa", "check_adte_modes", "check_cohomology",
)


def _adte_pairs(tracer, args):
    """Term pairs of K, and those whose hbar valuations sum to <= order."""
    K = args[0]
    order = K.order
    counts = [0] * (order + 1)
    for c in K.terms.values():
        v = c.valuation()
        if v is not None and v <= order:
            counts[v] += 1
    useful = 0
    for v1, n1 in enumerate(counts):
        for v2 in range(order - v1 + 1):
            useful += n1 * counts[v2]
    n = len(K.terms)
    tracer.count("adt_dgla.adte_residual.pairs_useful", useful)
    tracer.count("adt_dgla.adte_residual.pairs", n * n)


def _straighten_miss(tracer, args):
    uea, word = args[0], args[1]
    if tuple(word) not in uea._straight_cache:
        tracer.count("uea.UEnvelope.straighten.misses")


def _rref_rows(tracer, args):
    tracer.count("linalg.rref.rows_in", len(args[0]))


def _wrap_homotopy(tracer, contraction):
    """Time the homotopy h of the contraction quantum_contraction returns."""
    contraction.h = tracer.timed("linfinity.quantum_contraction.h",
                                 contraction.h, record_spans=False)
    return contraction


TARGETS = [
    Target("schema", "parse_rmatrix"),
    Target("schema", "parse_twist"),
    Target("schema", "dump_twist"),
    Target("quantizer", "solve_adte"),
    Target("quantizer", "k_to_j"),
    Target("quantizer", "dte_residual"),
    Target("quantizer", "semiclassical_check"),
    Target("adt_dgla", "adte_residual", "hot", on_call=_adte_pairs),
    Target("adt_dgla", "kappa_solve", "hot"),
    Target("adt_dgla", "differential_b", "hot"),
    Target("adt_dgla", "invariant_adt_basis", "hot"),
    Target("adt_dgla", "brace", "hot"),
    Target("adt_dgla", "cup", "hot"),
    Target("uea", "UEnvelope.straighten", "hot", on_call=_straighten_miss),
    Target("uea", "UmSplitter.split", "hot"),
    Target("uea", "coproduct_mono", "count"),
    Target("linalg", "rref", "hot", on_call=_rref_rows),
    Target("linalg", "solve", "hot"),
    Target("linalg", "kernel_basis", "hot"),
    Target("linalg", "rank", "hot"),
    Target("lie_core", "invariant_basis", "hot"),
    Target("hseries", "HSeries.__init__", "count"),
    Target("tensor_spaces", "CdybElement.__init__", "count"),
    Target("gauge", "find_gauge"),
    Target("gauge", "gauge_act_algebraic", "hot"),
    Target("gauge", "adt_mul", "hot"),
    Target("gauge", "adt_inverse", "hot"),
    Target("gauge", "reduce_classical"),
    Target("gauge", "classical_find_gauge"),
    Target("linfinity", "mc_transport"),
    Target("linfinity", "invert_contraction"),
    Target("linfinity", "MorphismTower.apply", "hot"),
    Target("linfinity", "quantum_contraction", on_return=_wrap_homotopy),
    Target("cdyb_dgla", "bracket", "hot"),
    Target("cdyb_dgla", "cdybe_residual", "hot"),
    Target("cdyb_dgla", "delta_homotopy", "hot"),
] + [Target("props", name) for name in PROPS_CHECKS]

# constructor counts are reported as `<class>.constructed`
RENAMED = {
    "hseries.HSeries.__init__.calls": "hseries.HSeries.constructed",
    "tensor_spaces.CdybElement.__init__.calls":
        "tensor_spaces.CdybElement.constructed",
}


def rename(metrics):
    return {RENAMED.get(key, key): value for key, value in metrics.items()}


def derived(totals):
    """Ratios over summed counters (0 where the layer never ran)."""
    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    out["adt_dgla.adte_residual.useful_pair_ratio"] = ratio(
        totals.get("adt_dgla.adte_residual.pairs_useful", 0),
        totals.get("adt_dgla.adte_residual.pairs", 0))
    calls = totals.get("uea.UEnvelope.straighten.calls", 0)
    out["uea.UEnvelope.straighten.hit_ratio"] = (
        1.0 - ratio(totals.get("uea.UEnvelope.straighten.misses", 0), calls)
        if calls else 0.0)
    return out


# quantum_contraction is wrapped only to reach the homotopy it returns
UNREPORTED = {"linfinity.quantum_contraction"}
EXTRA = [
    ("linfinity.quantum_contraction.h.calls", "count", "lower"),
    ("linfinity.quantum_contraction.h.s", "s", "lower"),
    ("linfinity.quantum_contraction.h.self_s", "s", "lower"),
    ("adt_dgla.adte_residual.useful_pair_ratio", "ratio", "higher"),
    ("uea.UEnvelope.straighten.hit_ratio", "ratio", "higher"),
    ("linalg.rref.rows_in", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def per_layer_metrics():
    """[(name, unit, better)] for every per-layer metric, in report order."""
    out = []
    for t in TARGETS:
        if t.name in UNREPORTED:
            continue
        if t.kind == "count":
            key = f"{t.name}.calls"
            out.append((RENAMED.get(key, key), "count", "lower"))
        elif t.module == "props":
            out.append((f"{t.name}.s", "s", "lower"))
        else:
            out += [(f"{t.name}.calls", "count", "lower"),
                    (f"{t.name}.s", "s", "lower"),
                    (f"{t.name}.self_s", "s", "lower")]
    return out + EXTRA
