"""The benchmark's tracer still binds every name it traces in dyntwist.

The suite collects only tests/, so without this test a refactor that
moves or renames a traced function (or the constructor API the benchmark
inputs use) would fail only in a traced benchmark run.
"""

import pathlib
import random
import sys
from fractions import Fraction

import pytest

from dyntwist import AdtElement, UEnvelope, adt_dgla, linfinity, schema

from conftest import adt_is_invariant, mixed_element

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    import layers
    import tracer

    return inputs, layers, tracer


def _resolve(target):
    owner = sys.modules[f"dyntwist.{target.module}"]
    for part in target.qualname.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_binds_every_target(perfbench):
    inputs, layers, tracer = perfbench
    import dyntwist.cli  # noqa: F401  (loads every traced module)

    lie = schema.parse_algebra(inputs.AFF_ALG)
    uea = UEnvelope(lie)
    t = tracer.Tracer()
    t.install(layers.TARGETS)
    try:
        for target in layers.TARGETS:
            assert hasattr(_resolve(target), "__wrapped__"), target.name
        # the benchmark builds its gauge elements with this call shape
        Q = inputs.gauge_element(uea, 2, 0, inputs.GAUGE_LENGTHS["affxc2"])
        adt_dgla.adte_residual(AdtElement.unit(uea, 2, 2))
    finally:
        t.uninstall()
    for target in layers.TARGETS:
        assert not hasattr(_resolve(target), "__wrapped__"), target.name
    assert Q.arity == 1
    assert Q.hbar_component(0) == AdtElement.unit(uea, 1, 2)
    assert adt_is_invariant(Q)
    metrics = layers.rename(t.metrics())
    assert metrics["hseries.HSeries.constructed"] > 0
    assert metrics["adt_dgla.adte_residual.calls"] == 1
    assert metrics["adt_dgla.adte_residual.pairs"] == 1


def test_traced_homotopy_reaches_rref(perfbench, sl2_uea):
    """The identities workload reads linalg.rref through the homotopy."""
    _, layers, tracer = perfbench
    t = tracer.Tracer()
    t.install(layers.TARGETS)
    try:
        h = linfinity.quantum_contraction(sl2_uea, 0).h
        y = h(AdtElement(sl2_uea, 1, {((0, 2), ()): Fraction(1)}, 0))
    finally:
        t.uninstall()
    assert y == AdtElement(sl2_uea, 0, {((1,),): Fraction(1, 2)}, 0)
    metrics = layers.rename(t.metrics())
    assert metrics["linfinity.quantum_contraction.h.calls"] == 1
    assert metrics["linalg.rref.calls"] > 0


def test_traced_residual_reads_the_straightening_cache(perfbench, sl2_uea):
    """The integer kernels straighten through the traced `straighten`."""
    _, layers, tracer = perfbench
    import dyntwist.cli  # noqa: F401  (loads every traced module)

    K = mixed_element(sl2_uea, random.Random(3), 2, 2)
    adt_dgla.adte_residual(K)  # every word is cached from here on
    t = tracer.Tracer()
    t.install(layers.TARGETS)
    try:
        adt_dgla.adte_residual(K)
    finally:
        t.uninstall()
    metrics = layers.rename(t.metrics())
    assert metrics["uea.UEnvelope.straighten.calls"] > 0
