"""Tests of the benchmark itself (not of dyntwist).

    python3 -m pytest perfbench -q

Run from the repository root; the package is imported from ./src.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import inputs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bindings():
    """Every function-valued attribute of every loaded dyntwist module and
    every method of its classes, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "dyntwist"
                               or name.startswith("dyntwist.")):
            continue
        for key, value in vars(mod).items():
            if callable(value):
                out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_generator_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    _, pa = inputs.write_inputs("classify", 5, str(a))
    _, pb = inputs.write_inputs("classify", 5, str(b))
    assert sorted(pa) == sorted(pb)
    for name in pa:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    inputs.write_inputs("solve", 6, str(tmp_path))
    assert (tmp_path / "sl2.rmat").read_bytes() != (a / "sl2.rmat").read_bytes() \
        or (tmp_path / "affxc2.rmat").read_bytes() != (a / "affxc2.rmat").read_bytes()


def test_drawn_members_solve_and_control_does_not():
    from dyntwist import RMatrix, schema
    from dyntwist.errors import NotMaurerCartan

    for seed in range(4):
        docs = inputs.rmatrix_documents(inputs.draw(seed))
        sl2 = schema.parse_algebra(inputs.SL2_ALG)
        aff = schema.parse_algebra(inputs.AFF_ALG)
        for name, lie in (("sl2.rmat", sl2), ("sl2_other.rmat", sl2),
                          ("affxc2.rmat", aff)):
            RMatrix(lie, schema.parse_rmatrix(docs[name], lie, 3))
        with pytest.raises(NotMaurerCartan):
            RMatrix(sl2, schema.parse_rmatrix(docs["control.rmat"], sl2, 3))


def test_uninstall_restores_every_binding():
    import dyntwist  # noqa: F401
    import dyntwist.cli  # noqa: F401
    from dyntwist import linalg, linfinity, uea

    before = _bindings()
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    # a name imported into another module is wrapped there too
    assert linfinity.rref is not before[("dyntwist.linalg", "rref")]
    assert linfinity.rref.__wrapped__ is before[("dyntwist.linalg", "rref")]
    assert linalg.rref is linfinity.rref
    assert vars(uea.UEnvelope)["straighten"] is not before[
        ("dyntwist.uea", "UEnvelope", "straighten")]
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_excludes_children():
    ticks = iter([0.0, 1.0, 4.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.timed("m.inner", lambda: None)
    outer = tracer.timed("m.outer", lambda: inner())
    outer()
    m = tracer.metrics()
    assert m["m.outer.s"] == 10.0 and m["m.outer.self_s"] == 7.0
    assert m["m.inner.s"] == 3.0 and m["m.inner.self_s"] == 3.0
    (inner_span, outer_span) = sorted(tracer.spans, key=lambda s: s[2],
                                      reverse=True)
    assert inner_span[4] == outer_span[0]  # parent id


def test_recursive_calls_count_once_in_inclusive_time():
    ticks = iter([0.0, 1.0, 2.0, 5.0])
    tracer = Tracer(clock=lambda: next(ticks))
    calls = []

    def rec(n):
        calls.append(n)
        return wrapped(n - 1) if n else 0

    wrapped = tracer.timed("m.rec", rec, record_spans=False)
    wrapped(1)
    m = tracer.metrics()
    assert m["m.rec.calls"] == 2
    assert m["m.rec.s"] == 5.0
    assert m["m.rec.self_s"] == 5.0
    assert tracer.spans == []


def _traced_counts(tmp_path, tag, argv):
    out = tmp_path / f"{tag}.json"
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--src", SRC,
         "--out", str(out), "--trace", "--", *argv],
        capture_output=True, text=True, cwd=str(tmp_path), env=env,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(out.read_text())["metrics"]
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", ".constructed"))}


def test_traced_counts_repeat_exactly(tmp_path):
    _, paths = inputs.write_inputs("solve", 0, str(tmp_path))
    for argv in (
        ["quantize", "--algebra", paths["sl2.alg"], "--rmatrix",
         paths["sl2.rmat"], "--order", "2", "--out", "K.twist"],
        ["reduce-classical", "--algebra", paths["affxc2.alg"], "--rmatrix",
         paths["affxc2.rmat"], "--order", "4"],
    ):
        first = _traced_counts(tmp_path, "a", argv)
        second = _traced_counts(tmp_path, "b", argv)
        assert first == second
        assert any(v for v in first.values())


def test_traced_run_counts_repeat_exactly():
    def counts():
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "identities", "--seed", "3", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, cwd=ROOT, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        metrics = result["metrics"]
        assert [m for m, _, _ in layers.per_layer_metrics()] == list(metrics)
        return {k: v["value"] for k, v in metrics.items()
                if k.endswith((".calls", ".constructed"))}

    first = counts()
    assert first == counts()
    assert first["linalg.rref.calls"] > 0
    assert first["linfinity.quantum_contraction.h.calls"] > 0


def test_known_defect_counts_as_failure_but_not_as_wrong():
    cmd = workloads.Command("gauge_s", ["gauge-equiv"], workloads.EQUIVALENT,
                            known_defect=workloads.FIND_GAUGE_MISS)
    ok = cmd.judge(0, "gauge equivalent: ok\n", "", False)
    miss = cmd.judge(1, "gauge equivalent: FAIL\nobstruction at order 2: "
                        "AdtElement(...)\n", "", False)
    other = cmd.judge(1, "gauge equivalent: FAIL\nobstruction at order 3: "
                         "AdtElement(...)\n", "", False)
    assert ok[0] == "ok"
    assert miss[0] == "known defect"
    assert other[0] == "failed"
    assert cmd.judge(0, "gauge equivalent: ok\n", "Traceback (most recent "
                     "call last):\n", False)[0] == "failed"
    assert cmd.judge(None, "", "", True) == ("failed", "timeout")


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WHY)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == layers.per_layer_metrics()
    names = [m["name"] for m in bench["end_to_end"]]
    assert "setup_s" in names and "wall_s" in names
