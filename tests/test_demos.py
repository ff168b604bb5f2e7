"""Smoke test: every script under demos/ runs and prints its verdicts."""

import os
import subprocess
import sys

import pytest

from conftest import CORPUS

DEMOS = CORPUS.parent / "demos"
VERDICTS = {
    "classical_reduction.py": ["round trip certified: True"],
    "gauge_classes.py": ["gauge equivalent: True"],
    "quantize_sl2.py": ["equation residual zero: True"],
}


def test_every_demo_has_verdicts():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(VERDICTS)


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(CORPUS.parent / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for verdict in VERDICTS[name]:
        assert verdict in lines
