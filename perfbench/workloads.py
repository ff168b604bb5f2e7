"""The four workloads: their timed commands and the verdicts they must give.

Every expected verdict is known by construction of the inputs: the drawn
r-matrices solve the classical equation, the control does not, K' is K
acted on by a gauge element, and two family members with different a
differ already at hbar order 1.

A command fails if its exit code or verdict lines differ from the
expected ones, if it prints a traceback, or if it times out.  A failure
that matches a recorded known defect exactly is still a failure (it
counts in `failed` and `fail_ratio`) but leaves `correct` true; any other
output is an unexpected result and makes the run incorrect.
"""

from __future__ import annotations

import re

import inputs

WHY = {
    "solve": "quantize then verify-twist on sl2 and affxc2: the main user "
             "path, solver writes beside residual reads",
    "classify": "gauge-equiv on seeded gauge-related pairs and one "
                "inequivalent pair: adt_mul, adt_inverse, kappa_solve",
    "reduce": "reduce-classical on sl2 and affxc2: L-infinity towers and "
              "cdyb brackets, no PBW straightening",
    "identities": "prop-suite on sl2: the quantum homotopy and linalg.rref, "
                  "cup, brace and cohomology ranks, never the solver",
}

VERDICT = re.compile(r"^(.+?): (ok|FAIL)(?:\s|$)")


class Expect:
    """Exit code, verdict lines, and text the output must contain."""

    def __init__(self, code, verdicts=(), stdout_has=(), stderr_has=()):
        self.code = code
        self.verdicts = dict(verdicts)
        self.stdout_has = tuple(stdout_has)
        self.stderr_has = tuple(stderr_has)

    def mismatch(self, code, stdout, stderr):
        """None if the output matches, else a one-line reason."""
        if code != self.code:
            return f"exit code {code}, expected {self.code}"
        got = {}
        for line in stdout.splitlines():
            m = VERDICT.match(line)
            if m:
                got[m.group(1)] = m.group(2)
        if got != self.verdicts:
            return f"verdicts {got}, expected {self.verdicts}"
        for text in self.stdout_has:
            if text not in stdout:
                return f"stdout lacks {text!r}"
        for text in self.stderr_has:
            if text not in stderr:
                return f"stderr lacks {text!r}"
        return None


class Command:
    """One timed CLI command; `metric` names the command-time metric."""

    def __init__(self, metric, argv, expect, known_defect=None):
        self.metric = metric
        self.argv = argv
        self.expect = expect
        self.known_defect = known_defect  # (note, Expect) or None

    def judge(self, code, stdout, stderr, timed_out):
        """("ok" | "known defect" | "failed", reason)."""
        if timed_out:
            return "failed", "timeout"
        if "Traceback (most recent call last)" in stderr:
            return "failed", "traceback"
        reason = self.expect.mismatch(code, stdout, stderr)
        if reason is None:
            return "ok", ""
        if self.known_defect is not None:
            note, defect = self.known_defect
            if defect.mismatch(code, stdout, stderr) is None:
                return "known defect", note
        return "failed", reason


RMATRIX_OK = {"invariance and grading": "ok", "residual head": "ok"}
QUANTIZE_OK = {"equation residual": "ok"}
VERIFY_OK = {
    "equation residual": "ok",
    "valuation certificate": "ok",
    "formal equation residual (triangle)": "ok",
    "semiclassical comparison": "ok",
}
REDUCE_OK = {"restricted square": "ok", "round-trip equivalence": "ok"}
PROPS_OK = {name: "ok" for name in (
    "d_squared", "d_leibniz", "b_squared", "cup_leibniz", "brace_relations",
    "delta_homotopy", "kappa", "adte_modes", "cohomology")}
EQUIVALENT = Expect(0, {"gauge equivalent": "ok"})
RESIDUAL_FAILURE = Expect(1, stderr_has=("residual failure",))

# find_gauge skips hbar order 1 when the order-1 difference vanishes,
# which happens when the order-1 part of the gauge element is a cocycle
# such as x (b(x) = 0); it then reports an obstruction at order 2 for a
# pair that is gauge equivalent by construction.
FIND_GAUGE_MISS = (
    "known defect: find_gauge false negative (order-1 cocycle in Q "
    "skipped, obstruction reported at order 2)",
    Expect(1, {"gauge equivalent": "FAIL"},
           stdout_has=("obstruction at order 2",)),
)


def _alg(paths, name):
    return paths["affxc2.alg" if name == "affxc2" else "sl2.alg"]


def prechecks(paths):
    """Untimed: every drawn r-matrix passes check-rmatrix, the control not."""
    out = []
    for name in ("sl2", "sl2_other", "affxc2", "control"):
        argv = ["check-rmatrix", "--algebra", _alg(paths, name),
                "--rmatrix", paths[f"{name}.rmat"]]
        expect = RESIDUAL_FAILURE if name == "control" else Expect(0, RMATRIX_OK)
        out.append(Command("check_s", argv, expect))
    return out


def commands(workload, paths, choice, workdir):
    """The timed commands of one pass, in order."""
    cmds = []
    if workload == "solve":
        for name in ("sl2", "affxc2"):
            cmds.append(Command("quantize_s", [
                "quantize", "--algebra", _alg(paths, name),
                "--rmatrix", paths[f"{name}.rmat"],
                "--order", str(inputs.SOLVE_ORDERS[name]),
                "--out", f"{workdir}/{name}_solved.twist",
            ], Expect(0, QUANTIZE_OK)))
        for name in ("sl2", "affxc2"):
            cmds.append(Command("verify_s", [
                "verify-twist", "--algebra", _alg(paths, name),
                "--rmatrix", paths[f"{name}.rmat"],
                f"{workdir}/{name}_solved.twist",
            ], Expect(0, VERIFY_OK)))
        cmds.append(Command("check_s", [
            "check-rmatrix", "--algebra", paths["sl2.alg"],
            "--rmatrix", paths["control.rmat"],
        ], RESIDUAL_FAILURE))
    elif workload == "classify":
        cmds.append(Command("gauge_s", [
            "gauge-equiv", "--algebra", paths["sl2.alg"],
            paths["sl2_K.twist"], paths["sl2_KQ.twist"],
        ], EQUIVALENT))
        cmds.append(Command("gauge_s", [
            "gauge-equiv", "--algebra", paths["affxc2.alg"],
            paths["affxc2_K.twist"], paths["affxc2_KQ.twist"],
        ], EQUIVALENT, known_defect=FIND_GAUGE_MISS))
        cmds.append(Command("gauge_s", [
            "gauge-equiv", "--algebra", paths["sl2.alg"],
            paths["noneq_sl2.twist"], paths["noneq_sl2_other.twist"],
        ], Expect(1, {"gauge equivalent": "FAIL"},
                  stdout_has=("obstruction at order 1",))))
    elif workload == "reduce":
        for name in ("sl2", "affxc2"):
            cmds.append(Command("reduce_s", [
                "reduce-classical", "--algebra", _alg(paths, name),
                "--rmatrix", paths[f"{name}.rmat"],
                "--order", str(inputs.REDUCE_ORDERS[name]),
            ], Expect(0, REDUCE_OK)))
    elif workload == "identities":
        cmds.append(Command("props_s", [
            "prop-suite", "--algebra", paths["sl2.alg"],
            "--seed", str(choice["prop_seed"]),
        ], Expect(0, PROPS_OK)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cmds


def setup_spec(workload, paths, workdir):
    """The documents the workload's commands read, for setup_probe.py."""
    if workload == "solve":
        return [
            {"algebra": paths["sl2.alg"],
             "rmatrices": [[paths["sl2.rmat"], inputs.SOLVE_ORDERS["sl2"]]],
             "twists": [f"{workdir}/sl2_solved.twist"]},
            {"algebra": paths["affxc2.alg"],
             "rmatrices": [[paths["affxc2.rmat"],
                            inputs.SOLVE_ORDERS["affxc2"]]],
             "twists": [f"{workdir}/affxc2_solved.twist"]},
        ]
    if workload == "classify":
        return [
            {"algebra": paths["sl2.alg"],
             "twists": [paths[n] for n in (
                 "sl2_K.twist", "sl2_KQ.twist", "noneq_sl2.twist",
                 "noneq_sl2_other.twist")]},
            {"algebra": paths["affxc2.alg"],
             "twists": [paths["affxc2_K.twist"], paths["affxc2_KQ.twist"]]},
        ]
    if workload == "reduce":
        return [
            {"algebra": paths[f"{name}.alg"],
             "rmatrices": [[paths[f"{name}.rmat"],
                            inputs.REDUCE_ORDERS[name]]]}
            for name in ("sl2", "affxc2")
        ]
    return [{"algebra": paths["sl2.alg"]}]
