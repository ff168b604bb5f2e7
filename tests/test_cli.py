import contextlib
import hashlib
import io
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from dyntwist import CdybElement, props, schema
from dyntwist.cli import (
    _COMMANDS, _FLAGS, CommandLineExit, main, parse_args,
)
from dyntwist.quantizer import RMatrix, taylor_rescale
from dyntwist.schema import MAX_ORDER

from conftest import CORPUS
from oracles import build_parser

SL2 = str(CORPUS / "sl2.alg")
SL2_R = str(CORPUS / "sl2.rmat")
SL2_DEG8_R = str(CORPUS / "sl2_deg8.rmat")
AB2 = str(CORPUS / "abelian2.alg")
AB2_R = str(CORPUS / "abelian2.rmat")
NONAB = str(CORPUS / "nonab.alg")
NONAB_R = str(CORPUS / "nonab.rmat")
AFF = str(CORPUS / "affxc2.alg")


def test_check_rmatrix(capsys):
    code = main(["check-rmatrix", "--algebra", SL2, "--rmatrix", SL2_R])
    out = capsys.readouterr().out
    assert code == 0
    assert "residual head: ok" in out


def test_check_rmatrix_failure(tmp_path, capsys):
    bad = tmp_path / "bad.rmat"
    bad.write_text("rmatrix\nterm 1 * e^f * 1\nend\n")
    code = main(["check-rmatrix", "--algebra", SL2,
                 "--rmatrix", str(bad), "--shdeg", "1"])
    assert code == 1


@pytest.mark.parametrize("algebra, rmatrix, shdeg", [
    (SL2, None, None),  # the constant body e^f: top leg degree 0
    (AB2, AB2_R, None),
    (SL2, SL2_R, "0"),
], ids=["sl2-constant", "abelian2", "sl2-shdeg-0"])
def test_check_rmatrix_at_truncation_0_gives_no_verdict(
        tmp_path, capsys, algebra, rmatrix, shdeg):
    # the head covers the leg degrees below the truncation: none at 0
    if rmatrix is None:
        rmatrix = tmp_path / "const.rmat"
        rmatrix.write_text("rmatrix\nterm 1 * e^f * 1\nend\n")
    argv = ["check-rmatrix", "--algebra", algebra, "--rmatrix", str(rmatrix)]
    if shdeg is not None:
        argv += ["--shdeg", shdeg]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "residual head: not checked (truncation 0 covers no leg " \
        "degree)" in lines
    assert not any(line.startswith("residual head: ok") for line in lines)


def test_check_rmatrix_abelian2_at_truncation_1_is_checked(capsys):
    assert main(["check-rmatrix", "--algebra", AB2, "--rmatrix", AB2_R,
                 "--shdeg", "1"]) == 0
    assert "residual head: ok" in capsys.readouterr().out.splitlines()


def test_input_error_exit_code(tmp_path):
    assert main(["check-rmatrix", "--algebra", SL2,
                 "--rmatrix", "/nonexistent"]) == 2
    bad = tmp_path / "bad.rmat"
    bad.write_text("rmatrix\nterm 1 * e^h * 1\nend\n")
    assert main(["check-rmatrix", "--algebra", SL2,
                 "--rmatrix", str(bad)]) == 2


@pytest.mark.parametrize("argv", [
    ["quantize", "--order", "-1"],
    ["reduce-classical", "--order", "-1"],
    ["check-rmatrix", "--order", "-2"],
    ["check-rmatrix", "--shdeg", "-1"],
])
def test_negative_order_is_input_error(tmp_path, capsys, argv):
    out = tmp_path / "K.twist"
    code = main(argv + ["--algebra", SL2, "--rmatrix", SL2_R,
                        "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "must be >= 0" in capsys.readouterr().err


def test_order_above_max_is_input_error(tmp_path, capsys):
    out = tmp_path / "K.twist"
    code = main(["quantize", "--algebra", SL2, "--rmatrix", SL2_R,
                 "--order", str(10**6), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert f"must be <= {MAX_ORDER}" in capsys.readouterr().err


def test_shdeg_above_max_is_input_error():
    # prop-suite's classical checks grow without end in --shdeg
    proc = _run_cli(["prop-suite", "--algebra", AFF,
                     "--shdeg", str(MAX_ORDER + 1)])
    assert proc.returncode == 2
    assert f"--shdeg must be <= {MAX_ORDER}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command, flag", [
    ("gauge-equiv", "--rmatrix"),
    ("gauge-equiv", "--order"),
    ("gauge-equiv", "--shdeg"),
    ("gauge-equiv", "--seed"),
    ("verify-twist", "--order"),
    ("verify-twist", "--seed"),
    ("check-rmatrix", "--seed"),
    ("reduce-classical", "--seed"),
    ("prop-suite", "--rmatrix"),
    ("prop-suite", "--order"),
])
def test_a_flag_the_command_does_not_read_is_refused(command, flag):
    positional = {"verify-twist": ["K.twist"],
                  "gauge-equiv": ["K1.twist", "K2.twist"]}.get(command, [])
    rmatrix = ([] if command in ("gauge-equiv", "prop-suite")
               else ["--rmatrix", SL2_R])
    value = SL2_R if flag == "--rmatrix" else "1"
    proc = _run_cli([command, "--algebra", SL2] + rmatrix
                    + [f"{flag}={value}"] + positional)
    assert proc.returncode == 2
    assert f"unrecognized arguments: {flag}={value}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_verify_twist_refuses_shdeg_without_rmatrix(tmp_path):
    # --shdeg only bounds the r-matrix of the semiclassical comparison
    twist = tmp_path / "K.twist"
    assert main(["quantize", "--algebra", SL2, "--rmatrix", SL2_R,
                 "--order", "2", "--out", str(twist)]) == 0
    proc = _run_cli(["verify-twist", "--algebra", SL2, "--shdeg", "0",
                     str(twist)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ")
    assert "--shdeg" in proc.stderr and "--rmatrix" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    # every command shape the benchmark workloads run
    ["check-rmatrix", "--algebra", "a.alg", "--rmatrix", "r.rmat"],
    ["quantize", "--algebra", "a.alg", "--rmatrix", "r.rmat",
     "--order", "3", "--out", "K.twist"],
    ["verify-twist", "--algebra", "a.alg", "--rmatrix", "r.rmat", "K.twist"],
    ["gauge-equiv", "--algebra", "a.alg", "K.twist", "KQ.twist"],
    ["reduce-classical", "--algebra", "a.alg", "--rmatrix", "r.rmat",
     "--order", "4"],
    ["prop-suite", "--algebra", "a.alg", "--seed", "7"],
])
def test_benchmark_command_shapes_parse(argv):
    args = parse_args(argv)
    assert args.command == argv[0]
    assert args.algebra == "a.alg"


# -- the command-line grammar against the argparse oracle -------------------

VALUE = {"algebra": "a.alg", "rmatrix": "r.rmat", "order": "4",
         "shdeg": "5", "seed": "7", "out": "o.txt"}
# what an int flag may be handed: ints, negative ints (which must reach
# _check_bounds), what int() refuses, and what reads as an option
INT_VALUES = ["0", "-1", "-0", "-12", " 7 ", "1_0", "+3", "x", "1.5",
              "-1.5", "-.5", "", "-", "-x", "--x", "--", "-1e3", "a b"]
POSITIONALS = {"verify-twist": ["K.twist"],
               "gauge-equiv": ["K1.twist", "K2.twist"]}


def _argv_grid(command):
    """The command lines of the grammar check for one command."""
    reads = ("algebra", *_COMMANDS[command][2], "out")
    pos = POSITIONALS.get(command, [])
    need = ["--algebra", "a.alg"] + (
        ["--rmatrix", "r.rmat"] if "rmatrix" in reads else [])
    base = [command] + need + pos
    yield base
    for flag in _FLAGS:  # the flags of other commands too
        values = [VALUE[flag]] + (INT_VALUES if _FLAGS[flag][0] is int
                                  else ["", "-1", "-x", "a b", "--"])
        for value in values:
            yield base + [f"--{flag}", value]
            yield base + [f"--{flag}={value}"]
            yield [command, f"--{flag}", value] + need + pos
        for cut in range(1, len(flag)):
            yield base + [f"--{flag[:cut]}", VALUE[flag]]
            yield base + [f"--{flag[:cut]}={VALUE[flag]}"]
        yield base + [f"--{flag}", VALUE[flag], f"--{flag}=9"]
        yield base + [f"--{flag}=9", f"--{flag[:3]}", VALUE[flag]]
        yield base + [f"--{flag}"]
        yield [command, f"--{flag}"] + need + pos
        yield base + [f"--{flag}", "-h"]
    for extra in (["--bogus"], ["--bogus", "1"], ["--bogus=1"], ["-x"],
                  ["-x", "1"], ["-"], ["-1"], ["stray"], ["a", "b"],
                  ["--algebra", "a.alg", "--order=x", "--bogus"],
                  ["--bogus", "--order", "x"], ["--=x"], ["---algebra"]):
        yield base + extra
        yield [command] + extra + need + pos
    yield [command] + pos
    yield [command] + need
    yield [command] + need + pos[:1]
    yield [command] + need + pos + ["K3.twist"]
    yield [command] + pos + need
    yield [command] + pos[:1] + need + pos[1:]
    yield [command] + need[:2] + pos + need[2:]
    yield [command] + need[2:] + pos
    yield [command] + need[:2] + pos
    yield [command]
    for tail in (["-h"], ["--help"], ["--h"], ["--he"], ["--help=x"],
                 ["-hx"], ["-h=x"], ["-h", "--order", "x"],
                 ["--order", "x", "-h"], ["--bogus", "-h"], ["-h", "--o"],
                 ["--"], ["--", "-x"], ["--", "--order", "1"]):
        yield base + tail
        yield [command] + tail
    yield [command] + need + ["--"] + pos
    yield [command] + need + ["--", "--"] + pos[1:]
    yield [command, "--"] + need + pos


TOP_GRID = [[], ["nope"], ["quant"], ["QUANTIZE"], ["-1"], ["-x"], ["-h"],
            ["--help"], ["--h"], ["--he"], ["--help=x"], ["-hx"], ["--"],
            ["--", "quantize"], ["-h", "quantize"], ["--bogus"],
            ["--bogus", "quantize", "--algebra", "a.alg", "--rmatrix",
             "r.rmat"], ["--algebra", "a.alg", "quantize"], ["--=x"]]


def _separator(argv, theirs, ours):
    # argparse drops a bare `--` only when a positional takes it along
    # (and a second `--` from the positional that takes it, leaving []);
    # it refuses any other as an unrecognized argument
    return "--" in argv[1:] and (theirs[0] == "refuse"
                                 or argv[1:].count("--") > 1)


def _equals_separator(argv, theirs, ours):
    # argparse drops the `--` of `--flag=--` and stores [] (a traceback
    # later, or for --out=-- a report to stdout)
    return theirs[0] == "accept" and [] in theirs[1].values()


def _leading_option(argv, theirs, ours):
    # argparse sets an unknown option before the command aside, reports
    # it after the command's own errors, and obeys a -h after it
    return bool(argv) and argv[0][:1] == "-" and ours[0] == "refuse"


def _double_h(argv, theirs, ours):
    # argparse reads -hh as -h twice
    return "-hh" in argv


# how parse_args departs from argparse on purpose: (what it does instead,
# the test that a difference is that quirk)
DELIBERATE = [
    ("a bare `--` ends the flags and is dropped", _separator),
    ("`--flag=--` hands the flag the value '--'", _equals_separator),
    ("the command comes first: an option before it is an invalid command",
     _leading_option),
    ("-hh is -h given the value 'h'", _double_h),
]
QUIRKS = [["quantize", "--algebra", "a.alg", "--rmatrix", "r.rmat", "--"],
          ["verify-twist", "K.twist", "--algebra", "a.alg", "--"],
          ["gauge-equiv", "--algebra", "a.alg", "--", "--", "K2.twist"],
          ["prop-suite", "--algebra", "a.alg", "--out=--"],
          ["--bogus", "-h"], ["quantize", "-hh"]]


def _oracle(parser, argv):
    """(verdict, namespace or error message) from the argparse oracle."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            return "accept", vars(parser.parse_args(argv))
    except SystemExit as exc:
        if exc.code == 0:
            return "help", None
        return "refuse", err.getvalue().split(": error: ", 1)[1].rstrip("\n")


def _table(argv):
    """(verdict, namespace or error message) from parse_args."""
    try:
        return "accept", vars(parse_args(argv))
    except CommandLineExit as exc:
        if exc.code == 0:
            return "help", None
        return "refuse", exc.text.split(": error: ", 1)[1]


def _differences(argvs):
    """(argv, argparse's outcome, parse_args's) where they differ for no
    reason in DELIBERATE, and the reasons that explain some difference."""
    parser = build_parser()
    unexplained, used = [], set()
    for argv in argvs:
        theirs, ours = _oracle(parser, argv), _table(argv)
        if theirs == ours:
            continue
        reasons = [why for why, holds in DELIBERATE
                   if holds(argv, theirs, ours)]
        used.update(reasons)
        if not reasons:
            unexplained.append((argv, theirs, ours))
    return unexplained, used


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_the_table_parser_reads_argv_as_argparse_does(command):
    # the same verdict, the same namespace on acceptance and the same
    # error message on refusal, but for the listed quirks of argparse
    grid = list(_argv_grid(command))
    assert len(grid) > 300
    assert _differences(grid)[0] == []


def test_the_table_parser_reads_the_command_as_argparse_does():
    assert _differences(TOP_GRID)[0] == []


def test_each_deliberate_difference_from_argparse_is_seen():
    unexplained, used = _differences(QUIRKS)
    assert unexplained == []
    assert used == {why for why, _ in DELIBERATE}


def test_a_usage_error_returns_2_in_process(capsys):
    # not SystemExit: main() returns the exit code of every run
    code = main(["quantize", "--algebra", "a", "--rmatrix", "r",
                 "--order", "x"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: dyntwist quantize ")
    assert error == ("dyntwist quantize: error: argument --order: invalid "
                     "int value: 'x'")


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_top_level_help_lists_every_command(capsys, flag):
    # main() returns the code of a help request, as of any other run
    assert main([flag]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("usage: dyntwist ")
    listed = [line.split()[0] for line in out.split("commands:\n")[1]
              .split("\n\n")[0].splitlines()]
    assert listed == list(_COMMANDS)


@pytest.mark.parametrize("flag", ["--help", "-h"])
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_command_help_lists_every_flag_it_reads(capsys, command, flag):
    assert main([command, flag]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith(f"usage: dyntwist {command} ")
    options = out.split("options:\n")[1].splitlines()
    assert [line.split()[0].rstrip(",") for line in options] == [
        "-h", "--algebra", *(f"--{f}" for f in _COMMANDS[command][2]),
        "--out"]
    names = {"verify-twist": ["twist"], "gauge-equiv": ["twist", "twist2"]}
    section = out.split("positional arguments:\n")[1:]
    assert [line.split()[0] for part in section
            for line in part.split("\n\n")[0].splitlines()] == names.get(
                command, [])


@pytest.mark.parametrize("argv", [
    ["check-rmatrix", "--algebra", SL2, "--rmatrix", SL2_R],
    ["--help"],
], ids=["check-rmatrix", "help"])
def test_a_run_imports_no_argparse_gettext_or_locale(argv):
    # the table parser exists to keep these imports (about 5 ms with the
    # parser built) out of every command-line process
    proc = _run_cli(argv, python_flags=["-X", "importtime"])
    assert proc.returncode == 0
    imported = {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "dyntwist.schema" in imported
    assert imported & {"argparse", "gettext", "locale"} == set()


def test_oversized_twist_order_exits_quickly(tmp_path):
    # each coefficient is padded to order + 1 entries, so this document
    # must be refused before its term is read
    doc = ("twist\narity 2\norder 99999999\nhbar 0\n"
           "term 1 * (1 | 1 | 1)\nend\n")
    assert len(doc) == 61
    twist = tmp_path / "K.twist"
    twist.write_text(doc)
    proc = _run_cli(["verify-twist", "--algebra", SL2, str(twist)])
    assert proc.returncode == 2
    assert "order must be <=" in proc.stderr


def _run_cli(argv, stdout=subprocess.PIPE, drop_env=(), python_flags=(),
             **popen):
    """The CLI in a fresh process, killed after 60 s.

    The variables named in drop_env are taken out of its environment;
    python_flags go to the interpreter before `-m dyntwist.cli`.
    """
    src = str(CORPUS.parent / "src")
    env = {k: v for k, v in os.environ.items() if k not in drop_env}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "dyntwist.cli"] + argv, env=env,
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
        **popen,
    )


def test_quantize_refuses_order_beyond_verified_range(tmp_path):
    # corpus/sl2.rmat stops at leg degree 4: its rescaled residual is
    # nonzero from hbar^6 on, which must be found before any solving
    out = tmp_path / "K.twist"
    proc = _run_cli(["quantize", "--algebra", SL2, "--rmatrix", SL2_R,
                     "--order", "6", "--out", str(out)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("residual failure: ")
    assert "verified only through order 5" in proc.stderr
    assert not out.exists()


BAD_R = "rmatrix\nterm 1 * e^f * 1\nterm 3 * e^f * h\nend\n"


@pytest.mark.parametrize("argv, code", [
    (["quantize", "--algebra", SL2, "--rmatrix", SL2_R, "--order", "2",
      "--out", "{out}"], 0),
    (["quantize", "--algebra", SL2, "--rmatrix", SL2_R, "--order", "2"], 0),
    (["check-rmatrix", "--algebra", SL2, "--rmatrix", "{bad}"], 1),
    (["check-rmatrix", "--algebra", SL2, "--rmatrix", "{malformed}"], 2),
])
def test_a_fresh_process_reports_what_main_reports(tmp_path, capsys, argv,
                                                   code):
    # a command-line run skips interpreter teardown; nothing it prints,
    # writes or returns may differ from the in-process main(), also when
    # stdout is block-buffered until the end
    out = tmp_path / "K.twist"
    (tmp_path / "bad.rmat").write_text(BAD_R)
    (tmp_path / "malformed.rmat").write_text("rmatrix\nterm e^f\nend\n")
    argv = [a.format(out=out, bad=tmp_path / "bad.rmat",
                     malformed=tmp_path / "malformed.rmat") for a in argv]
    proc = _run_cli(argv, drop_env=("PYTHONUNBUFFERED",))
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, captured.out, captured.err)
    assert (written is None) == ("--out" not in argv)
    assert written == (out.read_bytes() if out.exists() else None)


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device whose writes fail")
def test_a_failed_final_flush_exits_120_without_a_traceback():
    # with stdout block-buffered the report is still in the buffer when
    # main() returns, so the flush after it is the write that fails
    with open("/dev/full", "w") as full:
        proc = _run_cli(["quantize", "--algebra", SL2, "--rmatrix", SL2_R,
                         "--order", "2"], stdout=full,
                        drop_env=("PYTHONUNBUFFERED",))
    assert proc.returncode == 120
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("Exception ignored in: ")
    assert "OSError: [Errno 28]" in proc.stderr


def test_a_closed_stdout_is_no_error_when_nothing_is_printed(tmp_path):
    # a descriptor closed at startup leaves sys.stdout None
    report = tmp_path / "report.txt"
    proc = _run_cli(["check-rmatrix", "--algebra", SL2, "--rmatrix", SL2_R,
                     "--out", str(report)],
                    stdout=subprocess.DEVNULL,
                    preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "residual head: ok" in report.read_text()


def _assert_output_error(proc):
    assert proc.returncode == 120
    assert proc.stderr.startswith("output error: ")
    assert "Traceback" not in proc.stderr


def test_a_closed_stdout_is_an_output_error():
    # without --out the report has nowhere to go
    proc = _run_cli(["check-rmatrix", "--algebra", SL2, "--rmatrix", SL2_R],
                    stdout=subprocess.DEVNULL,
                    preexec_fn=lambda: os.close(1))
    _assert_output_error(proc)


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device whose writes fail")
def test_an_unbuffered_write_to_a_full_device_is_an_output_error(
        monkeypatch):
    # unbuffered, the report's own write inside main() is the one that
    # fails, and it ends as the failed final flush of a buffered run does
    monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    with open("/dev/full", "w") as full:
        proc = _run_cli(["quantize", "--algebra", SL2, "--rmatrix", SL2_R,
                         "--order", "2"], stdout=full)
    _assert_output_error(proc)
    assert "[Errno 28]" in proc.stderr


@pytest.mark.parametrize("command", ["quantize", "check-rmatrix"])
def test_a_missing_out_directory_is_an_output_error(tmp_path, command):
    # quantize writes the twist itself, the others through the report
    out = tmp_path / "missing" / "out.txt"
    proc = _run_cli([command, "--algebra", SL2, "--rmatrix", SL2_R,
                     "--order", "2", "--out", str(out)])
    _assert_output_error(proc)
    assert not out.parent.exists()


def test_quantize_refuses_input_that_fails_below_the_order(tmp_path, capsys):
    # e^f + 3 e^f (x) h passes the leg-degree-0 check of --shdeg 0, but
    # its rescaled residual has an hbar^2 term
    rmat = tmp_path / "bad.rmat"
    rmat.write_text(BAD_R)
    code = main(["quantize", "--algebra", SL2, "--rmatrix", str(rmat),
                 "--shdeg", "0", "--order", "2"])
    assert code == 1
    assert "verified only through order 1" in capsys.readouterr().err


def test_solver_failure_names_order_and_slice(tmp_path, capsys,
                                              monkeypatch):
    # with the range check out of the way the solver meets the order-2
    # obstruction of the same input, and the report names its slice
    monkeypatch.setattr("dyntwist.cli.taylor_rescale", lambda rho, n: None)
    rmat = tmp_path / "bad.rmat"
    rmat.write_text(BAD_R)
    code = main(["quantize", "--algebra", SL2, "--rmatrix", str(rmat),
                 "--shdeg", "0", "--order", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(
        "solver failure (ObstructionNotRepaired) at order 2, length "
    )
    assert "Traceback" not in err


@pytest.mark.parametrize("doc", [
    "algebra\ndim\nbasis a\nend\n",
    "algebra\ndim 2\nbasis a b\nbracket 0 1 -> (1, 9)\nend\n",
])
def test_malformed_algebra_is_input_error(tmp_path, capsys, doc):
    alg = tmp_path / "bad.alg"
    alg.write_text(doc)
    assert main(["prop-suite", "--algebra", str(alg)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("doc", [
    # no terms at all: every residual of zero vanishes
    "twist\narity 2\norder 2\nend\n",
    # 2 (x) 1 (x) 1 solves the equation but is not 1 mod hbar
    "twist\narity 2\norder 2\nhbar 0\nterm 2 * (1 | 1 | 1)\nend\n",
])
def test_verify_rejects_non_twists(tmp_path, capsys, doc):
    twist = tmp_path / "K.twist"
    twist.write_text(doc)
    code = main(["verify-twist", "--algebra", SL2, str(twist)])
    out = capsys.readouterr().out
    assert code == 1
    assert "valuation certificate: FAIL" in out


@pytest.mark.parametrize("rmat, shdeg, code, err", [
    # not invariant under the Cartan line
    ("rmatrix\nterm 1 * e^h * 1\nend\n", "4", 2, "input error"),
    # not a term line
    ("rmatrix\nterm e^f\nend\n", "4", 2, "input error"),
    # invariant, but not Maurer-Cartan below leg degree 1
    ("rmatrix\nterm 1 * e^f * 1\nend\n", "1", 1, "residual failure"),
])
@pytest.mark.parametrize("twist_doc", [
    None,
    # fails the valuation certificate, which used to end the run before
    # the r-matrix was read
    "twist\narity 2\norder 2\nhbar 0\nterm 2 * (1 | 1 | 1)\nend\n",
])
def test_verify_reads_the_rmatrix_before_the_residuals(
        tmp_path, capsys, rmat, shdeg, code, err, twist_doc):
    twist = tmp_path / "K.twist"
    if twist_doc is None:
        assert main(["quantize", "--algebra", SL2, "--rmatrix", SL2_R,
                     "--order", "2", "--out", str(twist)]) == 0
    else:
        twist.write_text(twist_doc)
    bad = tmp_path / "bad.rmat"
    bad.write_text(rmat)
    proc = _run_cli(["verify-twist", "--algebra", SL2, "--rmatrix",
                     str(bad), "--shdeg", shdeg, str(twist)])
    assert proc.returncode == code
    assert proc.stderr.startswith(err)
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_quantize_verify_round_trip(tmp_path, capsys):
    twist = tmp_path / "K.twist"
    code = main(["quantize", "--algebra", SL2, "--rmatrix", SL2_R,
                 "--order", "2", "--out", str(twist)])
    assert code == 0
    assert twist.exists()
    code = main(["verify-twist", "--algebra", SL2, "--rmatrix", SL2_R,
                 str(twist)])
    out = capsys.readouterr().out
    assert code == 0
    assert "equation residual: ok" in out
    assert "semiclassical comparison: ok" in out


def test_sl2_degree_8_corpus_passes_check(capsys):
    code = main(["check-rmatrix", "--algebra", SL2, "--rmatrix", SL2_DEG8_R])
    assert code == 0
    assert "residual head: ok" in capsys.readouterr().out


def test_sl2_degree_8_corpus_rescales_through_order_6():
    lie = schema.parse_algebra(schema.load_file(SL2))
    body = schema.parse_rmatrix(schema.load_file(SL2_DEG8_R), lie, 6)
    taylor_rescale(RMatrix(lie, body), 6)


def test_sl2_degree_8_corpus_gives_the_degree_4_twist(tmp_path):
    """The leg degrees above 4 do not reach the order-4 twist."""
    twists = []
    for rmat in (SL2_R, SL2_DEG8_R):
        twist = tmp_path / (os.path.basename(rmat) + ".twist")
        code = main(["quantize", "--algebra", SL2, "--rmatrix", rmat,
                     "--order", "4", "--out", str(twist)])
        assert code == 0
        twists.append(twist.read_bytes())
    assert twists[0] == twists[1]


# sha256 of the twist document `quantize` writes, pinned so that a
# refactor of the solver, the products or the writer cannot change it
TWIST_DIGESTS = [
    ("sl2", "3", None,
     "b194f2324f832345eb7be6be3323e0de1105ac9238c716e44cb0db6bd6be4e1d"),
    ("sl2", "3", "0",
     "95a2583b27bba894d2397648fd748523b15c32d7021cf35a42670b7802ace815"),
    ("sl2", "3", "1",
     "2a417748043dee0755e936c3f8532060c17cb836c2c768f19ccf43ea5ba3f4b0"),
    ("affxc2", "2", None,
     "2fe1bbb51be57a9d8760b5a1cf88a6212d1fddb38191876b4919eebed2f9ca3b"),
    ("nonab", "2", None,
     "2c72355308569089d4040a1547e7f328f76453265a97e20ae6601e6ceb6e0b80"),
    ("affxc2", "4", None,
     "35b6b802e51af6f0fcc1269d31b1b0119d7583877559b6610aabf58d611e7f50"),
    ("nonab", "3", None,
     "2ddd01b4dc10adff486cc78c265e95681de464e6c3d3ab397f4aa81fca3a4d04"),
]


# sha256 of the `reduce-classical --order 5` stdout: the reduced
# bivector is p(alpha), which the transport along the strict reduction
# tower gave before
REDUCE_DIGESTS = [
    ("sl2",
     "ead80828f4ce487dbeb975e18de0bda4488d7881cf0e2402d75cc62c67c48287"),
    ("affxc2",
     "8028e95a0630c9a757ea2bf12a841584824c17d949956309aafde5c525333e31"),
    ("nonab",
     "d8c9a7330dd26068e7f25c7b948eeeb9f338c4728e34789bae564bee79a93667"),
    ("abelian2",
     "356582fae171288e861de8006cedc6f09d5a4fac4c4be7ffc299b835ac72059b"),
]


@pytest.mark.parametrize("name, digest", REDUCE_DIGESTS)
def test_reduce_classical_stdout_digest(capsys, name, digest):
    assert main(["reduce-classical", "--algebra", str(CORPUS / f"{name}.alg"),
                 "--rmatrix", str(CORPUS / f"{name}.rmat"),
                 "--order", "5"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reduce_classical_recomputes_the_restricted_square(
        tmp_path, capsys, monkeypatch):
    # sl2 with no base: p1 keeps all of wedge^3 g, and the restricted
    # square of e^f is -2 e^h^f; the zero r-matrix reaches the report
    alg = tmp_path / "sl2_nobase.alg"
    alg.write_text("algebra\ndim 3\nbasis e h f\nh_indices\n"
                   "mode reductive\nbracket 0 1 -> (-2, 0)\n"
                   "bracket 1 2 -> (-2, 2)\nbracket 0 2 -> (1, 1)\nend\n")
    rmat = tmp_path / "zero.rmat"
    rmat.write_text("rmatrix\nend\n")
    argv = ["reduce-classical", "--algebra", str(alg), "--rmatrix", str(rmat)]
    assert main(argv) == 0
    assert "restricted square: ok" in capsys.readouterr().out.splitlines()

    def reduce_classical(lie, alpha):
        pi = CdybElement.monomial((0, 2), (), 1, alpha.order)
        return SimpleNamespace(pi=pi, gauge=SimpleNamespace(equivalent=True))

    monkeypatch.setattr("dyntwist.cli.reduce_classical", reduce_classical)
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "restricted square: FAIL" in lines
    assert "round-trip equivalence: ok" in lines


@pytest.mark.parametrize("name, order, seed, digest", TWIST_DIGESTS)
def test_quantize_twist_digest(tmp_path, name, order, seed, digest):
    twist = tmp_path / "K.twist"
    argv = ["quantize", "--algebra", str(CORPUS / f"{name}.alg"),
            "--rmatrix", str(CORPUS / f"{name}.rmat"), "--order", order,
            "--out", str(twist)]
    if seed is not None:
        argv += ["--seed", seed]
    assert main(argv) == 0
    assert hashlib.sha256(twist.read_bytes()).hexdigest() == digest


def test_seeded_twists_stay_in_one_gauge_class(tmp_path, capsys):
    # a seed acts by gauges 1 + hbar^n u, so at order 5 the twists of no
    # seed, seed 0 and seed 1 all verify and are pairwise equivalent
    twists = []
    for seed in (None, "0", "1"):
        twist = tmp_path / f"K{seed}.twist"
        argv = ["quantize", "--algebra", SL2, "--rmatrix", SL2_R,
                "--order", "5", "--out", str(twist)]
        if seed is not None:
            argv += ["--seed", seed]
        assert main(argv) == 0
        assert main(["verify-twist", "--algebra", SL2, "--rmatrix", SL2_R,
                     str(twist)]) == 0
        twists.append(str(twist))
    capsys.readouterr()
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert main(["gauge-equiv", "--algebra", SL2,
                     twists[i], twists[j]]) == 0
        assert "gauge equivalent: ok" in capsys.readouterr().out


# sha256 of the whole stdout of `prop-suite`, run from the repository
# root on a relative algebra path (the header names it): the verdict
# lines alone would not see a change to a sampled count or a detail
PROP_SUITE_DIGESTS = [
    ("sl2", "0",
     "da500a9aeceb59da330423100e90554fdb7e68d2aa1820a84ad793c31d88c19b"),
    ("sl2", "1",
     "4c051926efde99ed189530fc48cdf59d72c215be938229ddb7be6c6f4e1331a3"),
    ("sl2", "7",
     "0793522aa0da23cf9b7cf0dfadb31928fb8d14ba504c04ba544fc691984cea53"),
    ("affxc2", "0",
     "452c07e940ec1ccb4dbebc644efb9e3d45adb04646c8fad76a8b1c4a357f283f"),
]


@pytest.mark.parametrize("name, seed, digest", PROP_SUITE_DIGESTS)
def test_prop_suite_stdout_digest(name, seed, digest):
    proc = _run_cli(["prop-suite", "--algebra", f"corpus/{name}.alg",
                     "--seed", seed], cwd=CORPUS.parent)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_quantize_verify_nonabelian_base(tmp_path, capsys):
    twist = tmp_path / "K.twist"
    code = main(["quantize", "--algebra", NONAB, "--rmatrix", NONAB_R,
                 "--order", "3", "--out", str(twist)])
    assert code == 0
    assert "equation residual: ok" in capsys.readouterr().out
    code = main(["verify-twist", "--algebra", NONAB, "--rmatrix", NONAB_R,
                 str(twist)])
    lines = capsys.readouterr().out.splitlines()[1:]  # after the header
    assert code == 0
    assert [line.split(": ")[0] for line in lines] == [
        "equation residual", "valuation certificate",
        "formal equation residual (triangle)", "semiclassical comparison",
    ]
    assert all(line.endswith(": ok") for line in lines)


def test_verify_rejects_tampered_twist(tmp_path, capsys):
    twist = tmp_path / "K.twist"
    main(["quantize", "--algebra", AB2, "--rmatrix", AB2_R,
          "--order", "2", "--out", str(twist)])
    text = twist.read_text().replace(
        "term 1/2 * (a | b | 1)", "term 1/3 * (a | b | 1)"
    )
    twist.write_text(text)
    assert main(["verify-twist", "--algebra", AB2, str(twist)]) == 1


def test_gauge_equiv(tmp_path, capsys):
    t1 = tmp_path / "K1.twist"
    t2 = tmp_path / "K2.twist"
    for seed, path in ((3, t1), (4, t2)):
        main(["quantize", "--algebra", SL2, "--rmatrix", SL2_R,
              "--order", "2", "--seed", str(seed), "--out", str(path)])
    assert t1.read_text() != t2.read_text()
    code = main(["gauge-equiv", "--algebra", SL2, str(t1), str(t2)])
    out = capsys.readouterr().out
    assert code == 0
    assert "gauge equivalent: ok" in out


def test_gauge_equiv_reports_the_order_it_compared(tmp_path, capsys):
    # an order-0 twist against an order-2 one is compared mod hbar only
    unit = tmp_path / "K0.twist"
    unit.write_text("twist\narity 2\norder 0\nhbar 0\n"
                    "term 1 * (1 | 1 | 1)\nend\n")
    K2 = tmp_path / "K2.twist"
    assert main(["quantize", "--algebra", SL2, "--rmatrix", SL2_R,
                 "--order", "2", "--out", str(K2)]) == 0
    capsys.readouterr()
    for pair, order in (((unit, K2), 0), ((K2, unit), 0), ((K2, K2), 2)):
        code = main(["gauge-equiv", "--algebra", SL2] + list(map(str, pair)))
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[:2] == ["gauge equivalent: ok",
                             f"compared through order {order}"]


@pytest.mark.parametrize("bodies", [
    ("", ""),
    ("hbar 1\nterm 1 * (e | f | 1)\n", "hbar 0\nterm 1 * (1 | 1 | 1)\n"),
])
def test_gauge_equiv_rejects_non_unit_heads(tmp_path, bodies):
    # find_gauge linearizes around 1 + O(hbar): any other input is not a
    # twist, so neither "ok" nor an obstruction is a verdict on it
    paths = []
    for i, body in enumerate(bodies):
        paths.append(tmp_path / f"K{i}.twist")
        paths[-1].write_text(f"twist\narity 2\norder 2\n{body}end\n")
    proc = _run_cli(["gauge-equiv", "--algebra", SL2] + list(map(str, paths)))
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error (NotInvertible)")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_verify_order_0_makes_no_semiclassical_comparison(tmp_path,
                                                           capsys):
    # an order-0 J has no hbar^1 layer, so an ok would compare nothing
    twist = tmp_path / "K.twist"
    twist.write_text("twist\narity 2\norder 0\nhbar 0\n"
                     "term 1 * (1 | 1 | 1)\nend\n")
    code = main(["verify-twist", "--algebra", SL2, "--rmatrix", SL2_R,
                 str(twist)])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "equation residual: ok",
        "valuation certificate: ok",
        "formal equation residual (triangle): ok",
        "semiclassical comparison: not made (order 0 has no hbar^1 layer)",
    ]


def test_reduce_classical(capsys):
    code = main(["reduce-classical", "--algebra", SL2,
                 "--rmatrix", SL2_R])
    out = capsys.readouterr().out
    assert code == 0
    assert "round-trip equivalence: ok" in out


# the inclusion tower reaches arity 10 and 9 here, and 64 at the highest
# order the CLI accepts; the reduced bivector and both verdicts are pinned
@pytest.mark.parametrize("alg, rmat, order, pi", [
    (AFF, str(CORPUS / "affxc2.rmat"), "10", "(HSeries(h; N=10)) x^y | 1"),
    (SL2, SL2_DEG8_R, "9", "(HSeries(h; N=9)) e^f | 1"),
    (AFF, str(CORPUS / "affxc2.rmat"), "20", "(HSeries(h; N=20)) x^y | 1"),
    (AFF, str(CORPUS / "affxc2.rmat"), str(MAX_ORDER),
     f"(HSeries(h; N={MAX_ORDER})) x^y | 1"),
], ids=["affxc2-10", "sl2_deg8-9", "affxc2-20", "affxc2-max"])
def test_reduce_classical_at_high_order(capsys, alg, rmat, order, pi):
    code = main(["reduce-classical", "--algebra", alg, "--rmatrix", rmat,
                 "--order", order])
    assert code == 0
    assert capsys.readouterr().out == (
        f"reduced bivector:\n  {pi}\nrestricted square: ok\n"
        "round-trip equivalence: ok\n"
    )


def test_prop_suite(capsys):
    code = main(["prop-suite", "--algebra", AB2, "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "cohomology: ok" in out


def test_prop_suite_without_seed_prints_the_seed_it_runs(capsys):
    assert main(["prop-suite", "--algebra", AB2]) == 0
    unseeded = capsys.readouterr().out
    assert main(["prop-suite", "--algebra", AB2, "--seed", "0"]) == 0
    assert unseeded == capsys.readouterr().out
    assert "(seed 0)" in unseeded


def test_prop_suite_shdeg_zero_is_not_the_default(monkeypatch, capsys):
    # --shdeg 0 is a value, not an absent flag: it is too small to check
    # stabilization, as 1 and 2 are, instead of running at the default 4
    proc = _run_cli(["prop-suite", "--algebra", AB2, "--shdeg", "0"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error (TruncationTooSmall)")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""

    # each bound below 3 is refused before any check runs
    def check_called(*args, **kwargs):
        raise AssertionError("a check ran")

    for name in ("check_d_squared", "check_d_leibniz", "check_b_squared",
                 "check_cup_leibniz", "check_brace_relations",
                 "check_delta_homotopy", "check_kappa", "check_adte_modes",
                 "check_cohomology"):
        monkeypatch.setattr(props, name, check_called)
    for shdeg in ("0", "1", "2"):
        assert main(["prop-suite", "--algebra", AB2, "--shdeg", shdeg]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("input error (TruncationTooSmall)")
        assert out == ""
    with pytest.raises(AssertionError, match="a check ran"):
        main(["prop-suite", "--algebra", AB2, "--shdeg", "3"])


def test_report_to_file(tmp_path):
    report = tmp_path / "report.txt"
    code = main(["check-rmatrix", "--algebra", SL2, "--rmatrix", SL2_R,
                 "--out", str(report)])
    assert code == 0
    assert "residual head: ok" in report.read_text()
