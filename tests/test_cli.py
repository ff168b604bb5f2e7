import hashlib
import os
import subprocess
import sys

import pytest

from dyntwist import schema
from dyntwist.cli import build_parser, main
from dyntwist.quantizer import RMatrix, taylor_rescale
from dyntwist.schema import MAX_ORDER

from conftest import CORPUS

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
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]
    assert args.algebra == "a.alg"


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


def _run_cli(argv):
    """The CLI in a fresh process, killed after 60 s."""
    src = str(CORPUS.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "dyntwist.cli"] + argv,
        env=env, capture_output=True, text=True, timeout=60,
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
     "032d2941a507a691b8dd15dfdf7e0ee0e8f59d0e81530c32185892ef4ae64763"),
    ("sl2", "3", "1",
     "d22a4e9c9338ece5601010cba33605b59ad440cea1695d250cebe9c118cfa493"),
    ("affxc2", "2", None,
     "2fe1bbb51be57a9d8760b5a1cf88a6212d1fddb38191876b4919eebed2f9ca3b"),
    ("nonab", "2", None,
     "2c72355308569089d4040a1547e7f328f76453265a97e20ae6601e6ceb6e0b80"),
    ("affxc2", "4", None,
     "35b6b802e51af6f0fcc1269d31b1b0119d7583877559b6610aabf58d611e7f50"),
    ("nonab", "3", None,
     "2ddd01b4dc10adff486cc78c265e95681de464e6c3d3ab397f4aa81fca3a4d04"),
]


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


def test_reduce_classical(capsys):
    code = main(["reduce-classical", "--algebra", SL2,
                 "--rmatrix", SL2_R])
    out = capsys.readouterr().out
    assert code == 0
    assert "round-trip equivalence: ok" in out


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


def test_prop_suite_shdeg_zero_is_not_the_default():
    # --shdeg 0 is a value, not an absent flag: it is too small to check
    # stabilization, as 1 and 2 are, instead of running at the default 4
    proc = _run_cli(["prop-suite", "--algebra", AB2, "--shdeg", "0"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error (TruncationTooSmall)")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_report_to_file(tmp_path):
    report = tmp_path / "report.txt"
    code = main(["check-rmatrix", "--algebra", SL2, "--rmatrix", SL2_R,
                 "--out", str(report)])
    assert code == 0
    assert "residual head: ok" in report.read_text()
