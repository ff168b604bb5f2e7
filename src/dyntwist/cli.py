"""Command-line front end: quantize, verify, classify, report.

Exit codes: 0 all residuals exactly zero, 1 a residual check failed,
2 malformed input, 3 the solver hit an obstruction, 120 the report or
the twist could not be written (the code Python gives a failed final
flush of stdout).

A command-line run ends through os._exit once main() has returned and
stdout and stderr are flushed: the report is out and every file was
written in a `with` block, so interpreter teardown (module cleanup and a
last collection, about 10 ms) would only delay the exit.  A flush that
fails exits as sys.exit would.  main() itself just returns the code, so
in-process callers are unaffected.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import cdyb_dgla, props, schema
from .adt_dgla import AdtElement, adte_residual
from .errors import (
    DyntwistError,
    NoSolution,
    NotMaurerCartan,
    ObstructionNotRepaired,
    SchemaError,
    StraighteningStalled,
    TruncationTooSmall,
    ValuationViolated,
)
from .gauge import find_gauge, reduce_classical
from .quantizer import (
    RMatrix,
    dte_residual,
    k_to_j,
    semiclassical_check,
    solve_adte,
    taylor_rescale,
)
from .uea import UEnvelope

EXIT_PASS = 0
EXIT_RESIDUAL = 1
EXIT_INPUT = 2
EXIT_OBSTRUCTION = 3
EXIT_OUTPUT = 120


class Report:
    """Accumulates deterministic report lines and the worst exit code."""

    def __init__(self):
        self.lines = []
        self.code = EXIT_PASS

    def add(self, text):
        self.lines.append(text)

    def check(self, name, ok, detail=""):
        verdict = "ok" if ok else "FAIL"
        suffix = f"  {detail}" if detail else ""
        self.lines.append(f"{name}: {verdict}{suffix}")
        if not ok:
            self.code = max(self.code, EXIT_RESIDUAL)

    def emit(self, out_path=None):
        text = "\n".join(self.lines) + "\n"
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        elif sys.stdout is None:
            # its descriptor was closed at startup
            raise OSError("stdout is closed")
        else:
            sys.stdout.write(text)
        return self.code


def _load_algebra(args):
    return schema.parse_algebra(schema.load_file(args.algebra))


def _load_rmatrix(args, lie, order):
    body = schema.parse_rmatrix(schema.load_file(args.rmatrix), lie, order)
    return RMatrix(lie, body, truncation=args.shdeg)


def cmd_check_rmatrix(args):
    rep = Report()
    lie = _load_algebra(args)
    rho = _load_rmatrix(args, lie, args.order)
    rep.add(f"algebra: {args.algebra} (mode {lie.mode})")
    rep.check("invariance and grading", True)
    rep.check("residual head", rho.residual_head.is_zero())
    tail = rho.residual_tail
    if not tail.is_zero():
        rep.add(f"unverifiable residual tail beyond leg degree "
                f"{rho.truncation - 1}: {sorted(tail.sh_degrees())}")
    return rep.emit(args.out)


def cmd_quantize(args):
    rep = Report()
    lie = _load_algebra(args)
    rho = _load_rmatrix(args, lie, args.order)
    try:
        taylor_rescale(rho, args.order)
    except NotMaurerCartan as exc:
        reach = exc.residual.hbar_valuation() - 1
        raise NotMaurerCartan(
            f"the r-matrix is verified only through order {reach}; "
            f"refusing to quantize to order {args.order}"
        ) from exc
    uea = UEnvelope(lie)
    pair = solve_adte(rho, args.order, uea=uea, perturb_seed=args.seed)
    rep.add(f"quantized to order {args.order}")
    rep.check("equation residual", pair.residual.is_zero())
    rep.add("valuation certificate: "
            + " ".join(str(f) for f in pair.valuation_certificate))
    doc = schema.dump_twist(pair.K)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc)
        rep.add(f"twist written to {args.out}")
        return rep.emit(None)
    rep.add(doc.rstrip("\n"))
    return rep.emit(None)


def cmd_verify_twist(args):
    if args.shdeg is not None and args.rmatrix is None:
        raise SchemaError("--shdeg bounds the r-matrix's leg degree, so "
                          "verify-twist reads it only with --rmatrix")
    rep = Report()
    lie = _load_algebra(args)
    uea = UEnvelope(lie)
    K = schema.parse_twist(schema.load_file(args.twist), uea)
    # read the r-matrix first: bad input ends the run before any residual
    rho = _load_rmatrix(args, lie, K.order) if args.rmatrix else None
    rep.add(f"twist: {args.twist} (order {K.order})")
    rep.check("equation residual", adte_residual(K).is_zero())
    # K = 1 mod hbar, and the order-n coefficient has leg length below n
    unit = AdtElement.unit(uea, 2, K.order)
    cert_ok = K.hbar_component(0) == unit and all(
        K.hbar_component(n).filtration_degree() <= n - 1
        for n in range(1, K.order + 1)
    )
    rep.check("valuation certificate", cert_ok)
    if cert_ok:
        try:
            J = k_to_j(uea, K)
        except ValuationViolated:
            rep.check("formal conversion", False)
        else:
            rep.check("formal equation residual (triangle)",
                      dte_residual(J).is_zero())
            if rho is not None:
                ok, _ = semiclassical_check(J, rho)
                rep.check("semiclassical comparison", ok)
    return rep.emit(args.out)


def cmd_gauge_equiv(args):
    rep = Report()
    lie = _load_algebra(args)
    uea = UEnvelope(lie)
    K1 = schema.parse_twist(schema.load_file(args.twist), uea)
    K2 = schema.parse_twist(schema.load_file(args.twist2), uea)
    result = find_gauge(K1, K2)
    rep.check("gauge equivalent", result.equivalent)
    rep.add(f"compared through order {result.compared}")
    if result.equivalent:
        rep.add("gauge element:")
        rep.add(schema.dump_twist(result.gauge).rstrip("\n"))
    else:
        rep.add(f"obstruction at order {result.order}: "
                f"{result.obstruction!r}")
    return rep.emit(args.out)


def cmd_reduce_classical(args):
    rep = Report()
    lie = _load_algebra(args)
    rho = _load_rmatrix(args, lie, args.order)
    alpha = taylor_rescale(rho, args.order)
    red = reduce_classical(lie, alpha)
    rep.add("reduced bivector:")
    rep.add("  " + red.pi.pretty(lie))
    rep.check("restricted square", True)
    rep.check("round-trip equivalence", red.gauge.equivalent)
    return rep.emit(args.out)


def cmd_prop_suite(args):
    shdeg = 4 if args.shdeg is None else args.shdeg
    # the last check, cohomology, refuses a smaller bound: refuse it
    # before the others run, not after
    if shdeg < cdyb_dgla.MIN_SHDEG:
        raise TruncationTooSmall(
            f"--shdeg must be >= {cdyb_dgla.MIN_SHDEG} for the cohomology "
            f"check to see stabilization, got {shdeg}")
    rep = Report()
    lie = _load_algebra(args)
    seed = 0 if args.seed is None else args.seed
    rep.add(f"property suite on {args.algebra} (seed {seed})")
    for name, ok, detail in props.standard_suite(lie, seed=seed,
                                                 shdeg=shdeg):
        rep.check(name, ok, detail)
    return rep.emit(args.out)


# name: (handler, help, the flags it reads beyond --algebra and --out)
_COMMANDS = {
    "quantize": (cmd_quantize, "quantize an r-matrix to a dynamical twist",
                 ("rmatrix", "order", "shdeg", "seed")),
    "verify-twist": (cmd_verify_twist, "recompute all residuals of a twist",
                     ("rmatrix", "shdeg")),
    "check-rmatrix": (cmd_check_rmatrix, "validate a classical r-matrix",
                      ("rmatrix", "order", "shdeg")),
    "gauge-equiv": (cmd_gauge_equiv, "test two twists for gauge equivalence",
                    ()),
    "reduce-classical": (cmd_reduce_classical,
                         "reduce a classical solution to a bivector",
                         ("rmatrix", "order", "shdeg")),
    "prop-suite": (cmd_prop_suite, "run the seeded invariant suites",
                   ("shdeg", "seed")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dyntwist",
        description="Exact twist quantization of formal dynamical r-matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--algebra", required=True,
                       help="path to the algebra document")
        if "rmatrix" in flags:
            p.add_argument("--rmatrix", required=name != "verify-twist",
                           help="path to the r-matrix document")
        if "order" in flags:
            p.add_argument("--order", type=int, default=3,
                           help="hbar truncation order (default 3)")
        if "shdeg" in flags:
            p.add_argument("--shdeg", type=int, default=None,
                           help="leg-degree bound for classical checks")
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=None,
                           help="seed for sampled checks and perturbations")
        p.add_argument("--out", default=None,
                       help="write the report (or twist) to this path")
        if name == "verify-twist":
            p.add_argument("twist", help="twist document to verify")
        if name == "gauge-equiv":
            p.add_argument("twist", help="first twist document")
            p.add_argument("twist2", help="second twist document")
    return parser


def _check_bounds(args):
    for flag in ("order", "shdeg"):
        value = getattr(args, flag, None)
        if value is None:
            continue
        if value < 0:
            raise SchemaError(f"--{flag} must be >= 0, got {value}")
        if value > schema.MAX_ORDER:
            raise SchemaError(
                f"--{flag} must be <= {schema.MAX_ORDER}, got {value}"
            )


def _slice(exc):
    """' at order n, arity k, length L' for the slice fields exc carries."""
    parts = [
        f"{name} {getattr(exc, name)}"
        for name in ("order", "arity", "length")
        if getattr(exc, name, None) is not None
    ]
    return " at " + ", ".join(parts) if parts else ""


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fn = _COMMANDS[args.command][0]
    try:
        _check_bounds(args)
        return fn(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ObstructionNotRepaired, StraighteningStalled, NoSolution) as exc:
        print(f"solver failure ({type(exc).__name__}){_slice(exc)}: {exc}",
              file=sys.stderr)
        return EXIT_OBSTRUCTION
    except NotMaurerCartan as exc:
        print(f"residual failure: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL
    except DyntwistError as exc:
        print(f"input error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        # schema.load_file turns read failures into SchemaError, so this
        # is a failed write of the report or the twist
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    code = main()
    try:
        # a stream is None when its descriptor was closed at startup
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        # teardown reports the failed flush and exits 120
        sys.exit(code)
    os._exit(code)
