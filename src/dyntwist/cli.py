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

parse_args reads the command line from the command and flag tables
below, not through argparse, whose import and parser build cost a few
ms in every process, more than some commands' own work.  A help request
prints to stdout and returns 0; a refused command line prints a usage
line and an error to stderr and returns 2; main() raises no SystemExit.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace

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
)
from .gauge import find_gauge, reduce_classical
from .quantizer import (
    RMatrix,
    dte_residual,
    k_to_j,
    semiclassical_check,
    solve_adte,
    taylor_rescale,
    valuation_certificate,
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
    # RMatrix raises on a body that is not invariant, of the wrong
    # grading or with a nonzero residual head: built, it passed all three
    rep.check("invariance and grading", True)
    if rho.truncation == 0:
        rep.add("residual head: not checked (truncation 0 covers no leg "
                "degree)")
    else:
        rep.check("residual head", True)
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
        f <= n - 1 for n, f in enumerate(valuation_certificate(K)) if n)
    rep.check("valuation certificate", cert_ok)
    if cert_ok:
        J = k_to_j(uea, K)
        rep.check("formal equation residual (triangle)",
                  dte_residual(J).is_zero())
        if rho is not None and K.order == 0:
            rep.add("semiclassical comparison: not made (order 0 has "
                    "no hbar^1 layer)")
        elif rho is not None:
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
    square = cdyb_dgla.p1_project(lie,
                                  cdyb_dgla.bracket(lie, red.pi, red.pi))
    rep.check("restricted square", square.is_zero())
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

# flag: (type, default, help); every command requires --algebra, and
# each that reads --rmatrix requires it but verify-twist, whose
# semiclassical comparison is optional
_FLAGS = {
    "algebra": (str, None, "path to the algebra document"),
    "rmatrix": (str, None, "path to the r-matrix document"),
    "order": (int, 3, "hbar truncation order (default 3)"),
    "shdeg": (int, None, "leg-degree bound for classical checks"),
    "seed": (int, None, "seed for sampled checks and perturbations"),
    "out": (str, None, "write the report (or twist) to this path"),
}

# command: its positionals, in order, as (name, help)
_POSITIONALS = {
    "verify-twist": (("twist", "twist document to verify"),),
    "gauge-equiv": (("twist", "first twist document"),
                    ("twist2", "second twist document")),
}

# an argument that matches no flag but looks like a negative number is
# a value, so `--order -1` reaches _check_bounds (argparse's pattern)
_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"


class CommandLineExit(Exception):
    """The command line ends the run before any command starts.

    code is 0 for a help request, whose text goes to stdout, and 2 for
    a refused command line, whose usage and error go to stderr.
    """

    def __init__(self, code, text):
        super().__init__(text)
        self.code = code
        self.text = text


def _flags(command):
    return ("algebra", *_COMMANDS[command][2], "out")


def _required(command, flag):
    return flag == "algebra" or flag == "rmatrix" and command != "verify-twist"


def _usage(command):
    if command is None:
        return "usage: dyntwist [-h] {" + ",".join(_COMMANDS) + "} ..."
    parts = ["usage: dyntwist", command, "[-h]"]
    for flag in _flags(command):
        part = f"--{flag} {flag.upper()}"
        parts.append(part if _required(command, flag) else f"[{part}]")
    parts += [name for name, _ in _POSITIONALS.get(command, ())]
    return " ".join(parts)


def _refuse(command, message):
    prog = "dyntwist" if command is None else f"dyntwist {command}"
    return CommandLineExit(
        EXIT_INPUT, f"{_usage(command)}\n{prog}: error: {message}")


def _help(command, value=None):
    """The help of the command (None: of dyntwist), or the refusal of a
    help flag given a value, as in `-hx` or `--help=x`."""
    if value is not None:
        return _refuse(command, "argument -h/--help: ignored explicit "
                       f"argument {value!r}")
    if command is None:
        description = "Exact twist quantization of formal dynamical r-matrices"
        sections = [("commands", [(name, entry[1])
                                  for name, entry in _COMMANDS.items()])]
        options = []
    else:
        description = _COMMANDS[command][1]
        sections = []
        if command in _POSITIONALS:
            sections.append(("positional arguments", _POSITIONALS[command]))
        options = [(f"--{flag} {flag.upper()}", _FLAGS[flag][2])
                   for flag in _flags(command)]
    sections.append(("options", [("-h, --help",
                                  "show this help message and exit")]
                     + options))
    width = max(len(name) for _, rows in sections for name, _ in rows)
    lines = [_usage(command), "", description]
    for title, rows in sections:
        lines += ["", f"{title}:"]
        lines += [f"  {name:<{width}}  {text}" for name, text in rows]
    return CommandLineExit(EXIT_PASS, "\n".join(lines))


def _option(arg, flags, command):
    """How argparse reads one argument before `--`.

    None for a value, "" for an option that matches no flag, else
    (flag, the value after "=" or None), where "help" stands for
    -h/--help.  A long option may be cut to a prefix of one flag alone;
    a prefix of more is refused.
    """
    if arg[:1] != "-" or arg == "-":
        return None
    if arg[1] != "-":
        if arg[1] == "h":
            return "help", (None if arg == "-h" else
                            arg[3:] if arg[2] == "=" else arg[2:])
    else:
        name, eq, value = arg.partition("=")
        matches = [flag for flag in ("help", *flags) if "--" + flag == name]
        matches = matches or [flag for flag in ("help", *flags)
                              if ("--" + flag).startswith(name)]
        if len(matches) > 1:
            raise _refuse(command, f"ambiguous option: {arg} could match "
                          + ", ".join("--" + flag for flag in matches))
        if matches:
            return matches[0], value if eq else None
    if " " in arg or re.match(_NEGATIVE, arg):
        return None
    return ""


def parse_args(argv):
    """The namespace of the command that argv runs, read from the tables.

    The grammar is what the argparse parser of `tests/oracles.py`
    accepts in real use: the command first, then in any order its flags
    as `--flag VALUE`, `--flag=VALUE` or cut to an unambiguous prefix
    (the last of a repeated flag wins), its positionals, and -h/--help;
    every argument after `--` is a positional.  Raises CommandLineExit
    for a help request and for a command line it refuses, with
    argparse's wording of the error.
    """
    if not argv:
        raise _refuse(None, "the following arguments are required: command")
    command, args = argv[0], argv[1:]
    if command not in _COMMANDS:
        top = command != "--" and _option(command, (), None)
        if top:
            raise _help(None, top[1])
        raise _refuse(None, f"argument command: invalid choice: {command!r} "
                      "(choose from " + ", ".join(map(repr, _COMMANDS)) + ")")
    flags = _flags(command)
    names = [name for name, _ in _POSITIONALS.get(command, ())]
    values = {"command": command}
    values.update((flag, _FLAGS[flag][1]) for flag in flags)
    end = args.index("--") if "--" in args else len(args)
    # argparse reads every argument before it takes any, so an ambiguous
    # prefix is refused wherever it stands, even after -h
    kinds = [_option(arg, flags, command) for arg in args[:end]]
    free, extras = [], []
    i = 0
    while i < end:
        arg, kind = args[i], kinds[i]
        i += 1
        if kind is None:
            (free if len(free) < len(names) else extras).append(arg)
            continue
        if kind == "":
            extras.append(arg)
            continue
        flag, value = kind
        if flag == "help":
            raise _help(command, value)
        if value is None:
            if i == end or kinds[i] is not None:
                raise _refuse(command,
                              f"argument --{flag}: expected one argument")
            value = args[i]
            i += 1
        convert = _FLAGS[flag][0]
        try:
            values[flag] = convert(value)
        except ValueError:
            raise _refuse(command, f"argument --{flag}: invalid "
                          f"{convert.__name__} value: {value!r}") from None
    for arg in args[end + 1:]:
        (free if len(free) < len(names) else extras).append(arg)
    values.update(zip(names, free))
    missing = [f"--{flag}" for flag in flags
               if _required(command, flag) and values[flag] is None]
    missing += names[len(free):]
    if missing:
        raise _refuse(command, "the following arguments are required: "
                      + ", ".join(missing))
    if extras:
        raise _refuse(command, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**values)


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
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except CommandLineExit as exc:
        print(exc.text, file=sys.stderr if exc.code else sys.stdout)
        return exc.code
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
