"""Line-oriented text formats for algebras, r-matrices, and twists.

All files are UTF-8 with '#' comments, blank-line tolerant, and carry
exact rationals serialized as p/q.  Blocks start with a bare keyword and
close with `end`:

    algebra
    dim 3
    basis e h f
    h_indices 1
    mode reductive
    bracket 0 1 -> (-2, 0)
    end

    rmatrix
    term 1 * e^f * 1
    term 1 * e^f * h
    end

    twist
    arity 2
    order 3
    hbar 0
    term 1 * (1 | 1 | 1)
    hbar 1
    term 1 * (e | f | 1)
    end

Monomials are basis names joined with '.', `1` for the empty word; the
r-matrix leg is a '.'-joined word in base names.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .adt_dgla import AdtElement
from .errors import AlgebraError, DecompositionError, SchemaError
from .hseries import add_into, canonical
from .lie_core import LieData
from .tensor_spaces import CdybElement
from .uea import UEnvelope

# The highest hbar order a twist header or `--order` may declare, and the
# highest `--shdeg`.  Every coefficient is stored as order + 1 rationals,
# so an unbounded header would allocate without end, and the classical
# checks grow without end in `--shdeg`; the highest order any command
# reaches in practice (reduce-classical on affxc2) is 10.
MAX_ORDER = 64

# Characters the monomial and term syntax gives a meaning; a basis name
# containing one (or the name '1', the empty word) could not be read back.
_SYNTAX = ".^|*(),"


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_blocks(text):
    """Split a document into named blocks of payload lines."""
    blocks = []
    current = None
    for lineno, line in _lines(text):
        if current is None:
            parts = line.split()
            if len(parts) != 1:
                raise SchemaError(
                    f"line {lineno}: expected a block keyword, got {line!r}"
                )
            current = (parts[0], [])
        elif line == "end":
            blocks.append(current)
            current = None
        else:
            current[1].append((lineno, line))
    if current is not None:
        raise SchemaError(f"block {current[0]!r} is not closed with 'end'")
    return blocks


def _find_block(blocks, name):
    found = [payload for n, payload in blocks if n == name]
    if not found:
        raise SchemaError(f"no {name!r} block in document")
    if len(found) > 1:
        raise SchemaError(f"multiple {name!r} blocks in document")
    return found[0]


def _rational(tok, lineno):
    """The token as a canonical rational (an int when integral).

    An exponent would make Fraction build 10**exponent before any bound
    could be checked, so only the p/q and decimal forms are read.
    """
    try:
        if "e" in tok.lower():
            raise ValueError(tok)
        return canonical(Fraction(tok))
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"line {lineno}: bad rational {tok!r}") from None


def _int(tok, lineno) -> int:
    try:
        return int(tok)
    except ValueError:
        raise SchemaError(
            f"line {lineno}: expected an integer, got {tok!r}"
        ) from None


def _header_count(parts, lineno) -> int:
    """The value of a `dim`, `arity`, `order` or `hbar` line: an int >= 0."""
    if len(parts) != 2:
        raise SchemaError(f"line {lineno}: expected '{parts[0]} <integer>'")
    value = _int(parts[1], lineno)
    if value < 0:
        raise SchemaError(f"line {lineno}: {parts[0]} must be >= 0")
    return value


# -- algebra ----------------------------------------------------------------


def parse_algebra(text) -> LieData:
    payload = _find_block(parse_blocks(text), "algebra")
    dim = None
    basis = None
    h_indices = []
    mode = "reductive"
    brackets = {}
    seen = set()  # header keys and unordered bracket pairs already read
    for lineno, line in payload:
        parts = line.split()
        key = parts[0]
        if key in ("dim", "basis", "h_indices", "mode"):
            if key in seen:
                raise SchemaError(f"line {lineno}: repeated {key!r} line")
            seen.add(key)
        if key == "dim":
            dim = _header_count(parts, lineno)
        elif key == "basis":
            basis = parts[1:]
            bad = [n for n in basis if n == "1" or set(n) & set(_SYNTAX)]
            if bad:
                raise SchemaError(
                    f"line {lineno}: basis name {bad[0]!r} is '1' or "
                    f"contains one of {_SYNTAX!r}"
                )
        elif key == "h_indices":
            h_indices = [_int(p, lineno) for p in parts[1:]]
        elif key == "mode":
            if len(parts) != 2:
                raise SchemaError(f"line {lineno}: expected 'mode <name>'")
            mode = parts[1]
        elif key == "bracket":
            if len(parts) < 4 or parts[3] != "->":
                raise SchemaError(
                    f"line {lineno}: expected 'bracket i j -> (coeff, k)...'"
                )
            i, j = _int(parts[1], lineno), _int(parts[2], lineno)
            pair = frozenset((i, j))
            if pair in seen:
                raise SchemaError(
                    f"line {lineno}: a second bracket line for {i}, {j}"
                )
            seen.add(pair)
            rest = " ".join(parts[4:])
            comps = {}
            for chunk in rest.replace(")", ")\x00").split("\x00"):
                chunk = chunk.strip().lstrip(",").strip()
                if not chunk:
                    continue
                if not (chunk.startswith("(") and chunk.endswith(")")):
                    raise SchemaError(
                        f"line {lineno}: expected '(coeff, k)' pairs, "
                        f"got {chunk!r}"
                    )
                inner = chunk[1:-1].split(",")
                if len(inner) != 2:
                    raise SchemaError(f"line {lineno}: bad pair {chunk!r}")
                k = _int(inner[1], lineno)
                if k in comps:
                    raise SchemaError(
                        f"line {lineno}: output index {k} repeated"
                    )
                comps[k] = _rational(inner[0].strip(), lineno)
            brackets[(i, j)] = comps
        else:
            raise SchemaError(f"line {lineno}: unknown algebra key {key!r}")
    if dim is None or basis is None:
        raise SchemaError("algebra block needs 'dim' and 'basis'")
    if len(basis) != dim:
        raise SchemaError(f"dim {dim} does not match {len(basis)} basis names")
    try:
        return LieData(basis, brackets, h_indices, mode=mode)
    except (AlgebraError, DecompositionError) as exc:
        raise SchemaError(f"invalid algebra: {exc}") from exc


# -- monomials --------------------------------------------------------------


def _parse_mono(tok, lie: LieData, lineno):
    if tok == "1":
        return ()
    return tuple(lie.index_of(name) for name in tok.split("."))


def _dump_mono(mono, lie: LieData) -> str:
    if not mono:
        return "1"
    return ".".join(lie.name_of(i) for i in mono)


# -- r-matrix ---------------------------------------------------------------


def parse_rmatrix(text, lie: LieData, order: int) -> CdybElement:
    payload = _find_block(parse_blocks(text), "rmatrix")
    body = CdybElement.zero(order)
    for lineno, line in payload:
        parts = line.split()
        if parts[0] != "term" or len(parts) != 6 or parts[2] != "*" or parts[4] != "*":
            raise SchemaError(
                f"line {lineno}: expected 'term coeff * a^b * leg'"
            )
        coeff = _rational(parts[1], lineno)
        wedge_tok = parts[3]
        if "^" not in wedge_tok:
            raise SchemaError(f"line {lineno}: expected a wedge a^b")
        a, b = wedge_tok.split("^", 1)
        wedge = (lie.index_of(a), lie.index_of(b))
        leg = _parse_mono(parts[5], lie, lineno)
        for i in leg:
            if not lie.is_h(i):
                raise SchemaError(
                    f"line {lineno}: leg letter {lie.name_of(i)!r} is not "
                    "in the base subalgebra"
                )
        body = body + CdybElement.monomial(wedge, leg, coeff, order)
    return body


# -- twists -----------------------------------------------------------------


def parse_twist(text, uea: UEnvelope) -> AdtElement:
    payload = _find_block(parse_blocks(text), "twist")
    lie = uea.lie
    arity = None
    order = None
    level = None
    levels: dict = {}
    for lineno, line in payload:
        parts = line.split()
        key = parts[0]
        if (key == "arity" and arity is not None
                or key == "order" and order is not None):
            raise SchemaError(f"line {lineno}: repeated {key!r} line")
        if key == "arity":
            arity = _header_count(parts, lineno)
        elif key == "order":
            order = _header_count(parts, lineno)
            if order > MAX_ORDER:
                raise SchemaError(
                    f"line {lineno}: order must be <= {MAX_ORDER}"
                )
        elif key == "hbar":
            level = _header_count(parts, lineno)
        elif key == "term":
            if arity is None or order is None or level is None:
                raise SchemaError(
                    f"line {lineno}: term before arity/order/hbar headers"
                )
            if level > order:
                raise SchemaError(
                    f"line {lineno}: hbar {level} exceeds the order {order}"
                )
            if len(parts) < 4 or parts[2] != "*":
                raise SchemaError(
                    f"line {lineno}: expected 'term coeff * (m | ... | leg)'"
                )
            coeff = _rational(parts[1], lineno)
            body = " ".join(parts[3:]).strip()
            if not (body.startswith("(") and body.endswith(")")):
                raise SchemaError(f"line {lineno}: slots must be in (...)")
            slots = [s.strip() for s in body[1:-1].split("|")]
            if len(slots) != arity + 1:
                raise SchemaError(
                    f"line {lineno}: expected {arity + 1} slots, "
                    f"got {len(slots)}"
                )
            words = [_parse_mono(s, lie, lineno) for s in slots]
            for i in words[-1]:
                if not lie.is_h(i):
                    raise SchemaError(
                        f"line {lineno}: leg letter {lie.name_of(i)!r} is "
                        "not in the base subalgebra"
                    )
            # slot words, the leg included, need not arrive straightened
            terms = levels.setdefault(level, {})
            for combo in product(*(uea.straighten(w).items() for w in words)):
                c = coeff
                for _, d in combo:
                    c = c * d
                add_into(terms, tuple(m for m, _ in combo), c)
        else:
            raise SchemaError(f"line {lineno}: unknown twist key {key!r}")
    if arity is None or order is None:
        raise SchemaError("twist block needs 'arity' and 'order'")
    layers = [levels.get(n, {}) for n in range(order + 1)]
    return AdtElement.from_layers(uea, arity, layers)


def dump_twist(K: AdtElement) -> str:
    lie = K.uea.lie
    out = ["twist", f"arity {K.arity}", f"order {K.order}"]
    for n in range(K.order + 1):
        layer = K.layer(n)
        if not layer:
            continue
        out.append(f"hbar {n}")
        for key, a in sorted(layer.items()):
            slots = " | ".join(_dump_mono(m, lie) for m in key)
            out.append(f"term {a} * ({slots})")
    out.append("end")
    return "\n".join(out) + "\n"


def load_file(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
