"""Only `hseries` knows how an element stores its coefficients.

Every other module reaches coefficients through `SparseSeries`: `layer`,
`layer_terms`, `map_keys`, `from_layers`, `keys`, `series_repr` and the
element arithmetic (one measured exception: `LAYER_READERS`).  No module
names HSeries, and none reads the per-key HSeries view `terms`.

`HSeries` itself is a read-only coefficient record with no arithmetic.
The references that work on whole coefficients live in
`tests/reference_kernels.py` and compute in the ring of `tests/ring.py`,
a subclass of the record.

No module compares two elements by building their difference: `a == b`
reads the stored layers, where `(a - b).is_zero()` builds a - b first.

No module uses true division: integral values are ints, and `a / b` of
two ints is a float.
"""

import ast
import inspect
import pathlib

import dyntwist
from dyntwist.hseries import HSeries

SRC = pathlib.Path(dyntwist.__file__).resolve().parent
NAMES = {"HSeries"}
OWNERS = {"hseries.py", "__init__.py"}


def _uses(tree):
    """(enclosing top-level function or None, line) per use of NAMES."""
    out = []

    def visit(node, func):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in NAMES:
                    out.append(("import", node.lineno))
        elif isinstance(node, ast.Name) and node.id in NAMES:
            out.append((func, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr in NAMES:
            out.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func if func is not None
                  or not isinstance(child, ast.FunctionDef) else child.name)

    visit(tree, None)
    return out


def test_only_hseries_knows_the_coefficient_format():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in OWNERS:
            continue
        for where, line in _uses(ast.parse(path.read_text())):
            offenders.append(f"{path.name}:{line} ({where})")
    assert not offenders


def test_no_module_reads_the_per_key_view():
    """`terms` builds one HSeries per key; the package reads layers."""
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "hseries.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "terms"
    ]
    assert not offenders


RING_DUNDERS = {
    f"__{op}__" for op in (
        "add", "radd", "iadd", "sub", "rsub", "isub", "mul", "rmul", "imul",
        "truediv", "rtruediv", "floordiv", "pow", "neg", "pos", "abs",
        "eq", "ne", "lt", "le", "gt", "ge", "hash", "repr", "str", "bool",
    )
}


def test_src_hseries_is_a_record():
    """The package's HSeries carries coefficients and computes nothing.

    `test_no_uncalled_code` skips every name that starts with `_`, so a
    ring of dunders would pass its reachability scan; this pins the
    record, and the tests' ring lives in `tests/ring.py`.
    """
    names = {n for n in vars(HSeries)
             if not (n.startswith("__") and n.endswith("__"))}
    assert names == {"coeffs", "order", "zero", "hbar", "valuation"}
    assert not RING_DUNDERS & set(vars(HSeries))
    assert list(inspect.signature(HSeries).parameters) == ["coeffs", "order"]


# `adt_dgla.mc_residual` sums -b(K - 1) and {K - 1 | K - 1} in one pass
# per layer; the same sum in element arithmetic costs about 8 us more a
# call on `prop-suite`'s twists, which the `identities` benchmark reads
LAYER_READERS = {("adt_dgla.py", "mc_residual")}


def _layer_reads(tree):
    """(enclosing top-level function or None, line) per read of `layers`,
    `_direct` or `_same_space`."""
    out = []
    for top in tree.body:
        where = top.name if isinstance(top, ast.FunctionDef) else None
        out += [(where, node.lineno) for node in ast.walk(top)
                if isinstance(node, ast.Attribute)
                and node.attr in {"layers", "_direct", "_same_space"}]
    return out


def test_no_module_reads_the_stored_layers():
    offenders = [
        f"{path.name}:{line} ({where})"
        for path in sorted(SRC.glob("*.py")) if path.name != "hseries.py"
        for where, line in _layer_reads(ast.parse(path.read_text()))
        if (path.name, where) not in LAYER_READERS
    ]
    assert not offenders


def _zero_tests_of_differences(tree):
    """Lines that call `.is_zero()` on a `-` expression."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "is_zero"
        and isinstance(node.func.value, ast.BinOp)
        and isinstance(node.func.value.op, ast.Sub)
    ]


def test_no_module_builds_a_difference_to_compare():
    """`a == b` reads the stored layers; `(a - b).is_zero()` builds a - b."""
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _zero_tests_of_differences(ast.parse(path.read_text()))
    ]
    assert not offenders


def test_no_module_uses_true_division():
    """Exact quotients go through `hseries.quotient` or `Fraction`."""
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, ast.Div)
    ]
    assert not offenders
