"""Only `hseries` knows that a coefficient is a per-key HSeries.

Every other module reaches coefficients through `SparseSeries`: its
layers, `map_keys`, `from_layers` and the element arithmetic.  The one
exception is the star-product reference `quantizer.pbw_star` with its
helper `_poly_to_series`, which the tests compare the layered star
product against.

No module compares two elements by building their difference: `a == b`
reads the stored terms, where `(a - b).is_zero()` builds a - b first.
"""

import ast
import pathlib

import dyntwist

SRC = pathlib.Path(dyntwist.__file__).resolve().parent
NAMES = {"HSeries", "as_series"}
OWNERS = {"hseries.py", "__init__.py"}
ALLOWED = {"quantizer.py": {"pbw_star", "_poly_to_series"}}


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
        allowed = ALLOWED.get(path.name, set())
        for where, line in _uses(ast.parse(path.read_text())):
            if where == "import" and allowed or where in allowed:
                continue
            offenders.append(f"{path.name}:{line} ({where})")
    assert not offenders


def test_the_allowed_star_product_reference_exists():
    tree = ast.parse((SRC / "quantizer.py").read_text())
    uses = {where for where, _ in _uses(tree)}
    assert uses == {"import"} | ALLOWED["quantizer.py"]


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
    """`a == b` reads the stored terms; `(a - b).is_zero()` builds a - b."""
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _zero_tests_of_differences(ast.parse(path.read_text()))
    ]
    assert not offenders
