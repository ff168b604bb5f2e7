"""Only `linalg` eliminates: no other module calls or reads `rref`.

Every other module hands keyed columns to `linalg.solve`, `pivots`,
`rank`, `kernel_basis` or `cohomology_dims`, so no caller numbers
columns by hand.  A plain `from .linalg import rref` only binds the
name (`linfinity` keeps one for the benchmark's tracer test); any use
of the bound name is an `ast.Name` and shows here.
"""

import ast
import pathlib

import dyntwist

SRC = pathlib.Path(dyntwist.__file__).resolve().parent


def _uses_rref(tree):
    """Lines of tree that read, define or rename the name `rref`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            hit = any(alias.name == "rref" and alias.asname
                      for alias in node.names)
        elif isinstance(node, ast.Name):
            hit = node.id == "rref"
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "rref"
        elif isinstance(node, ast.FunctionDef):
            hit = node.name == "rref"
        else:
            hit = False
        if hit:
            out.append(node.lineno)
    return out


def test_only_linalg_uses_rref():
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"
        for line in _uses_rref(ast.parse(path.read_text()))
    ]
    assert not offenders


def test_linalg_defines_rref():
    assert _uses_rref(ast.parse((SRC / "linalg.py").read_text()))
