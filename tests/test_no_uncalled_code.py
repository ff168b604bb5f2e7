"""Every definition in `src/dyntwist` is reached from outside the tests.

Each module-level function and class, and each public method, must be
referenced from `src/`, `demos/` or `perfbench/` somewhere other than its
own definition.  A reference is a name or an attribute with the same
identifier; the scan does not resolve types, so `x.apply` counts for
every method named `apply`.  An import only binds a name, so it is not
a reference, and neither is a re-export in `__init__.py`.  Code that
only tests reach either goes or is listed in ALLOWED with its reason.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dyntwist"
CALLER_DIRS = [SRC, ROOT / "demos", ROOT / "perfbench"]

ALLOWED = {
    "linfinity.check_morphism":
        "oracle: certifies the L-infinity towers in the acceptance tests",
    "linfinity.twist_by_homotopy":
        "oracle: the twisting of a tower by a homotopy, acceptance test 4",
    "gauge.classical_gauge_infinitesimal":
        "oracle: the affine-shift form of the classical flow",
    "gauge.rescale_generator":
        "oracle: intertwines the two classical flow forms",
    "adt_dgla.alt":
        "oracle: the left inverse of alt_embed, which the solver pins with",
    "linfinity.CdybDgla.filtration":
        "oracle: the filtration bound of the twisted classical towers",
    "hseries.HSeries.one": "tests build inputs with it",
    "hseries.SparseSeries.map_coeffs": "tests build inputs with it",
}


def _definitions(path):
    """Qualified names of the top-level defs and public methods."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")]
    return out


def _references(path):
    """(identifier, enclosing qualified def names) per name or attribute."""
    out = []

    def visit(node, scope):
        if isinstance(node, ast.Name):
            out.append((node.id, scope))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, scope))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (".".join(scope[-1:] + (node.name,)),)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return out


def _unreferenced():
    refs = {}  # identifier: [(file, enclosing scope)]
    for folder in CALLER_DIRS:
        for path in sorted(folder.glob("*.py")):
            if path.name != "__init__.py":
                for ident, scope in _references(path):
                    refs.setdefault(ident, []).append((path, scope))
    return [
        f"{path.stem}.{qual}"
        for path in sorted(SRC.glob("*.py"))
        for qual in _definitions(path)
        if all(p == path and qual in scope
               for p, scope in refs.get(qual.rsplit(".", 1)[-1], ()))
    ]


def test_every_definition_has_a_caller_outside_the_tests():
    assert sorted(set(_unreferenced()) - set(ALLOWED)) == []


def test_every_allowed_entry_is_still_uncalled():
    # an entry that gained a caller no longer needs its exemption
    assert sorted(set(ALLOWED) - set(_unreferenced())) == []
