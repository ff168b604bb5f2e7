"""Every definition in `src/dyntwist` is reached from outside the tests.

Each module-level function and class, and each public method, must be
referenced from `src/`, `demos/` or `perfbench/` somewhere other than its
own definition.  A reference is a name or an attribute with the same
identifier, but only an attribute refers to a method, and a reference
from inside unreferenced code does not count.  The scan does not resolve
types, so `x.apply` counts for every method named `apply`; but a call
`x.ad(lie, i)` counts only for the methods whose parameters can take
its arguments, so a method whose name another class's method shares is
not kept alive by calls that fit that other method alone.  An import
only binds a name, so it is not a reference, and neither is a re-export
in `__init__.py`.  Code that only tests reach either goes or is listed
in ALLOWED with its reason.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dyntwist"
CALLER_DIRS = [SRC, ROOT / "demos", ROOT / "perfbench"]
NAME = "name"

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
}


def _always(use):
    return True


def _takes(method):
    """Whether a use of the method can reach it.

    A use is NAME for a bare name, which never refers to a method, None
    for an attribute that is not called, or the Call of the attribute,
    which reaches the method when its parameters can bind the arguments.
    """
    a = method.args
    params = a.posonlyargs + a.args
    if not any(isinstance(d, ast.Name) and d.id == "staticmethod"
               for d in method.decorator_list):
        params = params[1:]
    names = {p.arg for p in params + a.kwonlyargs}
    required = len(params) - len(a.defaults)

    def fits(use):
        if use is None or use is NAME:
            return use is None
        if any(isinstance(x, ast.Starred) for x in use.args) or any(
                k.arg is None for k in use.keywords):
            return True
        if len(use.args) > len(params) and a.vararg is None:
            return False
        if any(k.arg not in names for k in use.keywords) and a.kwarg is None:
            return False
        return len(use.args) + len(use.keywords) >= required

    return fits


def _definitions(path):
    """(qualified name, fits) of the top-level defs and public methods.

    fits(use) tells whether a use of the name can reach the definition
    (`_takes`); it holds for every use of a function or a class.
    """
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, _always))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{item.name}", _takes(item))
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")]
    return out


def _references(path):
    """(identifier, enclosing qualified def names, use) per reference.

    use is NAME for a name, and for an attribute the Call node that calls
    it, or None.
    """
    out = []

    def visit(node, scope, call=None):
        if isinstance(node, ast.Name):
            out.append((node.id, scope, NAME))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, scope, call))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (".".join(scope[-1:] + (node.name,)),)
        for child in ast.iter_child_nodes(node):
            called = isinstance(node, ast.Call) and child is node.func
            visit(child, scope, node if called else None)

    visit(ast.parse(path.read_text()), ())
    return out


def _unreferenced():
    """Definitions with no reference outside themselves and dead code.

    Dead code is an unreferenced definition that ALLOWED does not keep;
    a reference from inside it does not count, so the scan repeats until
    no definition is added.
    """
    refs = {}  # identifier: [(file, enclosing scope, use)]
    for folder in CALLER_DIRS:
        for path in sorted(folder.glob("*.py")):
            if path.name != "__init__.py":
                for ident, scope, use in _references(path):
                    refs.setdefault(ident, []).append((path, scope, use))
    defs = [(path, qual, fits) for path in sorted(SRC.glob("*.py"))
            for qual, fits in _definitions(path)]
    dead: set = set()
    while True:
        out = [
            f"{path.stem}.{qual}" for path, qual, fits in defs
            if all(p == path and qual in scope
                   or any((p, q) in dead for q in scope)
                   for p, scope, use in refs.get(qual.rsplit(".", 1)[-1], ())
                   if fits(use))
        ]
        grown = {(SRC / f"{name.split('.', 1)[0]}.py", name.split(".", 1)[1])
                 for name in out if name not in ALLOWED}
        if grown <= dead:
            return out
        dead |= grown


def test_every_definition_has_a_caller_outside_the_tests():
    assert sorted(set(_unreferenced()) - set(ALLOWED)) == []


def test_every_allowed_entry_is_still_uncalled():
    # an entry that gained a caller no longer needs its exemption
    assert sorted(set(ALLOWED) - set(_unreferenced())) == []
