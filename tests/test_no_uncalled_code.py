"""Every definition in `src/dyntwist` is reached from outside the tests.

Liveness is reachability.  The definitions are the module-level
functions and classes of `src/` and the public methods of its classes.
The roots are the module-level code of `src/`, `demos/` and
`perfbench/`, and every definition in `demos/` and `perfbench/`.  A
definition is live when a live scope references it, and a scope in
`src/` is live when the innermost definition around it is: a private
method or a nested function belongs to the definition that holds it.
So code that only calls itself stays dead, and so do two definitions
that only call each other.

A reference is a name or an attribute with the same identifier, but only
an attribute refers to a method.  The scan does not resolve types, so
`x.apply` counts for every method named `apply`; but a call `x.ad(lie,
i)` counts only for the methods whose parameters can take its
arguments, so a method whose name another class's method shares is not
kept alive by calls that fit that other method alone.  An import only
binds a name, so it is not a reference, and neither is a re-export in
`__init__.py`.  Code that only the tests reach lives in the tests:
`tests/oracles.py` and `tests/reference_kernels.py`.
"""

import ast
import pathlib
import shutil

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dyntwist"
CALLER_DIRS = [ROOT / "demos", ROOT / "perfbench"]
NAME = "name"


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


def _unreachable(src=SRC, caller_dirs=CALLER_DIRS):
    """The definitions in src that no root reaches, as module.qualname."""
    defs = {(path, qual): fits for path in sorted(src.glob("*.py"))
            for qual, fits in _definitions(path)}
    named = {}  # identifier: the definitions it can name
    for path, qual in defs:
        named.setdefault(qual.rsplit(".", 1)[-1], []).append((path, qual))
    uses = {}  # owning definition, or None for a root: [(identifier, use)]
    for folder in [src, *caller_dirs]:
        for path in sorted(folder.glob("*.py")):
            if path.name == "__init__.py":
                continue
            for ident, scope, use in _references(path):
                owner = None
                if folder == src:
                    owner = next((d for d in ((path, q) for q in scope[::-1])
                                  if d in defs), None)
                uses.setdefault(owner, []).append((ident, use))
    live = set()
    pending = [None]
    while pending:
        for ident, use in uses.pop(pending.pop(), ()):
            for d in named.get(ident, ()):
                if d not in live and defs[d](use):
                    live.add(d)
                    pending.append(d)
    return sorted(f"{path.stem}.{qual}" for path, qual in defs
                  if (path, qual) not in live)


def test_every_definition_has_a_caller_outside_the_tests():
    assert _unreachable() == []


def _plant(tmp_path, source):
    """The scan of a copy of src/dyntwist with `source` as planted.py."""
    src = tmp_path / "dyntwist"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    (src / "planted.py").write_text(source)
    return _unreachable(src)


def test_a_planted_definition_only_the_tests_call_is_found(tmp_path):
    source = ("def shipped():\n    return 1\n\n\n"
              "def only_tested():\n    return shipped()\n\n\n"
              "SHIPPED = shipped()\n")
    assert _plant(tmp_path, source) == ["planted.only_tested"]


def test_a_planted_dead_cycle_is_found(tmp_path):
    # both classes are live, and each method's only caller is the other
    # class's method of the same name, which nothing live calls
    source = "".join(
        f"class Planted{side}:\n"
        "    def planted_draw(self, other, n):\n"
        "        return other.planted_draw(self, n - 1) if n else self\n\n\n"
        for side in ("Left", "Right")
    ) + "PAIR = (PlantedLeft(), PlantedRight())\n"
    assert _plant(tmp_path, source) == [
        "planted.PlantedLeft.planted_draw",
        "planted.PlantedRight.planted_draw",
    ]
