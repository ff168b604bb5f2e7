"""Nothing in `src/dyntwist` waits on interpreter teardown.

A command-line run ends through os._exit once its report is flushed (see
`dyntwist.cli`), so module cleanup, the last garbage collection and the
atexit hooks never run.  That loses nothing only while the package
registers no atexit hook, defines no __del__, calls no weakref.finalize
and opens every file as the item of a `with` statement, which closes it
before main() returns.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dyntwist"


def _offenders(source):
    """(line, what) for each construct that relies on teardown."""
    tree = ast.parse(source)
    managed = {id(item.context_expr) for node in ast.walk(tree)
               if isinstance(node, (ast.With, ast.AsyncWith))
               for item in node.items}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, f"import {a.name}") for a in node.names
                    if a.name.split(".")[0] == "atexit"]
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if node.module == "atexit" or (node.module == "weakref"
                                           and "finalize" in names):
                out.append((node.lineno, f"from {node.module} import"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "__del__":
                out.append((node.lineno, "def __del__"))
        elif isinstance(node, ast.Attribute):
            if (node.attr == "finalize" and isinstance(node.value, ast.Name)
                    and node.value.id == "weakref"):
                out.append((node.lineno, "weakref.finalize"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else getattr(func, "attr", None))
            if name == "open" and id(node) not in managed:
                out.append((node.lineno, "open() outside a with item"))
    return out


def test_the_package_needs_no_teardown():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = {path.name: _offenders(path.read_text()) for path in paths}
    assert {name: hits for name, hits in found.items() if hits} == {}


@pytest.mark.parametrize("source", [
    "import atexit\n",
    "import atexit as quit_hooks\n",
    "from atexit import register\n",
    "class A:\n    def __del__(self):\n        pass\n",
    "import weakref\nweakref.finalize(object(), print)\n",
    "from weakref import finalize\n",
    "fh = open('report.txt', 'w')\n",
    "import io\nfh = io.open('report.txt')\n",
    "with open('a') as a:\n    b = open('b')\n",
])
def test_a_planted_offender_is_found(source):
    assert _offenders(source)


def test_files_opened_as_with_items_pass():
    source = ("import weakref\ncache = weakref.WeakKeyDictionary()\n"
              "with open('a') as a, open('b', 'w') as b:\n"
              "    b.write(a.read())\n")
    assert _offenders(source) == []
