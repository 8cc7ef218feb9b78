"""Every private definition of the package has a reader.

The scan is stdlib-only: it parses each module of src/barl1, lists the
private (single leading underscore) module-level functions and classes
and the private methods, and looks for a read of each name, as a
loaded name or attribute, anywhere in the package outside the lines of
its own definition.  A helper that only calls itself, or that nothing
calls after a refactor, has no reader.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "barl1").glob("*.py"))


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree):
    """(name, first line, last line) of each private module-level
    function or class and each private method."""
    defs = []
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and _private(node.name):
            defs.append(node)
        if isinstance(node, ast.ClassDef):
            defs += [m for m in node.body
                     if isinstance(m, kinds) and _private(m.name)]
    return [(d.name, d.lineno, d.end_lineno) for d in defs]


def reads(tree):
    """(name, line) of every loaded name and attribute."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, node.lineno))
    return out


def unread(sources):
    """Private definitions, as (module, name), that nothing reads
    outside their own lines; sources maps module name to its text."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = {mod: reads(tree) for mod, tree in trees.items()}
    out = []
    for mod, tree in trees.items():
        for name, first, last in private_definitions(tree):
            if not any(n == name and (m != mod or not first <= line <= last)
                       for m, rs in read.items() for n, line in rs):
                out.append((mod, name))
    return out


def test_the_scan_sees_an_unread_helper():
    src = ("def _used():\n    return 1\n\n"
           "def _recursive(n):\n    return _recursive(n - 1)\n\n"
           "class A:\n    def _m(self):\n        return _used()\n"
           "    def _n(self):\n        return self._n()\n")
    assert unread({"m": src}) == [("m", "_recursive"), ("m", "_m"), ("m", "_n")]
    assert unread({"m": src, "n": "from m import A\nA()._m()\n"}) == [
        ("m", "_recursive"), ("m", "_n")]


def test_every_private_definition_has_a_reader():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert sum(len(private_definitions(ast.parse(t)))
               for t in sources.values()) > 0
    assert unread(sources) == []
