"""Every public definition of the package has a caller outside the tests.

The scan is stdlib-only: it parses each module of src/barl1, lists the
public module-level functions and classes and the public methods of
classes (dunders skipped), and looks for a read of each name, as a
loaded name or attribute, in the package outside the lines of its own
definition or in the benchmark scripts perfbench/*.py.  A name that
barl1/__init__.py re-exports counts as read.  A function or method that
only the tests call has no reader.
"""

import ast
from pathlib import Path

from test_private_readers import reads

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "barl1").glob("*.py"))
CALLERS = sorted((ROOT / "perfbench").glob("*.py"))


def public_definitions(tree):
    """(label, name, first line, last line) of each public module-level
    function or class, labelled by its name, and of each public method,
    labelled Class.method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defs = []
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            defs.append((node.name, node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            defs += [("%s.%s" % (node.name, m.name), m.name, m.lineno,
                      m.end_lineno) for m in node.body
                     if isinstance(m, kinds) and not m.name.startswith("_")]
    return defs


def exports(tree):
    """The names a module re-exports through `from .x import ...`."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names}


def unread(sources, callers=()):
    """Public definitions, as (module, label), that nothing reads outside
    their own lines; sources maps package module name to its text, and
    callers are the texts of scripts outside the package."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = {mod: reads(tree) for mod, tree in trees.items()}
    outside = {n for text in callers for n, _ in reads(ast.parse(text))}
    if "__init__" in trees:
        outside |= exports(trees["__init__"])
    out = []
    for mod, tree in trees.items():
        for label, name, first, last in public_definitions(tree):
            if name in outside:
                continue
            if not any(n == name and (m != mod or not first <= line <= last)
                       for m, rs in read.items() for n, line in rs):
                out.append((mod, label))
    return out


def test_the_scan_sees_an_unread_public_function():
    src = ("def used():\n    return 1\n\n"
           "def recursive(n):\n    return recursive(n - 1)\n\n"
           "def exported():\n    return used() + Kept().called()\n\n"
           "def scripted():\n    return 2\n\n"
           "class Kept:\n    def called(self):\n        return 3\n\n"
           "    def scripted_method(self):\n        return 4\n\n"
           "class Orphan:\n    def __init__(self):\n        pass\n\n"
           "    def lonely(self):\n        return self.lonely()\n")
    init = "from .m import exported\n"
    script = "import m\nm.scripted()\nm.Kept().scripted_method()\n"
    assert unread({"m": src, "__init__": init}, [script]) == [
        ("m", "recursive"), ("m", "Orphan"), ("m", "Orphan.lonely")]
    assert unread({"m": src}) == [
        ("m", "recursive"), ("m", "exported"), ("m", "scripted"),
        ("m", "Kept.scripted_method"), ("m", "Orphan"),
        ("m", "Orphan.lonely")]


def test_every_public_definition_has_a_reader():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert sum(len(public_definitions(ast.parse(t)))
               for t in sources.values()) > 0
    assert callers
    assert unread(sources, callers) == []
