"""One size cap, read by one check.

Every enumeration (tuple bases, boundary matrices, the tuples that
`barl1 cup` lists, the word balls of free-group fills) passes
barcomplex.check_size, which reads BARL1_SIZE_CAP on every call; its
refusals carry one message per case, and the CLI turns each into
exit 2.  Cochain operations enumerate nothing, so they never refuse.
Two ast scans keep that function the package's only reader of the
environment and the CLI the only place that catches a refusal.
"""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from barl1 import barcomplex
from barl1.barcomplex import (Chain, Cochain, SizeCapError, betti, boundary,
                              boundary_matrix, coboundary, kronecker,
                              tuple_basis)
from barl1.cli import run
from barl1.fileio import chain_to_dict, dump_json
from barl1.groups import FreeGroup, cyclic_group, group_to_spec
from barl1.l1opt import fill_min
from helpers import record_calls

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "barl1").glob("*.py"))
ENV_NAMES = {"environ", "getenv", "environb", "getenvb"}


def refusal(fn, *args):
    """The message of the SizeCapError fn(*args) raises, after checking
    that check_size raised it."""
    with pytest.raises(SizeCapError) as exc:
        fn(*args)
    assert exc.traceback[-1].name == "check_size"
    return str(exc.value)


def test_every_refusal_is_the_one_check(tmp_path, monkeypatch, capsys):
    G3 = cyclic_group(3)
    monkeypatch.setenv("BARL1_SIZE_CAP", "26")
    past = "basis size 27 exceeds the size cap 26 (BARL1_SIZE_CAP)"
    assert refusal(tuple_basis, G3, 3) == past
    assert refusal(boundary_matrix, G3, 3) == past
    assert refusal(betti, G3, 2) == past

    # the first word ball of F2 is radius 3: 53 words, 53^2 pairs
    F2 = FreeGroup(2)
    z = boundary(Chain.single(F2, ((1,), (2,))))
    monkeypatch.setenv("BARL1_SIZE_CAP", "2000")
    assert refusal(fill_min, z) == (
        "basis size 2809 exceeds the size cap 2000 (BARL1_SIZE_CAP)")

    G2 = cyclic_group(2)
    files = {}
    for name, obj in [("g", group_to_spec(G2)),
                      ("z", chain_to_dict(boundary(Chain.single(G2, (1, 1))))),
                      ("f", {"degree": 1,
                             "terms": [{"coeff": "1", "tuple": ["1"]}]}),
                      ("F1", group_to_spec(FreeGroup(1))),
                      ("fF1", {"degree": 1,
                               "terms": [{"coeff": "1", "tuple": ["x1"]}]}),
                      ("cfg", {"group": group_to_spec(G2), "degree": 2})]:
        files[name] = str(tmp_path / (name + ".json"))
        dump_json(obj, files[name])
    files["kappa"] = str(tmp_path / "kappa.json")
    monkeypatch.delenv("BARL1_SIZE_CAP")
    assert run(["kappa", "--group", files["g"], "--degree", "1",
                "--out", files["kappa"]]) == 0
    commands = [
        ["homology", "--group", files["g"], "--degree", "1"],
        ["fill", "--group", files["g"], "--chain", files["z"]],
        ["kappa", "--group", files["g"], "--degree", "1"],
        ["cup", "--group", files["g"], "--cochain-a", files["f"],
         "--cochain-b", files["f"]],
        ["pipeline", "--config", files["cfg"]],
        ["verify", files["kappa"]]]
    for argv in commands:
        assert run(argv) == 0, argv
    capsys.readouterr()
    assert run(["cup", "--group", files["F1"], "--cochain-a", files["fF1"],
                "--cochain-b", files["fF1"]]) == 2
    assert capsys.readouterr().err == (
        "input error: tuple bases need a finite group\n")
    for setting in ("0", "not-a-number"):
        monkeypatch.setenv("BARL1_SIZE_CAP", setting)
        message = ("BARL1_SIZE_CAP must be an integer of at least 1, got %r"
                   % setting)
        assert refusal(tuple_basis, G2, 1) == message
        for argv in commands:
            assert run(argv) == 2, argv
            assert capsys.readouterr().err == "input error: %s\n" % message


def environ_readers(text):
    """The top-level definitions of a module text that read the process
    environment through os, as names; "<module>" for a read outside
    them."""
    out = set()
    tree = ast.parse(text)
    for top in tree.body:
        label = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                hits = {a.name for a in node.names} & ENV_NAMES
            elif isinstance(node, ast.Attribute):
                hits = {node.attr} & ENV_NAMES
            else:
                hits = ()
            if hits:
                out.add(label)
    return out


def test_only_check_size_reads_the_environment():
    sample = ("import os\nfrom os import getenv\n"
              "def f():\n    return os.environ.get('X')\n"
              "def g():\n    return os.path.join('a')\n")
    assert environ_readers(sample) == {"<module>", "f"}
    readers = {p.stem: environ_readers(p.read_text(encoding="utf-8"))
               for p in PACKAGE}
    assert {mod: r for mod, r in readers.items() if r} == {
        "barcomplex": {"check_size"}}


def test_coboundary_reads_no_cap(monkeypatch):
    # even an invalid setting leaves a coboundary to its rule: every
    # value is <f, dt>, and no check is made, so none is swallowed
    G2 = cyclic_group(2)
    f = Cochain(G2, 1, table={(1,): Fraction(3), (0,): -1})
    monkeypatch.setenv("BARL1_SIZE_CAP", "0")
    checks = record_calls(monkeypatch, barcomplex, "check_size")
    df = coboundary(f)
    for t in itertools.product(G2.elements(), repeat=2):
        assert df.value(t) == kronecker(f, boundary(Chain.single(G2, t)))
    assert checks == []


def size_cap_handlers(text):
    """The lines of the except clauses of a module text that name
    SizeCapError, alone or in a tuple, bare or as an attribute."""
    out = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.type)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if "SizeCapError" in names:
                out.append(node.lineno)
    return out


def test_only_the_cli_catches_a_refusal():
    # a refusal reaches the CLI, which exits 2; a handler anywhere else
    # could swallow a refused setting
    sample = ("try:\n    f()\nexcept (KeyError, barcomplex.SizeCapError):\n"
              "    pass\nexcept ValueError:\n    pass\n"
              "try:\n    g()\nexcept SizeCapError:\n    pass\n")
    assert size_cap_handlers(sample) == [3, 9]
    handlers = {p.stem: size_cap_handlers(p.read_text(encoding="utf-8"))
                for p in PACKAGE}
    assert [mod for mod, lines in handlers.items() if lines] == ["cli"]
