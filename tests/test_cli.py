import argparse
import ast
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import barl1
from barl1 import barcomplex, fileio, mitosis
from barl1.barcomplex import Chain, boundary
from barl1.cli import build_parser, run
from barl1.fileio import (build_group, chain_to_dict, dump_json,
                          fill_cert_to_dict, group_to_spec, load_json)
from barl1.groups import (FreeGroup, SemidirectProduct, cyclic_group,
                          identity_hom)
from barl1.l1opt import fill_min, ubc_kappa_exact
from barl1.mitosis import constant_c

G2 = cyclic_group(2)
G3 = cyclic_group(3)


def jfile(tmp_path, name, obj):
    p = tmp_path / name
    dump_json(obj, p)
    return str(p)


@pytest.fixture
def z2file(tmp_path):
    return jfile(tmp_path, "z2.json", group_to_spec(G2))


@pytest.fixture
def z3file(tmp_path):
    return jfile(tmp_path, "z3.json", group_to_spec(G3))


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2
    assert run(["bogus-command"]) == 2
    capsys.readouterr()


def test_version(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out.strip()


def test_group_check_ok(z2file, capsys):
    assert run(["group", "check", z2file]) == 0
    out = capsys.readouterr().out
    assert "axioms: ok" in out and "mode: exhaustive" in out


def test_group_check_free_product_with_a_trivial_factor(tmp_path, capsys):
    spec = {"type": "product", "op": "free",
            "factors": [group_to_spec(G2), {"type": "free", "rank": 0}]}
    assert run(["group", "check", jfile(tmp_path, "fp.json", spec)]) == 0
    assert "mode: exhaustive" in capsys.readouterr().out


def test_group_check_bad_table(tmp_path, capsys):
    bad = jfile(tmp_path, "bad.json",
                {"type": "finite", "elements": ["e", "a"],
                 "table": [[0, 0], [1, 0]]})
    assert run(["group", "check", bad]) == 1
    err = capsys.readouterr().err
    assert "mathematical failure" in err


def test_homology_rank_line(z3file, capsys):
    assert run(["homology", "--group", z3file, "--degree", "1"]) == 0
    assert "H_1 rank: 0" in capsys.readouterr().out


def test_boundary_command(tmp_path, z2file, capsys):
    cf = jfile(tmp_path, "c.json", chain_to_dict(Chain.single(G2, (1, 1))))
    assert run(["boundary", "--group", z2file, "--chain", cf]) == 0
    out = capsys.readouterr().out
    assert "degree: 2 -> 1" in out
    assert "|c| = 1, |dc| = 3" in out


def test_kappa_exact_line(z2file, capsys):
    assert run(["kappa", "--group", z2file, "--degree", "1"]) == 0
    assert "kappa = 1 (exact, vertex-enumeration)" in capsys.readouterr().out


def test_kappa_circuits_record_verifies(tmp_path, z3file, capsys):
    out = str(tmp_path / "kappa.json")
    assert run(["kappa", "--group", z3file, "--degree", "2", "--out", out]) == 0
    assert "kappa = 1/2 (exact, vertex-enumeration)" in capsys.readouterr().out
    assert run(["verify", "--json", out]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_kappa_cone_bound_record_verifies(tmp_path, z3file, capsys):
    out = str(tmp_path / "kappa.json")
    assert run(["kappa", "--group", z3file, "--degree", "3", "--out", out]) == 0
    assert "kappa = 1 (exact, cone-bound)" in capsys.readouterr().out
    assert run(["verify", out]) == 0
    forged = jfile(tmp_path, "forged.json", dict(load_json(out), upper="1/2"))
    assert run(["verify", forged]) == 1
    capsys.readouterr()


def test_python_m_barl1_help():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "barl1", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "usage: barl1" in proc.stdout


def test_fill_certificate_round_trip(tmp_path, z2file, capsys):
    z = Chain(G2, 1, {(1,): Fraction(2), (0,): Fraction(-1)})
    cf = jfile(tmp_path, "z.json", chain_to_dict(z))
    cert = str(tmp_path / "fill.json")
    assert run(["fill", "--group", z2file, "--chain", cf, "--out", cert]) == 0
    out = capsys.readouterr().out
    assert "ratio = 1/3" in out and "certificate written" in out

    assert run(["verify", cert]) == 0
    assert "verified: ok" in capsys.readouterr().out

    record = load_json(cert)
    record["c"][0]["coeff"] = "2"
    dump_json(record, cert)
    assert run(["verify", cert]) == 1
    captured = capsys.readouterr()
    assert "boundary mismatch" in captured.out + captured.err


def test_fill_of_a_repeated_half_tuple(tmp_path, z3file, capsys):
    # the two halves of (1) are summed on reading into a coefficient 1
    zf = jfile(tmp_path, "z.json",
               {"degree": 1, "terms": [{"tuple": ["1"], "coeff": "1/2"},
                                       {"tuple": ["1"], "coeff": "1/2"}]})
    cert = str(tmp_path / "fill.json")
    assert run(["fill", "--group", z3file, "--chain", zf, "--out", cert]) == 0
    assert "ratio = 1" in capsys.readouterr().out
    assert load_json(cert) == fill_cert_to_dict(fill_min(Chain.single(G3, (1,))))


def test_fill_infeasible_is_math_failure(tmp_path, z2file, capsys):
    # (t, e) is not a cycle, so it cannot be a boundary
    zf = jfile(tmp_path, "z.json",
               chain_to_dict(Chain.single(G2, (1, 0))))
    assert run(["fill", "--group", z2file, "--chain", zf]) == 1
    assert "mathematical failure" in capsys.readouterr().err


def test_fill_of_a_free_group_non_boundary_is_a_math_failure(tmp_path,
                                                              capsys):
    # (x1) has exponent sum 1: no boundary, and no size-cap input error
    F2 = FreeGroup(2)
    gf = jfile(tmp_path, "f2.json", group_to_spec(F2))
    zf = jfile(tmp_path, "z.json", chain_to_dict(Chain.single(F2, ((1,),))))
    assert run(["fill", "--group", gf, "--chain", zf]) == 1
    assert capsys.readouterr().err == (
        "mathematical failure: z is not a boundary\n")


def test_mitosis_build_and_verify(tmp_path, z2file, capsys):
    mf = str(tmp_path / "mitosis.json")
    assert run(["mitosis", "build-abelian", "--group", z2file,
                "--out", mf]) == 0
    out = capsys.readouterr().out
    assert "ambient order: 24" in out

    assert run(["verify", mf]) == 0
    assert capsys.readouterr().out == (
        "certificate kind: mitosis\nverified: ok\n")

    record = load_json(mf)
    record["d"] = record["s"]
    dump_json(record, mf)
    assert run(["verify", mf]) == 1
    assert "FAILED: axiom failed: split relation" in capsys.readouterr().out


def test_pipeline_command_writes_certificates(tmp_path, capsys):
    cfg = jfile(tmp_path, "cfg.json",
                {"group": group_to_spec(G2), "homs": "identity",
                 "degree": 1, "samples": 2, "seed": 0})
    outdir = str(tmp_path / "certs")
    assert run(["pipeline", "--config", cfg, "--out-dir", outdir]) == 0
    out = capsys.readouterr().out
    assert "worst ratio" in out and "certified bound" in out
    files = sorted(os.listdir(outdir))
    assert files == ["pipeline-000.json", "pipeline-001.json"]
    for f in files:
        assert run(["verify", os.path.join(outdir, f)]) == 0
        capsys.readouterr()


def test_tower_command(capsys):
    assert run(["tower", "--degree", "3"]) == 0
    out = capsys.readouterr().out
    assert "degree" in out and "40" in out

    assert run(["tower", "--degree", "1", "--xi", "1"]) == 0
    out = capsys.readouterr().out
    assert str(constant_c(1, 0, 1)) in out


@pytest.mark.parametrize("degree, xi", [("2", "1,2,3"), ("3", "1")],
                         ids=["extra", "missing"])
def test_tower_xi_count_must_match_the_degree(capsys, degree, xi):
    # neither drop extra values nor pad missing ones with 0
    assert run(["tower", "--degree", degree, "--xi", xi]) == 2
    captured = capsys.readouterr()
    assert "--xi needs %s values, got %d" % (degree, xi.count(",") + 1) \
        in captured.err
    assert captured.out == ""


def test_tower_negative_degree_is_an_input_error(capsys):
    assert run(["tower", "--degree", "-2"]) == 2
    captured = capsys.readouterr()
    assert "--degree must be at least 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("samples", [0, -3])
def test_pipeline_needs_at_least_one_sample(tmp_path, capsys, samples):
    cfg = jfile(tmp_path, "cfg.json",
                {"group": group_to_spec(G2), "homs": "identity",
                 "degree": 1, "samples": samples})
    assert run(["pipeline", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "samples must be at least 1" in captured.err
    assert "certified bound" not in captured.out


@pytest.mark.parametrize("fields", [
    {"degree": True, "samples": True, "seed": False},
    {"degree": 1.7},
    {"samples": 2.0},
    {"seed": "0"},
], ids=["booleans", "float-degree", "float-samples", "string-seed"])
def test_pipeline_config_integers_must_be_json_integers(tmp_path, capsys,
                                                        fields):
    # int() would read each of these as a small integer and run
    cfg = jfile(tmp_path, "cfg.json",
                {"group": group_to_spec(G2), "homs": "identity",
                 "degree": 1, "samples": 1, **fields})
    assert run(["pipeline", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "must be an integer" in captured.err
    assert "certified bound" not in captured.out


def test_input_error_paths(tmp_path, z3file, capsys):
    assert run(["group", "check", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert run(["group", "check", str(bad)]) == 2
    # chain whose tuples disagree with its own degree field
    cf = jfile(tmp_path, "c.json",
               {"degree": 2, "terms": [{"coeff": "1", "tuple": ["1"]}]})
    assert run(["boundary", "--group", z3file, "--chain", cf]) == 2
    assert run(["homology", "--group", z3file, "--degree", "x"]) == 2
    capsys.readouterr()


def test_size_cap_flag_and_env(z3file, capsys, monkeypatch):
    assert run(["homology", "--group", z3file, "--degree", "2",
                "--cap", "2"]) == 2
    assert "unrecognized arguments: --cap" in capsys.readouterr().err
    monkeypatch.setenv("BARL1_SIZE_CAP", "2")
    assert run(["homology", "--group", z3file, "--degree", "2"]) == 2
    assert "input error: basis size 27 exceeds the size cap 2" in (
        capsys.readouterr().err)
    monkeypatch.setenv("BARL1_SIZE_CAP", "not-a-number")
    assert run(["homology", "--group", z3file, "--degree", "1"]) == 2
    assert "BARL1_SIZE_CAP must be an integer" in capsys.readouterr().err


def test_size_cap_below_one_is_an_input_error(z2file, capsys, monkeypatch):
    homology = ["homology", "--group", z2file, "--degree", "3"]
    assert run(homology) == 0
    for cap in ("0", "-5"):
        monkeypatch.setenv("BARL1_SIZE_CAP", cap)
        assert run(homology) == 2
        assert "at least 1" in capsys.readouterr().err


def test_no_subcommand_offers_cap(tmp_path, z2file, capsys):
    f = jfile(tmp_path, "f.json", {"degree": 1, "terms": []})
    cfg = jfile(tmp_path, "cfg.json", {"group": group_to_spec(G2)})
    for argv in (["group", "check", z2file],
                 ["boundary", "--group", z2file, "--chain", f],
                 ["homology", "--group", z2file, "--degree", "1"],
                 ["fill", "--group", z2file, "--chain", f],
                 ["kappa", "--group", z2file, "--degree", "1"],
                 ["cross", "--group-a", z2file, "--group-b", z2file,
                  "--chain-a", f, "--chain-b", f],
                 ["cup", "--group", z2file, "--cochain-a", f,
                  "--cochain-b", f],
                 ["pair", "--group-a", z2file, "--group-b", z2file,
                  "--cochain-a", f, "--cochain-b", f, "--chain-a", f,
                  "--chain-b", f],
                 ["mitosis", "build-abelian", "--group", z2file],
                 ["pipeline", "--config", cfg],
                 ["tower", "--degree", "2"],
                 ["verify", f]):
        assert run(argv + ["--cap", "5"]) == 2, argv
        assert "unrecognized arguments: --cap" in capsys.readouterr().err


def test_verify_obeys_the_size_cap(tmp_path, z2file, capsys, monkeypatch):
    # re-listing the circuits of a Z/2 degree-2 kappa record enumerates
    # the 8 tuples of degree 3
    out = str(tmp_path / "kappa.json")
    assert run(["kappa", "--group", z2file, "--degree", "2", "--out", out]) == 0
    monkeypatch.setenv("BARL1_SIZE_CAP", "5")
    assert run(["verify", out]) == 2
    assert "input error: basis size 8 exceeds the size cap 5" in (
        capsys.readouterr().err)
    monkeypatch.setenv("BARL1_SIZE_CAP", "8")
    assert run(["verify", out]) == 0
    assert "verified: ok" in capsys.readouterr().out


def test_cup_command(tmp_path, z2file, capsys):
    f = jfile(tmp_path, "f.json",
              {"degree": 1, "terms": [{"coeff": "1", "tuple": ["1"]}]})
    assert run(["cup", "--group", z2file, "--cochain-a", f,
                "--cochain-b", f, "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["degree"] == 2
    assert record["terms"] == [{"coeff": "-1", "tuple": ["1", "1"]}]


def test_mitosis_build_checks_before_it_writes(tmp_path, z2file, capsys,
                                               monkeypatch):
    calls = []
    verify = mitosis.verify_mitosis

    def failing(data):
        calls.append(data)
        return verify(data) + ["split relation i(g)^d = i(g) i(g)^s"]

    monkeypatch.setattr(mitosis, "verify_mitosis", failing)
    mf = tmp_path / "mitosis.json"
    assert run(["mitosis", "build-abelian", "--group", z2file,
                "--out", str(mf)]) == 1
    assert len(calls) == 1 and not mf.exists()
    assert "split" in capsys.readouterr().err


def test_verify_reads_the_certificate_once(tmp_path, z2file, capsys,
                                           monkeypatch):
    cf = jfile(tmp_path, "z.json",
               chain_to_dict(boundary(Chain.single(G2, (1, 1)))))
    cert = str(tmp_path / "cert.json")
    assert run(["fill", "--group", z2file, "--chain", cf, "--out", cert]) == 0
    capsys.readouterr()
    reads = []
    load_json = fileio.load_json
    monkeypatch.setattr(fileio, "load_json",
                        lambda path: reads.append(path) or load_json(path))
    assert run(["verify", "--json", cert]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert reads == [cert]


def test_readme_library_example():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library example", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_readme_cli_examples_parse():
    # every `barl1 ...` line of the README's CLI block names a
    # subcommand and options the parser has
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    examples = [line for line in block.split("```", 1)[0].splitlines()
                if line.startswith("barl1 ")]
    assert len(examples) >= 8
    for line in examples:
        argv = shlex.split(line)[1:]
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail("README example does not parse: %s" % line)


def test_readme_cites_the_module_constants_it_names():
    # every "`module.CONSTANT` (value)" in the README, across line
    # breaks, states the value the code has
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    cited = re.findall(r"`(\w+)\.([A-Z][A-Z_]*)`\s+\((\d+)\)", readme)
    assert {(m, name) for m, name, _ in cited} >= {
        ("l1opt", "ENUM_BUDGET"), ("l1opt", "SAMPLES"),
        ("l1opt", "START_RADIUS"), ("l1opt", "MAX_RADIUS")}
    for module, name, value in cited:
        code = getattr(importlib.import_module("barl1." + module), name)
        assert code == int(value), "%s.%s" % (module, name)


def test_json_output_is_deterministic(z2file, capsys):
    assert run(["kappa", "--group", z2file, "--degree", "1", "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["kappa", "--group", z2file, "--degree", "1", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    record = json.loads(first)
    assert record["kind"] == "kappa" and record["kappa"] == "1"


def _count_boundaries(monkeypatch, counted):
    """Wrap barcomplex.boundary wherever a barl1 module binds it; the
    calls whose chain `counted` accepts are listed in the result."""
    calls = []
    orig = barcomplex.boundary

    def traced(c):
        if counted(c):
            calls.append(c)
        return orig(c)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "barl1" and vars(module).get("boundary") is orig:
            monkeypatch.setattr(module, "boundary", traced)
    return calls


def test_pipeline_takes_d_of_each_primitive_once(tmp_path, capsys,
                                                 monkeypatch):
    # one degree-3 boundary over the ambient is the set-up theta
    # self-test, then one per certificate: its own verify()
    cfg = jfile(tmp_path, "cfg.json", {"group": group_to_spec(G2),
                                       "degree": 2, "samples": 3, "seed": 5})
    calls = _count_boundaries(monkeypatch, lambda c: c.degree == 3 and
                              isinstance(c.group, SemidirectProduct))
    assert run(["pipeline", "--config", cfg]) == 0
    assert "samples: 3" in capsys.readouterr().out
    assert len(calls) == 4


def test_fill_takes_d_c_once(tmp_path, z2file, capsys, monkeypatch):
    z = boundary(Chain(G2, 3, {(1, 1, 1): 1, (1, 0, 1): 2}))
    cf = jfile(tmp_path, "z.json", chain_to_dict(z))
    calls = _count_boundaries(monkeypatch, lambda c: c.degree == 3)
    assert run(["fill", "--group", z2file, "--chain", cf]) == 0
    assert "ratio = 1/2" in capsys.readouterr().out
    assert len(calls) == 1


# a group record whose integer is not a JSON integer, the record it
# stands for, and an element of that group other than the identity
NON_INTEGER_GROUPS = {
    "rank true": ({"type": "free", "rank": True},
                  {"type": "free", "rank": 1}, (1,)),
    "rank 1.5": ({"type": "free", "rank": 1.5},
                 {"type": "free", "rank": 1}, (1,)),
    "degree 2.9": ({"type": "perm", "degree": 2.9, "generators": [[1, 0]]},
                   {"type": "perm", "degree": 2, "generators": [[1, 0]]},
                   (1, 0)),
    "boolean generator": (
        {"type": "perm", "degree": 2, "generators": [[True, False]]},
        {"type": "perm", "degree": 2, "generators": [[1, 0]]}, (1, 0)),
    "boolean table": (
        {"type": "finite", "elements": ["0", "1"],
         "table": [[False, True], [True, False]]},
        {"type": "finite", "elements": ["0", "1"], "table": [[0, 1], [1, 0]]},
        1),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_GROUPS))
def test_group_record_integers_must_be_integers(tmp_path, capsys, case):
    bad, good, g = NON_INTEGER_GROUPS[case]
    assert run(["group", "check", jfile(tmp_path, "g.json", bad)]) == 2
    assert "must be an integer" in capsys.readouterr().err

    z = boundary(Chain.single(build_group(good), (g, g)))
    record = fill_cert_to_dict(fill_min(z))
    assert run(["verify", jfile(tmp_path, "good.json", record)]) == 0
    record["group"] = bad
    assert run(["verify", jfile(tmp_path, "bad.json", record)]) == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err and "must be an integer" in captured.err
    assert "Error(" not in captured.err  # a message, not an exception repr


def _without(record, field):
    return {k: v for k, v in record.items() if k != field}


def _with(record, **fields):
    return {**record, **fields}


def _fill_record():
    return fill_cert_to_dict(fill_min(boundary(Chain.single(G2, (1, 1)))))


def _fill_with_a_number_tuple():
    record = _fill_record()
    record["z"][0]["tuple"] = 5
    return record


def _kappa_with_vertex(change):
    """The ubc_kappa_exact(Z/2, 1) record with change applied to its
    first vertex."""
    record = fileio.kappa_to_dict(ubc_kappa_exact(G2, 1), G2)
    change(record["vertices"][0])
    return record


def _pipeline_record():
    h = identity_hom(G2)
    data = mitosis.mitosis_of_finite_abelian(G2)
    cert = mitosis.primitive_pipeline(Chain.single(G2, (1,)),
                                      mitosis.PipelineConfig(h, h, h, data))
    return fileio.pipeline_cert_to_dict(cert)


def _tower_with_a_number_row():
    record = fileio.tower_to_dict(mitosis.tower(2, xi=[0, 1, Fraction(1, 2)]))
    record["rows"][1] = 5
    return record


def _config_with_a_source_listed_twice():
    # read keeping the last image, phi would be the identity
    identity = [["0", "0"], ["1", "1"]]
    return {"group": group_to_spec(G2), "degree": 1,
            "homs": {"phi": [["1", "0"]] + identity, "phi'": identity,
                     "psi": identity}}


def _mitosis_with_a_source_listed_twice():
    # read keeping the last image, the record would be the genuine one
    record = fileio.mitosis_to_dict(mitosis.mitosis_of_finite_abelian(G3))
    pairs = record["injection"]
    record["injection"] = [["0", pairs[1][1]]] + pairs
    return record


# a certificate record that lacks a required field, or a malformed
# pipeline config: the command, the record, and what the message says
MALFORMED = {
    "fill without group": ("verify", lambda: _without(_fill_record(), "group"),
                           "no field 'group'"),
    "fill z not a list": ("verify", lambda: _with(_fill_record(), z=5),
                          "z must be a list, got 5"),
    "fill c not a list": ("verify", lambda: _with(_fill_record(), c=5),
                          "c must be a list, got 5"),
    "fill tuple not a list": ("verify", _fill_with_a_number_tuple,
                              "tuple must be a list, got 5"),
    "kappa vertices not a list": ("verify", lambda: _with(
        fileio.kappa_to_dict(ubc_kappa_exact(G2, 1), G2), vertices=5),
        "vertices must be a list, got 5"),
    "kappa vertex kind x": ("verify", lambda: _kappa_with_vertex(
        lambda v: v.update(kind="x")),
        "kappa vertex kind must be 'fill', got 'x'"),
    "kappa vertex kind an object": ("verify", lambda: _kappa_with_vertex(
        lambda v: v.update(kind={})),
        "kappa vertex kind must be 'fill', got {}"),
    "kappa vertex kind 1/0": ("verify", lambda: _kappa_with_vertex(
        lambda v: v.update(kind="1/0")),
        "kappa vertex kind must be 'fill', got '1/0'"),
    "kappa vertex without kind": ("verify", lambda: _kappa_with_vertex(
        lambda v: v.pop("kind")), "record has no field 'kind'"),
    "pipeline z not a list": ("verify", lambda: _with(
        _pipeline_record(), z=5), "z must be a list, got 5"),
    "pipeline target not a list": ("verify", lambda: _with(
        _pipeline_record(), target=5), "target must be a list, got 5"),
    "pipeline primitive not a list": ("verify", lambda: _with(
        _pipeline_record(), primitive=5), "primitive must be a list, got 5"),
    "kappa without degree": ("verify", lambda: _without(
        fileio.kappa_to_dict(ubc_kappa_exact(G2, 1), G2), "degree"),
        "no field 'degree'"),
    "pipeline without source_group": ("verify", lambda: _without(
        _pipeline_record(), "source_group"), "no field 'source_group'"),
    "mitosis without source": ("verify", lambda: _without(
        fileio.mitosis_to_dict(mitosis.mitosis_of_finite_abelian(G2)),
        "source"), "no field 'source'"),
    "tower row not an object": ("verify", _tower_with_a_number_row,
                                "tower rows must be a list of objects"),
    "config semidirect without base": (
        "pipeline", lambda: {"group": {"type": "semidirect"}},
        "bad group record in pipeline config: record has no field 'base'"),
    "config finite without table": (
        "pipeline", lambda: {"group": {"type": "finite", "elements": ["e"]}},
        "bad group record in pipeline config: record has no field 'table'"),
    "config perm without degree": (
        "pipeline", lambda: {"group": {"type": "perm", "generators": []}},
        "bad group record in pipeline config: record has no field 'degree'"),
    "config product without op": (
        "pipeline", lambda: {"group": {"type": "product",
                                       "factors": [group_to_spec(G2)]}},
        "bad group record in pipeline config: record has no field 'op'"),
    "config elements not a list": (
        "pipeline", lambda: {"group": {**group_to_spec(G2), "elements": 5}},
        "bad group record in pipeline config"),
    "config homs without phi": (
        "pipeline", lambda: {"group": group_to_spec(G2), "homs": {}},
        "no field 'phi'"),
    "config hom phi not a table": (
        "pipeline", lambda: {"group": group_to_spec(G2), "homs": {"phi": 5}},
        "field 'phi' must list [source, image] pairs"),
    "config hom phi lists a source twice": (
        "pipeline", _config_with_a_source_listed_twice,
        "field 'phi' lists a source element twice"),
    "config degree 0": (
        "pipeline", lambda: {"group": group_to_spec(G2), "degree": 0},
        "pipeline degree must be at least 1, got 0"),
    "config degree -1": (
        "pipeline", lambda: {"group": group_to_spec(G2), "degree": -1},
        "pipeline degree must be at least 1, got -1"),
    "mitosis injection lists a source twice": (
        "verify", _mitosis_with_a_source_listed_twice,
        "field 'injection' lists a source element twice"),
    "config group a chain record": (
        "pipeline", lambda: {"group": chain_to_dict(Chain.single(G2, (1,)))},
        "bad group record in pipeline config: record has no field 'type'"),
    "config product op unknown": (
        "pipeline", lambda: {"group": {"type": "product", "op": "tensor",
                                       "factors": [group_to_spec(G2)]}},
        "bad group record in pipeline config: unknown product op 'tensor'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_records_and_configs_are_plain_input_errors(tmp_path, capsys,
                                                              case):
    command, build, message = MALFORMED[case]
    path = jfile(tmp_path, "bad.json", build())
    argv = (["verify", path] if command == "verify" else
            ["pipeline", "--config", path, "--out-dir", str(tmp_path)])
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "input error" in err and message in err
    assert "Error(" not in err  # a message, not an exception repr


@pytest.mark.parametrize("record, message", [
    ({"degree": 1, "terms": []}, "record has no field 'type'"),
    ({"type": "bogus"}, "unknown group type 'bogus'"),
    ({"type": "product", "op": "tensor", "factors": []},
     "unknown product op 'tensor'"),
], ids=["chain file", "unknown type", "unknown op"])
def test_a_malformed_group_record_is_an_input_error(tmp_path, capsys, record,
                                                    message):
    # not a group record at all, so no mathematical failure (exit 1)
    assert run(["group", "check", jfile(tmp_path, "g.json", record)]) == 2
    fill = _with(_fill_record(), group=record)
    assert run(["verify", jfile(tmp_path, "fill.json", fill)]) == 2
    err = capsys.readouterr().err
    assert err == ("input error: bad group record in %s: %s\n"
                   "input error: bad group record in field 'group': %s\n"
                   % (tmp_path / "g.json", message, message))


@pytest.fixture
def z2_inputs(tmp_path):
    """Paths of small Z/2 input files: the group, a = 1(1), the degree-1
    boundary z = d(1, 1), chains of degree 0 and -1, a pipeline config
    and the fill certificate of z."""
    z = boundary(Chain.single(G2, (1, 1)))
    return {"group": jfile(tmp_path, "z2.json", group_to_spec(G2)),
            "a": jfile(tmp_path, "a.json",
                       chain_to_dict(Chain.single(G2, (1,)))),
            "z": jfile(tmp_path, "z.json", chain_to_dict(z)),
            "c0": jfile(tmp_path, "c0.json",
                        chain_to_dict(Chain.single(G2, ()))),
            "cm": jfile(tmp_path, "cm.json", {"degree": -1, "terms": []}),
            "cfg": jfile(tmp_path, "cfg.json", {"group": group_to_spec(G2),
                                                "degree": 1}),
            "cert": jfile(tmp_path, "cert.json",
                          fill_cert_to_dict(fill_min(z)))}


INPUT_FAULTS = {
    "boundary of a degree-0 chain": (
        "boundary --group {group} --chain {c0}",
        "boundary of a degree-0 chain is undefined"),
    "fill of a degree-0 chain": (
        "fill --group {group} --chain {c0}",
        "fillings are defined for boundaries of degree >= 1"),
    "chain of degree -1": (
        "boundary --group {group} --chain {cm}", "chain degree must be >= 0"),
    "homology degree -1": (
        "homology --group {group} --degree -1", "degree must be >= 0"),
    "kappa degree -1": (
        "kappa --group {group} --degree -1",
        "boundary matrix defined for degree >= 1"),
    "pair with a degree-0 chain": (
        "pair --group-a {group} --group-b {group} --cochain-a {a} "
        "--cochain-b {a} --chain-a {a} --chain-b {c0}",
        "pairing degrees do not match"),
}


@pytest.mark.parametrize("case", sorted(INPUT_FAULTS))
def test_input_faults_print_a_message(z2_inputs, capsys, case):
    command, message = INPUT_FAULTS[case]
    assert run(command.format(**z2_inputs).split()) == 2
    err = capsys.readouterr().err
    assert err == "input error: %s\n" % message
    assert "Error(" not in err  # a message, not an exception repr


def test_cross_command(z2_inputs, capsys):
    argv = ("cross --group-a {group} --group-b {group} --chain-a {a} "
            "--chain-b {a}").format(**z2_inputs).split()
    assert run(argv) == 0
    assert "|a x b| = 2" in capsys.readouterr().out
    assert run(argv + ["--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result == {"degree": 2, "terms": [
        {"coeff": "-1", "tuple": [["0", "1"], ["1", "0"]]},
        {"coeff": "1", "tuple": [["1", "0"], ["0", "1"]]}]}


def test_pair_command(z2_inputs, capsys):
    argv = ("pair --group-a {group} --group-b {group} --cochain-a {a} "
            "--cochain-b {a} --chain-a {a} --chain-b {a}"
            ).format(**z2_inputs).split()
    assert run(argv) == 0
    assert "compatible: yes" in capsys.readouterr().out
    assert run(argv + ["--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["lhs"], record["rhs"], record["sign"], record["ok"]) == (
        "-1", "-1", -1, True)


def test_pipeline_config_with_four_groups_and_hom_tables(tmp_path, capsys):
    # identity tables between four copies of Z/2 certify what the
    # identity homs over one group certify, byte for byte
    identity = [["0", "0"], ["1", "1"]]
    common = {"degree": 2, "samples": 6, "seed": 3}
    outputs = []
    for name, cfg in [
            ("one", {"group": group_to_spec(G2), "homs": "identity"}),
            ("four", {"groups": dict.fromkeys(("H", "H'", "K", "G"),
                                              group_to_spec(G2)),
                      "homs": dict.fromkeys(("phi", "phi'", "psi"),
                                            identity)})]:
        out = tmp_path / name
        assert run(["pipeline", "--config",
                    jfile(tmp_path, name + ".json", {**cfg, **common}),
                    "--out-dir", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    capsys.readouterr()
    assert len(outputs[0]) == 6
    assert outputs[0] == outputs[1]


# one run of every subcommand, by its path, on the files of z2_inputs
SMOKE = {
    "group check": "group check {group}",
    "boundary": "boundary --group {group} --chain {a}",
    "homology": "homology --group {group} --degree 1",
    "fill": "fill --group {group} --chain {z}",
    "kappa": "kappa --group {group} --degree 1",
    "cross": "cross --group-a {group} --group-b {group} --chain-a {a} "
             "--chain-b {a}",
    "cup": "cup --group {group} --cochain-a {a} --cochain-b {a}",
    "pair": "pair --group-a {group} --group-b {group} --cochain-a {a} "
            "--cochain-b {a} --chain-a {a} --chain-b {a}",
    "mitosis build-abelian": "mitosis build-abelian --group {group}",
    "pipeline": "pipeline --config {cfg}",
    "tower": "tower --degree 2",
    "verify": "verify {cert}",
}


def subcommand_paths(parser, prefix=()):
    """The space-joined paths of the subcommands a parser registers."""
    paths = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                paths |= subcommand_paths(sub, prefix + (name,))
    return paths or {" ".join(prefix)}


def test_every_subcommand_has_a_smoke_case():
    assert set(SMOKE) == subcommand_paths(build_parser())


@pytest.mark.parametrize("path", sorted(SMOKE))
def test_every_subcommand_runs(z2_inputs, capsys, path):
    assert run(SMOKE[path].format(**z2_inputs).split()) == 0
    assert capsys.readouterr().out


JSON_OUT = {(("--json",), False, None, False, "json"),
            (("--out",), False, None, None, "out")}


def _required(*options, type=None):
    return {((o,), True, type, None, o[2:].replace("-", "_"))
            for o in options}


# every subcommand's options, as (option strings, required, type,
# default, dest); its help text may list them in any order
OPTIONS = {
    "group check": {((), True, None, None, "group")} | JSON_OUT,
    "boundary": _required("--group", "--chain") | JSON_OUT,
    "homology": (_required("--group") | _required("--degree", type=int)
                 | JSON_OUT),
    "fill": _required("--group", "--chain") | JSON_OUT,
    "kappa": (_required("--group") | _required("--degree", type=int)
              | {(("--seed",), False, int, 0, "seed")} | JSON_OUT),
    "cross": (_required("--group-a", "--group-b", "--chain-a", "--chain-b")
              | JSON_OUT),
    "cup": _required("--group", "--cochain-a", "--cochain-b") | JSON_OUT,
    "pair": (_required("--group-a", "--group-b", "--cochain-a", "--cochain-b",
                       "--chain-a", "--chain-b") | JSON_OUT),
    "mitosis build-abelian": _required("--group") | JSON_OUT,
    "pipeline": _required("--config") | {
        (("--out-dir",), False, None, None, "out_dir"),
        (("--json",), False, None, False, "json")},
    "tower": (_required("--degree", type=int)
              | {(("--xi",), False, None, None, "xi")} | JSON_OUT),
    "verify": {((), True, None, None, "certificate")} | JSON_OUT,
}


def subcommand_parser(parser, path):
    """The parser of the subcommand with the space-joined path."""
    for name in path.split():
        parser = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)
                      ).choices[name]
    return parser


@pytest.mark.parametrize("path", sorted(SMOKE))
def test_every_subcommand_keeps_its_options(path):
    parser = subcommand_parser(build_parser(), path)
    options = {(tuple(a.option_strings), a.required, a.type, a.default,
                a.dest) for a in parser._actions
               if not isinstance(a, argparse._HelpAction)}
    assert options == OPTIONS[path]


# the subcommands whose --json output is a record, by its kind
RECORD_KINDS = {"fill": "fill", "kappa": "kappa",
                "mitosis build-abelian": "mitosis", "tower": "tower"}


@pytest.mark.parametrize("path", sorted(SMOKE))
def test_reports_name_their_command_and_records_do_not(z2_inputs, capsys,
                                                       path):
    assert run(SMOKE[path].format(**z2_inputs).split() + ["--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    if path in RECORD_KINDS:
        assert out["kind"] == RECORD_KINDS[path]
        assert "command" not in out and "version" not in out
    else:
        assert (out["command"], out["version"]) == (path, barl1.__version__)


# fileio's readers of record fields; a file format is read in fileio
RECORD_READERS = {"required", "parse_int", "parse_list", "read_group",
                  "read_table"}


def record_reader_calls(text):
    """The lines of a module text that call a RECORD_READERS function,
    bare or as an attribute of fileio."""
    out = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            name = f.attr if f.value.id == "fileio" else None
        else:
            name = getattr(f, "id", None)
        if name in RECORD_READERS:
            out.append(node.lineno)
    return out


def test_the_cli_reads_no_record_fields():
    # every file format, the pipeline config's included, has one home
    sample = ("fileio.required(d, 'x')\nparse_int(v, 'n')\n"
              "args.required(d)\nfileio.load_group(p)\nread_table(d)\n")
    assert record_reader_calls(sample) == [1, 2, 5]
    cli = Path(importlib.import_module("barl1.cli").__file__)
    assert record_reader_calls(cli.read_text(encoding="utf-8")) == []
