import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from barl1.barcomplex import Chain, boundary
from barl1.cli import run
from barl1.fileio import chain_to_dict, dump_json, load_json
from barl1.groups import cyclic_group, group_to_spec
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


def test_fill_infeasible_is_math_failure(tmp_path, z2file, capsys):
    # (t, e) is not a cycle, so it cannot be a boundary
    zf = jfile(tmp_path, "z.json",
               chain_to_dict(Chain.single(G2, (1, 0))))
    assert run(["fill", "--group", z2file, "--chain", zf]) == 1
    assert "mathematical failure" in capsys.readouterr().err


def test_mitosis_build_and_verify(tmp_path, z2file, capsys):
    mf = str(tmp_path / "mitosis.json")
    assert run(["mitosis", "build-abelian", "--group", z2file,
                "--out", mf]) == 0
    out = capsys.readouterr().out
    assert "ambient order: 24" in out

    assert run(["mitosis", "verify", mf]) == 0
    out = capsys.readouterr().out
    assert "split relation: True" in out

    record = load_json(mf)
    record["d"] = record["s"]
    dump_json(record, mf)
    assert run(["mitosis", "verify", mf]) == 1
    captured = capsys.readouterr()
    assert "split" in captured.out + captured.err


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
    assert "input error" in capsys.readouterr().err
    monkeypatch.setenv("BARL1_SIZE_CAP", "2")
    assert run(["homology", "--group", z3file, "--degree", "2"]) == 2
    monkeypatch.setenv("BARL1_SIZE_CAP", "not-a-number")
    assert run(["homology", "--group", z3file, "--degree", "1"]) == 2
    capsys.readouterr()


def test_json_output_is_deterministic(z2file, capsys):
    assert run(["kappa", "--group", z2file, "--degree", "1", "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["kappa", "--group", z2file, "--degree", "1", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    record = json.loads(first)
    assert record["kind"] == "kappa" and record["kappa"] == "1"
